import math
from dataclasses import replace

import numpy as np
import pytest

from schurkit.curves import (
    CurvatureProfile,
    Jump,
    SampledCurve,
    constant_curvature,
    curvature_magnitude,
    embed_plane_curve,
    jump_rotation,
    linear_curvature,
    reconstruct_plane,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
)
from schurkit.errors import JumpAngleError, ProfileError
from schurkit.numerics import StepControl
from schurkit.schur import turning_budget
from conftest import assert_valid_curve

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ProfileError):
        CurvatureProfile(-1.0, constant_curvature(1.0))
    with pytest.raises(ProfileError):
        CurvatureProfile(1.0, constant_curvature(1.0), (Jump(1.5, 0.1),))
    with pytest.raises(ProfileError):
        CurvatureProfile(1.0, constant_curvature(1.0), (Jump(0.6, 0.1), Jump(0.3, 0.1)))
    with pytest.raises(JumpAngleError):
        CurvatureProfile(1.0, constant_curvature(1.0), (Jump(0.5, 3.5),))


def test_profile_accepts_tangent_reversal():
    p = CurvatureProfile(2.0, constant_curvature(0.0), (Jump(1.0, math.pi),))
    c = reconstruct_plane(p)
    i = c.jump_marks[0]
    assert np.max(np.abs(c.tangent[i + 1] + c.tangent[i])) < 1e-15


def test_tabulated_curvature_interpolates():
    k = tabulated_curvature([[0.0, 1.0], [1.0, 3.0]])
    assert abs(float(k(0.5)) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# plane reconstruction
# ---------------------------------------------------------------------------

def test_plane_circle_closes():
    c = reconstruct_plane(CurvatureProfile(TWO_PI, constant_curvature(1.0)))
    assert np.linalg.norm(c.position[-1] - c.position[0]) <= 1e-5
    assert_valid_curve(c)


def test_plane_square_closes_exactly():
    jumps = tuple(Jump(float(i), math.pi / 2) for i in (1, 2, 3))
    c = reconstruct_plane(CurvatureProfile(4.0, constant_curvature(0.0), jumps))
    assert np.linalg.norm(c.position[-1] - c.position[0]) <= 1e-9
    assert len(c.jump_marks) == 3
    for i in c.jump_marks:
        assert c.s[i] == c.s[i + 1]
        assert np.array_equal(c.position[i], c.position[i + 1])


def test_plane_semicircle_chord():
    r = 0.7
    c = reconstruct_plane(CurvatureProfile(math.pi * r, constant_curvature(1.0 / r)))
    chord = np.linalg.norm(c.position[-1] - c.position[0])
    assert abs(chord - 2.0 * r) < 1e-5


def test_plane_theta_non_decreasing_for_convex(wobbly_plane_pi):
    theta = wobbly_plane_pi.theta
    assert np.all(np.diff(theta) >= -1e-12)
    assert abs(float(theta[-1] - theta[0]) - (math.pi - 0.15 * (math.cos(TWO_PI) - 1.0))) < 1e-6


# ---------------------------------------------------------------------------
# space reconstruction
# ---------------------------------------------------------------------------

def test_frenet_helix_curvature():
    # a = b = 1: curvature a/(a^2+b^2) = 1/2, torsion 1/2
    c = reconstruct_space_profile(
        CurvatureProfile(math.pi, constant_curvature(0.5)), constant_curvature(0.5)
    )
    k = curvature_magnitude(c)
    assert np.max(np.abs(k - 0.5)) < 1e-5
    assert_valid_curve(c)


def test_frenet_zero_torsion_is_planar():
    c = reconstruct_space_profile(
        CurvatureProfile(TWO_PI, constant_curvature(1.0)), constant_curvature(0.0)
    )
    assert np.ptp(c.position[:, 2]) < 1e-6
    assert np.linalg.norm(c.position[-1] - c.position[0]) < 1e-5


def test_frenet_zero_curvature_is_straight():
    length = 2.5
    c = reconstruct_space_profile(
        CurvatureProfile(length, constant_curvature(0.0)), constant_curvature(0.3)
    )
    assert abs(np.linalg.norm(c.position[-1] - c.position[0]) - length) < 1e-9


def test_frenet_frame_stays_orthonormal():
    k = sinusoidal_curvature(0.8, 0.5, 2.0)
    tau = sinusoidal_curvature(0.2, 0.4, 3.0)

    from schurkit.numerics import rk4_frames
    from schurkit.curves import _frenet_project

    def generator(s):
        return {(0, 1): 1.0, (1, 2): k(s), (2, 1): -k(s), (2, 3): tau(s), (3, 2): -tau(s)}

    y0 = np.concatenate([np.zeros((1, 3)), np.eye(3)])
    _, frames = rk4_frames(generator, _frenet_project, y0, (0.0, 3.0))
    gram = np.einsum("nij,nkj->nik", frames[:, 1:], frames[:, 1:])
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-9


def test_space_profile_jump_needs_direction():
    prof = CurvatureProfile(2.0, constant_curvature(0.0), (Jump(1.0, 0.5),), convex=False)
    with pytest.raises(ProfileError):
        reconstruct_space_profile(prof, constant_curvature(0.0))


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_jump_rotation_rotates_whole_frame():
    t = np.array([1.0, 0.0, 0.0])
    rot = jump_rotation(t, 0.4, np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12
    # a direction not orthogonal to the tangent: the tangent still turns by alpha
    out = jump_rotation(t, math.pi / 3, np.array([0.3, 0.9, 0.1])) @ t
    assert abs(math.acos(float(np.clip(t @ out, -1.0, 1.0))) - math.pi / 3) < 1e-9


# ---------------------------------------------------------------------------
# turning and budget
# ---------------------------------------------------------------------------

def _budget(profile):
    """The turning-budget rule's (total, passed, slack), read off the reconstructed theta."""
    return turning_budget(reconstruct_plane(profile).theta, 1e-6)


def test_total_turning_circle():
    p = CurvatureProfile(TWO_PI, constant_curvature(1.0))
    assert abs(_budget(p)[0] - TWO_PI) < 1e-8


def test_total_turning_square_exact():
    # closed square traversal starting mid-side: four interior right angles
    jumps = tuple(Jump(x, math.pi / 2) for x in (0.5, 1.5, 2.5, 3.5))
    p = CurvatureProfile(4.0, constant_curvature(0.0), jumps)
    assert _budget(p)[0] == TWO_PI


def test_total_turning_arc_plus_jump():
    p = CurvatureProfile(math.pi / 2, constant_curvature(1.0), (Jump(0.7, math.pi / 4),))
    assert abs(_budget(p)[0] - 3.0 * math.pi / 4.0) < 1e-8


def test_budget_circle():
    _, passed, slack = _budget(CurvatureProfile(TWO_PI, constant_curvature(1.0)))
    assert passed
    assert abs(slack) < 1e-8


def test_budget_overturned():
    _, passed, slack = _budget(CurvatureProfile(3.0 * math.pi, constant_curvature(1.0)))
    assert not passed
    assert slack < -math.pi + 1e-8


def test_budget_semicircle_with_jumps():
    jumps = (Jump(1.0, math.pi / 4), Jump(2.0, math.pi / 4))
    _, passed, slack = _budget(CurvatureProfile(math.pi, constant_curvature(1.0), jumps))
    assert passed
    assert abs(slack - math.pi / 2) < 1e-8


# ---------------------------------------------------------------------------
# curvature measurement
# ---------------------------------------------------------------------------

def test_curvature_circle():
    r = 2.0
    c = reconstruct_plane(CurvatureProfile(math.pi * r, constant_curvature(1.0 / r)))
    k = curvature_magnitude(c)
    assert np.max(np.abs(k - 1.0 / r)) < 1e-4


def test_curvature_straight_line():
    c = reconstruct_plane(CurvatureProfile(2.0, constant_curvature(0.0)))
    assert np.max(np.abs(curvature_magnitude(c))) < 1e-6


def test_curvature_helix(helix_pi):
    k = curvature_magnitude(helix_pi)
    assert np.max(np.abs(k - 0.5)) < 1e-4


def test_curvature_masked_at_jumps(corner_pair):
    c, _ = corner_pair
    k = curvature_magnitude(c)
    jump_idx = c.nearest_row(1.0)
    assert math.isnan(k[jump_idx])
    finite = k[np.isfinite(k)]
    assert np.max(np.abs(finite)) < 1e-6


def test_roundtrip_smooth_curvature():
    k = sinusoidal_curvature(0.5, 0.3)
    c = reconstruct_plane(CurvatureProfile(math.pi, k))
    measured = curvature_magnitude(c)
    expect = np.asarray(k(c.s))
    assert np.max(np.abs(measured - expect)) < 2e-4


def test_embed_plane_curve_is_isometric(circle_pi):
    e = embed_plane_curve(circle_pi)
    assert e.dim == 3
    d2 = np.linalg.norm(np.diff(circle_pi.position, axis=0), axis=1)
    d3 = np.linalg.norm(np.diff(e.position, axis=0), axis=1)
    assert np.max(np.abs(d2 - d3)) < 1e-14


def test_segments_and_grid_shape(corner_pair):
    c, ct = corner_pair
    assert np.array_equal(c.jump_marks, ct.jump_marks)
    assert np.max(np.abs(c.s - ct.s)) == 0.0
    segs = c.segments()
    assert len(segs) == 2
    assert segs[0].stop == segs[1].start


def test_nearest_row_resolves_jump_rows(corner_pair):
    c, _ = corner_pair
    i = int(c.jump_marks[0])
    assert c.nearest_row(1.0, side="minus") == i
    assert c.nearest_row(1.0, side="plus") == i + 1
    assert c.nearest_row(1.0 + 1e-7, side="plus") == i + 1


def _brute_nearest_row(s, value, side):
    """Nearest sample by exhaustive search (lowest row on a tie), then the first
    (minus) or last (plus) row sharing its s."""
    rows = np.flatnonzero(s == s[int(np.argmin(np.abs(s - value)))])
    return int(rows[-1] if side == "plus" else rows[0])


def test_nearest_row_of_an_array_matches_scalar_lookups():
    # jump rows 2, 3 at s = 1 and 6, 7 at s = 3; uneven spacing elsewhere
    s = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.5, 3.0, 3.0, 4.0])
    c = SampledCurve(s, np.zeros((len(s), 2)), np.tile([1.0, 0.0], (len(s), 1)), [2, 6])
    ties = (s[1:] + s[:-1]) / 2  # midpoints, the jump rows' own included
    values = np.concatenate([ties, s, [-1.0, -0.0, 0.3, 4.0 + 1e-9, 9.0, 1.0 - 1e-12, 3.0 + 1e-12]])
    for side in ("minus", "plus"):
        rows = c.nearest_row(values, side=side)
        assert rows.shape == values.shape
        scalar = [c.nearest_row(float(v), side=side) for v in values]
        assert all(type(r) is int for r in scalar)
        assert rows.tolist() == scalar == [_brute_nearest_row(s, v, side) for v in values]
        assert c.nearest_row(values.reshape(3, -1), side=side).tolist() == rows.reshape(3, -1).tolist()
    assert c.nearest_row(np.array([1.0, 3.0]), side="minus").tolist() == [2, 6]
    assert c.nearest_row(np.array([1.0, 3.0]), side="plus").tolist() == [3, 7]
    assert c.nearest_row(np.array([0.75, 1.25]), side="plus").tolist() == [1, 3]  # ties go low


def test_coarse_control_still_valid():
    ctl = StepControl(step_h=1e-2)
    c = reconstruct_plane(CurvatureProfile(math.pi, constant_curvature(1.0)), control=ctl)
    assert_valid_curve(c, tol_tangent=1e-3)


def test_tangent_angle_total_matches_profile():
    jumps = (Jump(0.9, 0.4), Jump(1.8, 0.3))
    profile = CurvatureProfile(math.pi, sinusoidal_curvature(0.8, 0.2), jumps)
    c = reconstruct_plane(profile)
    # the integral of 0.8 + 0.2 sin s over [0, pi], plus the jump angles
    assert abs(float(c.theta[-1] - c.theta[0]) - (0.8 * math.pi + 0.4 + 0.7)) < 1e-6
    assert np.all(np.diff(c.theta) >= -1e-12)


def _cells(c):
    """Left rows of the smooth cells [row, row + 1] (no jump row pair)."""
    rows = np.arange(len(c.s) - 1)
    return rows[c.s[rows + 1] > c.s[rows]]


def test_plane_extension_reproduces_the_grid():
    profile = CurvatureProfile(2.0, sinusoidal_curvature(1.0, 0.3, 2.0), (Jump(0.7, 0.4),))
    c = reconstruct_plane(profile)
    rows = _cells(c)
    assert np.array_equal(c.between(rows, c.s[rows]), c.theta[rows])
    step = c.between(rows, c.s[rows + 1])
    assert np.all(np.abs(step - c.theta[rows + 1]) <= 4 * np.spacing(np.abs(c.theta[rows + 1])))
    embedded = embed_plane_curve(c)
    assert np.array_equal(embedded.between(rows, c.s[rows]), c.theta[rows])
    assert np.array_equal(embedded.tangent_between(rows, c.s[rows]), embedded.tangent[rows])


def test_space_extension_reproduces_the_grid():
    profile = CurvatureProfile(2.0, sinusoidal_curvature(0.8, 0.3, 2.0),
                               (Jump(0.9, 0.5, (0.0, 0.0, 1.0)),), convex=False)
    ct = reconstruct_space_profile(profile, linear_curvature(0.3, 0.4))
    rows = _cells(ct)
    assert np.array_equal(ct.tangent_between(rows, ct.s[rows]), ct.tangent[rows])
    assert np.max(np.abs(ct.tangent_between(rows, ct.s[rows + 1]) - ct.tangent[rows + 1])) < 1e-12


def test_curve_built_by_hand_has_no_extension():
    s = np.linspace(0.0, 1.0, 11)
    c = SampledCurve(s, np.zeros((11, 2)), np.tile([1.0, 0.0], (11, 1)), theta=np.zeros(11))
    with pytest.raises(ProfileError, match="no extension between its rows"):
        c.between(np.array([3]), np.array([0.35]))


def test_replaced_copy_has_no_extension():
    from schurkit.schur import ComparisonPair
    from schurkit.sphere import reconstruct_spherical

    profile = CurvatureProfile(2.0, sinusoidal_curvature(1.0, 0.3, 2.0), (Jump(0.7, 0.4),))
    c = reconstruct_plane(profile)
    ct = embed_plane_curve(reconstruct_plane(profile))
    window = (0.31, 1.87)
    reference = ComparisonPair(c, ct).window(window)
    assert reference.s_star != c.s[reference.index]  # the pivot lies off the grid
    copies = {
        "theta": (ComparisonPair(replace(c, theta=c.theta + 0.0), ct), c),
        "position": (ComparisonPair(c, replace(ct, position=ct.position + 0.0)), ct),
    }
    for name, (pair, original) in copies.items():
        changed = pair.c if original is c else pair.c_tilde
        with pytest.raises(ProfileError, match="no extension between its rows"):
            pair.window(window)
        changed.between = original.between  # attached explicitly: the rows are unchanged
        assert pair.window(window).s_star == reference.s_star, name
    sphere = reconstruct_spherical(sinusoidal_curvature(0.5, 0.3), ((1.1, 0.4),), 2.5)
    copy = replace(sphere, tangent=sphere.tangent + 0.0)
    rows, x = np.array([5]), np.array([0.5 * (sphere.s[5] + sphere.s[6])])
    for extension in (copy.between, copy.frames_between):
        with pytest.raises(ProfileError, match="no extension between its rows"):
            extension(rows, x)


# ---------------------------------------------------------------------------
# the row layout: every per-row measurement lives on the curve's own rows
# ---------------------------------------------------------------------------

def _check_rows(c, measurements):
    """Each measurement has one entry per row, NaN on both rows of every jump
    and finite elsewhere."""
    jump_rows = np.zeros(len(c.s), dtype=bool)
    jump_rows[c.jump_marks] = jump_rows[c.jump_marks + 1] = True
    for name, values in measurements.items():
        assert values.shape == (len(c.s),), name
        assert np.array_equal(~np.isfinite(values), jump_rows), name


def _argmin_s(c, k, k_tilde):
    return float(c.s[np.nanargmin(k - np.abs(k_tilde))])


def test_row_layout_plane_and_space():
    from schurkit.schur import hypothesis_census

    c = reconstruct_plane(CurvatureProfile(
        2.0, sinusoidal_curvature(1.0, 0.3, 2.0), (Jump(0.7, 0.5),)))
    ct = reconstruct_space_profile(
        CurvatureProfile(2.0, sinusoidal_curvature(0.5, 0.2, 3.0),
                         (Jump(0.7, 0.3, (0.0, 0.0, 1.0)),), convex=False),
        linear_curvature(0.3, 0.4))
    k, k_tilde = curvature_magnitude(c), curvature_magnitude(ct)
    assert len(c.jump_marks) == 1
    _check_rows(c, {"k": k, "k_tilde": k_tilde})
    dominance = hypothesis_census(c, ct).get("curvature_dominance")
    assert dominance.location == _argmin_s(c, k, k_tilde)


def test_row_layout_sphere():
    from schurkit.sphere import (
        auto_projection_config,
        geodesic_curvature_of,
        project_pair,
        reconstruct_spherical,
        spherical_schur_verify,
    )

    c = reconstruct_spherical(sinusoidal_curvature(1.0, 0.3), ((0.7, 0.4),), 1.5)
    ct = reconstruct_spherical(sinusoidal_curvature(0.4, 0.3), ((0.7, 0.2),), 1.5)
    pair = project_pair(c, ct, auto_projection_config(c))
    _check_rows(c, {"kg": c.geodesic_curvature, "kg_measured": geodesic_curvature_of(c),
                    "k_plane": pair.plane_curvature, "k_space": pair.space_curvature})
    for name in ("R", "tau"):
        values = getattr(pair, name)
        assert values.shape == (len(c.s),) and np.isfinite(values).all(), name
        assert np.array_equal(values[c.jump_marks], values[c.jump_marks + 1]), name
    census = spherical_schur_verify(c, ct).census
    assert census.get("projected_curvature_dominance").location == _argmin_s(
        c, pair.plane_curvature, pair.space_curvature)
    assert census.get("geodesic_curvature_dominance").location == _argmin_s(
        c, c.geodesic_curvature, ct.geodesic_curvature)


def test_row_layout_minkowski():
    from schurkit.minkowski import (
        reconstruct_timelike_2d,
        reconstruct_timelike_3d,
        timelike_census,
        timelike_curvature,
    )

    c = reconstruct_timelike_2d(sinusoidal_curvature(1.0, 0.2), 1.0)
    ct = reconstruct_timelike_3d(sinusoidal_curvature(0.5, 0.2, 2.0), linear_curvature(0.0, 1.0),
                                 1.0)
    k, k_tilde = timelike_curvature(c), timelike_curvature(ct)
    _check_rows(c, {"k": k, "k_tilde": k_tilde})
    dominance = timelike_census(c, ct).get("curvature_dominance")
    assert dominance.location == _argmin_s(c, k, k_tilde)


def test_projected_arclength_refuses_a_degenerate_scaling():
    from schurkit.errors import DegenerateSpeedError
    from schurkit.sphere import projected_arclength, reconstruct_spherical

    c = reconstruct_spherical(constant_curvature(0.5), ((0.7, 0.4),), 1.5)
    with pytest.raises(DegenerateSpeedError, match="not strictly increasing"):
        projected_arclength(c, np.zeros(len(c.s)))
    tau = projected_arclength(c, np.ones(len(c.s)))  # the jump's repeated tau is not a stall
    assert np.array_equal(tau[c.jump_marks], tau[c.jump_marks + 1])
