import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurkit.curves import (
    CurvatureProfile,
    Jump,
    SampledCurve,
    apply_jump,
    check_convex_budget,
    constant_curvature,
    curvature_magnitude,
    embed_plane_curve,
    jump_rotation,
    linear_curvature,
    reconstruct_plane,
    reconstruct_space_frenet,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
    total_turning,
)
from schurkit.errors import JumpAngleError, ProfileError
from schurkit.numerics import StepControl

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


def test_profile_flags_tangent_reversal():
    p = CurvatureProfile(2.0, constant_curvature(0.0), (Jump(1.0, math.pi),))
    assert p.has_tangent_reversal


def test_tabulated_curvature_interpolates():
    k = tabulated_curvature([[0.0, 1.0], [1.0, 3.0]])
    assert abs(float(k(0.5)) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# plane reconstruction
# ---------------------------------------------------------------------------

def test_plane_circle_closes():
    c = reconstruct_plane(CurvatureProfile(TWO_PI, constant_curvature(1.0)))
    assert np.linalg.norm(c.position[-1] - c.position[0]) <= 1e-5
    c.validate()


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
    c = reconstruct_space_frenet(constant_curvature(0.5), constant_curvature(0.5), math.pi)
    k = curvature_magnitude(c)
    assert np.max(np.abs(k.values - 0.5)) < 1e-5
    c.validate()


def test_frenet_zero_torsion_is_planar():
    c = reconstruct_space_frenet(constant_curvature(1.0), constant_curvature(0.0), TWO_PI)
    assert np.ptp(c.position[:, 2]) < 1e-6
    assert np.linalg.norm(c.position[-1] - c.position[0]) < 1e-5


def test_frenet_zero_curvature_is_straight():
    length = 2.5
    c = reconstruct_space_frenet(constant_curvature(0.0), constant_curvature(0.3), length)
    assert abs(np.linalg.norm(c.position[-1] - c.position[0]) - length) < 1e-9


def test_frenet_is_jump_free_profile():
    k, tau = sinusoidal_curvature(0.8, 0.5, 2.0), sinusoidal_curvature(0.2, 0.4, 3.0)
    a = reconstruct_space_frenet(k, tau, 2.5)
    b = reconstruct_space_profile(CurvatureProfile(2.5, k), tau)
    for name in ("s", "position", "tangent", "jump_marks"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_frenet_rejects_negative_curvature():
    with pytest.raises(ProfileError):
        reconstruct_space_frenet(constant_curvature(-0.1), constant_curvature(0.0), 1.0)


def test_frenet_frame_stays_orthonormal():
    k = sinusoidal_curvature(0.8, 0.5, 2.0)
    tau = sinusoidal_curvature(0.2, 0.4, 3.0)

    from schurkit.numerics import rk4_frames
    from schurkit.curves import _frenet_project

    def generator(s):
        return {(0, 1): 1.0, (1, 2): k(s), (2, 1): -k(s), (2, 3): tau(s), (3, 2): -tau(s)}

    y0 = np.concatenate([np.zeros((1, 3)), np.eye(3)])
    frames = rk4_frames(generator, _frenet_project, y0, (0.0, 3.0)).values
    gram = np.einsum("nij,nkj->nik", frames[:, 1:], frames[:, 1:])
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-9


def test_space_profile_jump_needs_direction():
    prof = CurvatureProfile(2.0, constant_curvature(0.0), (Jump(1.0, 0.5),), convex=False)
    with pytest.raises(ProfileError):
        reconstruct_space_profile(prof, constant_curvature(0.0))


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_apply_jump_identity():
    t = np.array([0.6, 0.8])
    assert np.allclose(apply_jump(t, 0.0), t)


def test_apply_jump_quarter_turn():
    out = apply_jump(np.array([1.0, 0.0]), math.pi / 2)
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_apply_jump_space_angle():
    t = np.array([1.0, 0.0, 0.0])
    out = apply_jump(t, math.pi / 3, np.array([0.3, 0.9, 0.1]))
    angle = math.acos(float(np.clip(t @ out, -1.0, 1.0)))
    assert abs(angle - math.pi / 3) < 1e-9


def test_apply_jump_range_check():
    with pytest.raises(JumpAngleError):
        apply_jump(np.array([1.0, 0.0]), 3.5)


def test_apply_jump_space_needs_direction():
    with pytest.raises(ProfileError):
        apply_jump(np.array([1.0, 0.0, 0.0]), 0.5)


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_apply_jump_preserves_norm(alpha, direction_angle):
    t = np.array([math.cos(direction_angle), math.sin(direction_angle)])
    out = apply_jump(t, alpha)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert abs(float(np.clip(t @ out, -1, 1)) - math.cos(alpha)) < 1e-12


def test_jump_rotation_rotates_whole_frame():
    t = np.array([1.0, 0.0, 0.0])
    rot = jump_rotation(t, 0.4, np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# turning and budget
# ---------------------------------------------------------------------------

def test_total_turning_circle():
    p = CurvatureProfile(TWO_PI, constant_curvature(1.0))
    assert abs(total_turning(p) - TWO_PI) < 1e-8


def test_total_turning_square_exact():
    # closed square traversal starting mid-side: four interior right angles
    jumps = tuple(Jump(x, math.pi / 2) for x in (0.5, 1.5, 2.5, 3.5))
    p = CurvatureProfile(4.0, constant_curvature(0.0), jumps)
    assert total_turning(p) == TWO_PI


def test_total_turning_arc_plus_jump():
    p = CurvatureProfile(math.pi / 2, constant_curvature(1.0), (Jump(0.7, math.pi / 4),))
    assert abs(total_turning(p) - 3.0 * math.pi / 4.0) < 1e-8


def test_budget_circle():
    res = check_convex_budget(CurvatureProfile(TWO_PI, constant_curvature(1.0)))
    assert res.passed
    assert abs(res.slack) < 1e-8


def test_budget_overturned():
    res = check_convex_budget(CurvatureProfile(3.0 * math.pi, constant_curvature(1.0)))
    assert not res.passed
    assert res.slack < -math.pi + 1e-8


def test_budget_semicircle_with_jumps():
    jumps = (Jump(1.0, math.pi / 4), Jump(2.0, math.pi / 4))
    res = check_convex_budget(CurvatureProfile(math.pi, constant_curvature(1.0), jumps))
    assert res.passed
    assert abs(res.slack - math.pi / 2) < 1e-8


def test_budget_requires_convex_flag():
    p = CurvatureProfile(1.0, constant_curvature(1.0), convex=False)
    with pytest.raises(ProfileError):
        check_convex_budget(p)


# ---------------------------------------------------------------------------
# curvature measurement
# ---------------------------------------------------------------------------

def test_curvature_circle():
    r = 2.0
    c = reconstruct_plane(CurvatureProfile(math.pi * r, constant_curvature(1.0 / r)))
    k = curvature_magnitude(c)
    assert np.max(np.abs(k.values - 1.0 / r)) < 1e-4


def test_curvature_straight_line():
    c = reconstruct_plane(CurvatureProfile(2.0, constant_curvature(0.0)))
    assert np.max(np.abs(curvature_magnitude(c).values)) < 1e-6


def test_curvature_helix(helix_pi):
    k = curvature_magnitude(helix_pi)
    assert np.max(np.abs(k.values - 0.5)) < 1e-4


def test_curvature_masked_at_jumps(corner_pair):
    c, _ = corner_pair
    k = curvature_magnitude(c)
    jump_idx = k.index_of(1.0)
    assert math.isnan(k.values[jump_idx])
    finite = k.values[np.isfinite(k.values)]
    assert np.max(np.abs(finite)) < 1e-6
    # collapsed grid is strictly increasing
    assert np.all(np.diff(k.s_grid) > 0)


def test_roundtrip_smooth_curvature():
    k = sinusoidal_curvature(0.5, 0.3)
    c = reconstruct_plane(CurvatureProfile(math.pi, k))
    measured = curvature_magnitude(c)
    expect = np.asarray(k(measured.s_grid))
    assert np.max(np.abs(measured.values - expect)) < 2e-4


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


def test_single_rows_expand_roundtrip(corner_pair):
    c, _ = corner_pair
    keep = c.single_rows
    assert int(keep.sum()) == len(c.s) - len(c.jump_marks)
    assert not keep[c.jump_marks + 1].any()
    for values in c.position.T:
        assert np.array_equal(c.expand(values[keep]), values)


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
    c.validate(tol_tangent=1e-3)


def test_tangent_angle_total_matches_profile():
    jumps = (Jump(0.9, 0.4), Jump(1.8, 0.3))
    profile = CurvatureProfile(math.pi, sinusoidal_curvature(0.8, 0.2), jumps)
    c = reconstruct_plane(profile)
    assert abs(float(c.theta[-1] - c.theta[0]) - total_turning(profile)) < 1e-6
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
