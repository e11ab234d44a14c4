import dataclasses
import math

import numpy as np
import pytest

from schurkit.curves import SampledCurve, constant_curvature, sinusoidal_curvature
from schurkit.errors import (
    DegenerateTriangleError,
    HypothesisViolationError,
    NormalizationError,
    ProfileError,
    ProjectionError,
)
from schurkit.numerics import finite_diff_array, grid_step
from schurkit.sphere import (
    ProjectionConfig,
    auto_projection_config,
    geodesic_curvature_of,
    hinge_compare,
    jump_angle_transform,
    project_pair,
    projected_arclength,
    reconstruct_spherical,
    rotate_spherical,
    space_curvature,
    spherical_schur_verify,
)
from conftest import closed_form_cross_norm, random_rotation

RHO = math.pi / 4  # colatitude of the kg = 1 latitude circle


def latitude_axis() -> np.ndarray:
    # starting frame c=(1,0,0), T=(0,1,0), V=(0,0,1): the kg=cot(rho) circle
    # winds around cos(rho) c0 + sin(rho) V0
    return np.array([math.cos(RHO), 0.0, math.sin(RHO)])


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_geodesic_half_great_circle():
    c = reconstruct_spherical(constant_curvature(0.0), (), math.pi)
    assert np.linalg.norm(c.position[-1] + c.position[0]) < 1e-5


def test_latitude_circle_constant_height():
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    heights = c.position @ latitude_axis()
    assert np.max(np.abs(heights - math.cos(RHO))) < 1e-5


def test_polygon_arm_jump_angle():
    alpha = 0.8
    c = reconstruct_spherical(constant_curvature(0.0), ((1.0, alpha),), 2.0)
    i = c.jump_marks[0]
    measured = math.acos(float(np.clip(c.tangent[i] @ c.tangent[i + 1], -1, 1)))
    assert abs(measured - alpha) < 1e-6


def test_frame_conservation():
    c = reconstruct_spherical(sinusoidal_curvature(0.5, 0.3), (), math.pi)
    assert c.frame_drift() <= 1e-9


def test_sphere_extension_reproduces_the_grid():
    c = reconstruct_spherical(sinusoidal_curvature(0.5, 0.3), ((1.1, 0.4),), 2.5)
    rows = np.arange(len(c.s) - 1)
    rows = rows[c.s[rows + 1] > c.s[rows]]  # smooth cells only
    stored = np.stack([c.position, c.tangent, c.normal], axis=1)
    assert np.array_equal(c.frames_between(rows, c.s[rows]), stored[rows])
    assert np.array_equal(c.between(rows, c.s[rows]), c.tangent[rows])
    assert np.max(np.abs(c.frames_between(rows, c.s[rows + 1]) - stored[rows + 1])) < 1e-12
    turned = rotate_spherical(c, random_rotation(np.random.default_rng(5)))
    assert np.max(np.abs(turned.tangent_between(rows, c.s[rows]) - turned.tangent[rows])) < 1e-15


def _unit_steps(n):
    p = np.zeros((n, 3, 3))
    p[:, range(3), range(3)] = 1.0
    return p


def test_step_drift_check_names_the_first_offending_step():
    import schurkit.sphere as sphere
    from schurkit.errors import IntegrationError

    s_end = 0.1 * np.arange(1, 9)
    p = _unit_steps(8)
    p[2, 1, 0] = 5e-7  # <c, T> of the stepped frame: within the bound
    sphere._sphere_step_drift(s_end, p)
    p[4, 1, 0], p[6, 1, 0] = 2e-6, 3e-6
    with pytest.raises(IntegrationError, match=r"frame drift 2e-06 at s=0\.5 exceeds 1e-6"):
        sphere._sphere_step_drift(s_end, p)


def test_length_cap():
    with pytest.raises(ProfileError):
        reconstruct_spherical(constant_curvature(0.0), (), 3.5)


def test_bad_initial_frame():
    with pytest.raises(NormalizationError):
        reconstruct_spherical(
            constant_curvature(0.0), (), 1.0,
            (np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.0])),
        )


# ---------------------------------------------------------------------------
# geodesic curvature measurement
# ---------------------------------------------------------------------------

def test_geodesic_curvature_great_circle():
    c = reconstruct_spherical(constant_curvature(0.0), (), 2.0)
    assert np.max(np.abs(geodesic_curvature_of(c))) < 1e-4


def test_geodesic_curvature_latitude():
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    k = geodesic_curvature_of(c)
    assert np.max(np.abs(k - 1.0)) < 1e-3


def test_geodesic_curvature_roundtrip():
    kg = sinusoidal_curvature(0.5, 0.3)
    c = reconstruct_spherical(kg, (), math.pi)
    measured = geodesic_curvature_of(c)
    expect = np.asarray(kg(c.s))
    assert np.max(np.abs(measured - expect)) < 2e-4


# ---------------------------------------------------------------------------
# cone projection
# ---------------------------------------------------------------------------

def cone_section(c, cfg):
    """R on c's rows and the section R c, read off c's projected self-pair."""
    pair = project_pair(c, c, cfg)
    return pair.R, pair.plane_curve


def test_cone_project_latitude_circle():
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    cfg = ProjectionConfig(tuple(latitude_axis()), 1.0)
    r, p = cone_section(c, cfg)
    assert np.max(np.abs(r - 1.0 / math.cos(RHO))) < 1e-5
    radii = np.linalg.norm(p.position - cfg.normal[None, :], axis=1)
    assert np.max(np.abs(radii - math.tan(RHO))) < 1e-5


def test_cone_project_stays_in_plane():
    c = reconstruct_spherical(sinusoidal_curvature(0.9, 0.4), (), 1.5)
    cfg = auto_projection_config(c)
    r, p = cone_section(c, cfg)
    heights = p.position @ cfg.normal
    assert np.max(np.abs(heights - cfg.d)) < 1e-9


def test_cone_project_fixed_point_case():
    # plane offset equal to the constant height: R is identically 1
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    cfg = ProjectionConfig(tuple(latitude_axis()), math.cos(RHO), epsilon_min=0.05)
    r, p = cone_section(c, cfg)
    assert np.max(np.abs(r - 1.0)) < 1e-9
    assert np.max(np.abs(p.position - c.position)) < 1e-9


def test_cone_project_great_arc_pointwise():
    c = reconstruct_spherical(constant_curvature(0.0), (), 1.2)
    u = np.array([0.2, 0.3, 0.95])
    u /= np.linalg.norm(u)
    cfg = ProjectionConfig(tuple(u), 1.0)
    r, _ = cone_section(c, cfg)
    expect = 1.0 / (c.position @ u)
    assert np.max(np.abs(r - expect)) < 1e-9


def test_cone_project_horizon_refused():
    c = reconstruct_spherical(constant_curvature(0.0), (), math.pi)
    with pytest.raises(ProjectionError) as err:
        cone_section(c, ProjectionConfig((1.0, 0.0, 0.0), 1.0))
    assert "s=" in str(err.value)


def test_auto_projection_refuses_long_great_arc():
    # both candidate planes (mean direction, midpoint) see the ends of a
    # length-3 great arc below epsilon_min
    c = reconstruct_spherical(constant_curvature(0.0), (), 3.0)
    with pytest.raises(ProjectionError, match="no admissible projection plane"):
        auto_projection_config(c)


# ---------------------------------------------------------------------------
# companion projection
# ---------------------------------------------------------------------------

def test_companion_matches_primary_projection():
    c = reconstruct_spherical(sinusoidal_curvature(0.9, 0.3), (), 1.5)
    cfg = auto_projection_config(c)
    pair = project_pair(c, c, cfg)
    p, q = pair.plane_curve, pair.space_curve
    assert np.max(np.abs(q.position - p.position)) < 1e-9
    assert np.max(np.abs(q.tangent - p.tangent)) < 1e-9


def test_companion_constant_scaling():
    # a latitude circle has constant height <c, u> = cos(rho) about its axis, so
    # the plane <x, u> = rho0 cos(rho) scales it by R = rho0 everywhere
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    rho0 = 1.7
    cfg = ProjectionConfig(tuple(latitude_axis()), rho0 * math.cos(RHO))
    q = project_pair(c, c, cfg).space_curve
    assert np.max(np.abs(q.position - rho0 * c.position)) < 1e-12
    # measured speed is rho0 everywhere
    h = grid_step(q.s)
    vel = finite_diff_array(q.position, h, 1)
    assert np.max(np.abs(np.linalg.norm(vel, axis=1) - rho0)) < 1e-4


def test_speed_identity_both_curves():
    c = reconstruct_spherical(sinusoidal_curvature(1.0, 0.5), (), 1.5)
    ct = reconstruct_spherical(sinusoidal_curvature(0.4, 0.3), (), 1.5)
    cfg = auto_projection_config(c)
    pair = project_pair(c, ct, cfg)
    assert pair.speed_identity_error <= 1e-6


def test_project_pair_curves_match_front_doors(sphere_polygon_pair):
    arm, arm_t = sphere_polygon_pair
    cfg = auto_projection_config(arm)
    pair = project_pair(arm, arm_t, cfg)
    r, plane = cone_section(arm, cfg)
    assert len(arm.jump_marks) == 2
    assert np.array_equal(pair.plane_curve.position, plane.position)
    assert np.array_equal(pair.plane_curve.tangent, plane.tangent)
    assert np.array_equal(pair.R, r)
    assert np.array_equal(pair.space_curve.position, r[:, None] * arm_t.position)


# ---------------------------------------------------------------------------
# projected arc length
# ---------------------------------------------------------------------------

def _grid_curve(s: np.ndarray) -> SampledCurve:
    """A jump-free curve on the rows ``s`` (only its grid is read)."""
    return SampledCurve(s, np.zeros((len(s), 3)), np.zeros((len(s), 3)))


def test_projected_arclength_identity():
    s = np.linspace(0.0, 2.0, 2001)
    tau = projected_arclength(_grid_curve(s), np.ones_like(s))
    assert np.max(np.abs(tau - s)) < 1e-12


def test_projected_arclength_scaling():
    rho0 = 2.5
    s = np.linspace(0.0, 2.0, 2001)
    tau = projected_arclength(_grid_curve(s), np.full_like(s, rho0))
    assert np.max(np.abs(tau - rho0 * s)) < 1e-10


def test_projected_arclength_matches_polyline():
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    cfg = ProjectionConfig(tuple(latitude_axis()), 1.0)
    r, p = cone_section(c, cfg)
    tau = projected_arclength(c, r)
    poly = float(np.sum(np.linalg.norm(np.diff(p.position, axis=0), axis=1)))
    assert abs(tau[-1] - poly) < 1e-5
    assert np.all(np.diff(tau) > 0)


# ---------------------------------------------------------------------------
# space curvature
# ---------------------------------------------------------------------------

def _synthetic_curve(position: np.ndarray, s: np.ndarray) -> SampledCurve:
    h = s[1] - s[0]
    vel = finite_diff_array(position, h, 1)
    tangent = vel / np.linalg.norm(vel, axis=1)[:, None]
    return SampledCurve(s, position, tangent)


def test_space_curvature_circle_any_speed():
    r = 1.6
    u = np.linspace(0.0, 2.0, 4001)
    phi = u + 0.3 * np.sin(u)  # non-uniform speed along the same circle
    pos = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.zeros_like(phi)])
    k = space_curvature(_synthetic_curve(pos, u))
    assert np.max(np.abs(k - 1.0 / r)) < 1e-3


def test_space_curvature_line_variable_speed():
    u = np.linspace(0.0, 1.0, 2001)
    direction = np.array([1.0, 2.0, 0.5]) / math.sqrt(5.25)
    pos = np.outer(u + 0.2 * u**2, direction)
    k = space_curvature(_synthetic_curve(pos, u))
    assert np.max(np.abs(k)) < 1e-6


def test_space_curvature_helix(helix_pi):
    k = space_curvature(helix_pi)
    assert np.max(np.abs(k - 0.5)) < 1e-3


# ---------------------------------------------------------------------------
# closed-form cross norm
# ---------------------------------------------------------------------------

def test_cross_norm_geodesic_constant_r():
    rho0 = 1.3
    assert abs(closed_form_cross_norm(rho0, 0.0, 0.0, 0.0) - rho0**4) < 1e-12


def test_cross_norm_identity_projection():
    # R = 1: |P' x P''|^2 = k^2 + 1, matching |T'|^2 = k^2 + 1 on the sphere
    for k in (0.0, 0.5, 1.4):
        assert abs(closed_form_cross_norm(1.0, 0.0, 0.0, k) - (k * k + 1.0)) < 1e-12


def test_cross_norm_matches_finite_differences():
    kg = sinusoidal_curvature(0.8, 0.4, 1.3, 0.2)
    c = reconstruct_spherical(kg, (), 2.0)
    cfg = auto_projection_config(c)
    r, p = cone_section(c, cfg)
    h = grid_step(c.s)
    rp = finite_diff_array(r, h, 1)
    rpp = finite_diff_array(r, h, 2)
    d1 = finite_diff_array(p.position, h, 1)
    d2 = finite_diff_array(p.position, h, 2)
    cross_sq = np.einsum("ij,ij->i", np.cross(d1, d2), np.cross(d1, d2))
    closed = closed_form_cross_norm(r, rp, rpp, np.asarray(kg(c.s)))
    interior = slice(4, -4)
    rel = np.abs(closed[interior] - cross_sq[interior]) / np.abs(cross_sq[interior])
    assert np.max(rel) < 1e-4


def test_cross_norm_coefficient_choice():
    # the doubled R R'' bracket candidate disagrees with finite differences
    kg = sinusoidal_curvature(0.8, 0.4, 1.3, 0.2)
    c = reconstruct_spherical(kg, (), 2.0)
    cfg = auto_projection_config(c)
    r, p = cone_section(c, cfg)
    h = grid_step(c.s)
    rp = finite_diff_array(r, h, 1)
    rpp = finite_diff_array(r, h, 2)
    d1 = finite_diff_array(p.position, h, 1)
    d2 = finite_diff_array(p.position, h, 2)
    cross_sq = np.einsum("ij,ij->i", np.cross(d1, d2), np.cross(d1, d2))
    kgv = np.asarray(kg(c.s))
    doubled = (r**4 + (rp * r) ** 2) * kgv**2 + (
        2.0 * rp**2 - 2.0 * r * rpp + r**2
    ) ** 2
    interior = slice(4, -4)
    rel = np.abs(doubled[interior] - cross_sq[interior]) / np.abs(cross_sq[interior])
    assert np.max(rel) > 1e-2  # clearly wrong, not a tolerance artifact


# ---------------------------------------------------------------------------
# curvature dominance
# ---------------------------------------------------------------------------

def _projected_dominance(c, ct):
    """The projected pair's curvature-dominance census entry (auto plane)."""
    return spherical_schur_verify(c, ct).census.get("projected_curvature_dominance")


def test_dominance_equal_curves():
    c = reconstruct_spherical(constant_curvature(0.8), (), 1.5)
    entry = _projected_dominance(c, c)
    assert entry.passed
    assert abs(entry.worst_slack) < 1e-9


def test_dominance_small_vs_great(sphere_small_great):
    entry = _projected_dominance(*sphere_small_great)
    assert entry.passed
    assert entry.worst_slack >= -1e-4


def test_dominance_sinusoidal_companion():
    c = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    ct = reconstruct_spherical(sinusoidal_curvature(0.0, 0.8), (), 2.0)
    entry = _projected_dominance(c, ct)
    assert entry.passed
    assert entry.worst_slack >= -1e-4


def test_convexity_transfer():
    c = reconstruct_spherical(sinusoidal_curvature(1.0, 0.6), (), 1.8)
    cfg = auto_projection_config(c)
    pair = project_pair(c, c, cfg)
    finite = pair.plane_curvature[np.isfinite(pair.plane_curvature)]
    assert np.min(finite) >= -1e-6


# ---------------------------------------------------------------------------
# jump angle transform
# ---------------------------------------------------------------------------

def test_jump_transform_critical_r():
    alpha = 0.9
    assert abs(jump_angle_transform(0.0, 0.0, 1.7, alpha) - alpha) < 1e-15


def test_jump_transform_no_jump():
    assert abs(jump_angle_transform(0.4, 0.4, 1.2, 0.0)) < 1e-12


def test_jump_transform_matches_direct_tangents():
    # direct oracle: angle between P'(-) = R'(-) c + R T(-) and the plus side
    rng = np.random.default_rng(5)
    for _ in range(200):
        rm, rp = rng.uniform(-1.5, 1.5, size=2)
        r = rng.uniform(0.3, 2.5)
        alpha = rng.uniform(0.0, math.pi)
        c = np.array([0.0, 0.0, 1.0])
        t_minus = np.array([1.0, 0.0, 0.0])
        t_plus = np.array([math.cos(alpha), math.sin(alpha), 0.0])
        v_minus = rm * c + r * t_minus
        v_plus = rp * c + r * t_plus
        direct = math.acos(
            float(np.clip(v_minus @ v_plus / (np.linalg.norm(v_minus) * np.linalg.norm(v_plus)), -1, 1))
        )
        assert abs(jump_angle_transform(rm, rp, r, alpha) - direct) < 1e-12


def test_jump_transform_measured_on_projection(sphere_polygon_pair):
    arm, _ = sphere_polygon_pair
    cfg = auto_projection_config(arm)
    pair = project_pair(arm, arm, cfg)
    for theta, i in zip(pair.jump_angles_plane, arm.jump_marks):
        p = pair.plane_curve
        measured = math.acos(float(np.clip(p.tangent[i] @ p.tangent[i + 1], -1, 1)))
        assert abs(theta - measured) < 1e-4


def test_jump_transform_monotone_in_alpha():
    alphas = np.arange(0.0, math.pi + 1e-12, 1e-3)
    for rm, rp, r in ((0.0, 0.0, 1.0), (0.7, -0.4, 1.3), (-1.0, 1.0, 0.5)):
        thetas = np.array([jump_angle_transform(rm, rp, r, a) for a in alphas])
        assert np.min(np.diff(thetas)) >= -1e-9


# ---------------------------------------------------------------------------
# hinge comparison
# ---------------------------------------------------------------------------

def test_hinge_equal_chords():
    res = hinge_compare(1.3, 0.9, 1.1, 1.1)
    assert res.angle_first == res.angle_second
    assert res.ordered


def test_hinge_law_of_cosines_values():
    res = hinge_compare(1.0, 1.0, 1.0, math.sqrt(2.0))
    assert abs(res.angle_first - math.pi / 3) < 1e-12
    assert abs(res.angle_second - math.pi / 2) < 1e-12
    assert res.ordered


def test_hinge_degenerate_flat():
    res = hinge_compare(1.0, 2.0, 3.0, 3.0)
    assert abs(res.angle_first - math.pi) < 1e-9


def test_hinge_infeasible_chord():
    with pytest.raises(DegenerateTriangleError):
        hinge_compare(1.0, 1.0, 2.5, 1.0)


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

def test_verify_without_smooth_samples_is_not_verified(sphere_small_great):
    small, great = sphere_small_great
    blind = dataclasses.replace(great)
    blind.geodesic_curvature = np.full(len(great.s), np.nan)
    # only the recorded kg differs, so great's frames extend the copy exactly
    blind.frames_between, blind.between = great.frames_between, great.between
    v = spherical_schur_verify(small, blind)
    for name in ("geodesic_curvature_dominance", "spherical_convexity"):
        assert v.census.get(name).passed is None
    assert not v.census.all_passed and not v.passed


def test_copy_with_new_rows_measures_its_own_geodesic_curvature(sphere_small_great):
    small, great = sphere_small_great
    copy = dataclasses.replace(small, position=great.position, tangent=great.tangent,
                               normal=great.normal)
    assert copy.geodesic_curvature is None  # the recorded kg belongs to small's rows
    copy.frames_between, copy.between = great.frames_between, great.between
    check = spherical_schur_verify(copy, small).census.get("geodesic_curvature_dominance")
    assert check.passed is False
    assert abs(check.worst_slack + 1.0) < 1e-6  # measured kg 0 against kg 1


def test_verify_rotation_gives_equality():
    c = reconstruct_spherical(sinusoidal_curvature(1.0, 0.4), (), 1.5)
    rot = random_rotation(np.random.default_rng(2))
    v = spherical_schur_verify(c, rotate_spherical(c, rot))
    assert v.census.all_passed
    assert abs(v.conclusion_slack) <= 1e-6
    assert v.passed


def test_verify_polygon_arms(sphere_polygon_pair):
    arm, arm_t = sphere_polygon_pair
    v = spherical_schur_verify(arm, arm_t)
    assert v.census.all_passed
    assert v.conclusion_slack >= -1e-6
    assert v.passed
    assert v.chords.chord_passed == v.conclusion_passed
    # the verification's census is the spherical one, its jump entry located like the plane's
    assert [entry.name for entry in v.census] == [
        "unit_position_c", "unit_position_c_tilde", "length_within_pi",
        "geodesic_curvature_dominance", "spherical_convexity", "jump_dominance",
        "projected_curvature_dominance", "projected_jump_dominance", "projected_speed_identity"]
    jump = v.census.get("jump_dominance")
    assert jump.location == 0.7 and abs(jump.worst_slack - 0.3) < 1e-12
    # transformed jump angles dominate pairwise, and equal a projection's own
    for tp, ts in zip(v.pair.jump_angles_plane, v.pair.jump_angles_space):
        assert tp >= ts - 1e-9
    alone = project_pair(arm, arm_t, v.config)
    assert (v.pair.jump_angles_plane, v.pair.jump_angles_space) == (alone.jump_angles_plane,
                                                                    alone.jump_angles_space)


def test_verify_small_circle_vs_great_arc(sphere_small_great):
    small, great = sphere_small_great
    v = spherical_schur_verify(small, great)
    assert v.passed
    assert abs(v.spherical_chord - 1.267162131330799) < 1e-5
    assert abs(v.spherical_chord_tilde - 1.4142135623730951) < 1e-5
    assert v.hinge.ordered
    assert v.chords.chord_passed == v.conclusion_passed


def test_verify_rotation_invariance(sphere_polygon_pair):
    arm, arm_t = sphere_polygon_pair
    base = spherical_schur_verify(arm, arm_t).conclusion_slack
    rng = np.random.default_rng(31)
    for _ in range(3):
        rot = random_rotation(rng)
        v = spherical_schur_verify(rotate_spherical(arm, rot), rotate_spherical(arm_t, rot))
        assert abs(v.conclusion_slack - base) <= 1e-6


def test_verify_censuses_dominance_violation(sphere_small_great):
    small, great = sphere_small_great
    v = spherical_schur_verify(great, small)  # reversed roles violate dominance
    assert not v.census.get("geodesic_curvature_dominance").passed


def test_verify_derives_no_window_before_the_census():
    # a convexity violation: the projected chord cannot be lifted into the tangent range
    c = reconstruct_spherical(lambda s: 0.4 - 2.2 * s, (), 0.5)
    v = spherical_schur_verify(c, reconstruct_spherical(constant_curvature(0.0), (), 0.5))
    assert v.census.get("spherical_convexity").passed is False
    assert v.passed is False  # the census fails first; the conclusion is never read
    assert "window" not in vars(v)
    with pytest.raises(HypothesisViolationError):
        _ = v.monotonicity


@pytest.mark.parametrize("fixture", ["sphere_polygon_pair", "sphere_small_great"])
def test_rowwise_pair_extends_its_rows_through_the_cone_section(request, fixture):
    v = spherical_schur_verify(*request.getfixturevalue(fixture))
    plane2d, space3d = v.projected.c, v.projected.c_tilde
    tau = plane2d.s
    rows = np.arange(len(tau) - 1)
    rows = rows[tau[rows + 1] > tau[rows]]
    for x, row in ((tau[rows], rows), (tau[rows + 1], rows + 1)):
        assert np.max(np.abs(plane2d.between(rows, x) - plane2d.theta[row])) < 1e-12
        tangent = space3d.tangent_between(rows, x)
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        assert np.max(np.abs(tangent - space3d.tangent[row])) < 1e-12


def test_rowwise_pair_is_parametrized_by_tau(sphere_polygon_pair):
    arm, arm_t = sphere_polygon_pair
    v = spherical_schur_verify(arm, arm_t)
    plane2d, space3d = v.projected.c, v.projected.c_tilde
    assert plane2d.dim == 2 and space3d.dim == 3
    for curve in (plane2d, space3d):
        assert np.array_equal(curve.s, v.pair.tau)
        assert np.array_equal(curve.jump_marks, arm.jump_marks)
        for seg in curve.segments():
            assert np.all(np.diff(curve.s[seg]) > 0)
        assert np.array_equal(curve.s[arm.jump_marks], curve.s[arm.jump_marks + 1])
        assert np.max(np.abs(np.linalg.norm(curve.tangent, axis=1) - 1.0)) < 1e-12
    assert np.min(np.diff(plane2d.theta)) >= -1e-12  # straight arms: rounding only
    assert v.census.all_passed
    assert v.conclusion_passed and v.passed and v.chords.chord_passed == v.conclusion_passed
    assert v.chords.chord_passed and v.monotonicity.conclusion_passed


def test_projection_config_validation():
    with pytest.raises(NormalizationError):
        ProjectionConfig((1.0, 1.0, 0.0), 1.0)
    with pytest.raises(ProfileError):
        ProjectionConfig((1.0, 0.0, 0.0), -0.5)
    with pytest.raises(ProfileError):
        ProjectionConfig((1.0, 0.0, 0.0), 1.0, epsilon_min=0.0)
    with pytest.raises(NormalizationError):
        ProjectionConfig((math.nan, 0.0, 0.0), 1.0)
    with pytest.raises(ProfileError):
        ProjectionConfig((1.0, 0.0, 0.0), math.inf)


def test_frame_drift_suggests_smaller_step():
    from schurkit.errors import IntegrationError
    from schurkit.numerics import StepControl

    coarse = StepControl(step_h=0.0625)
    with pytest.raises(IntegrationError) as err:
        reconstruct_spherical(constant_curvature(50.0), (), 1.0, control=coarse)
    assert "step_h" in str(err.value)


def test_space_curvature_degenerate_speed():
    from schurkit.errors import DegenerateSpeedError

    s = np.linspace(0.0, 1.0, 100)
    pos = np.zeros((100, 3))
    frozen = SampledCurve(s, pos, np.tile([1.0, 0.0, 0.0], (100, 1)))
    with pytest.raises(DegenerateSpeedError):
        space_curvature(frozen)


def test_verify_curved_segments_with_jumps():
    # curvature and dominated jumps together, plus a negative-curvature
    # companion (|k~| <= k with k~ < 0 is admissible)
    c = reconstruct_spherical(constant_curvature(0.8), ((0.6, 0.5), (1.2, 0.4)), 1.8)
    ct = reconstruct_spherical(
        sinusoidal_curvature(0.3, 0.2), ((0.6, 0.25), (1.2, 0.1)), 1.8
    )
    v = spherical_schur_verify(c, ct)
    assert v.census.all_passed
    assert v.passed
    assert v.chords.chord_passed == v.conclusion_passed
    for tp, ts in zip(v.pair.jump_angles_plane, v.pair.jump_angles_space):
        assert tp >= ts - 1e-9

    ct_neg = reconstruct_spherical(
        constant_curvature(-0.6), ((0.6, 0.2), (1.2, 0.1)), 1.8
    )
    v2 = spherical_schur_verify(c, ct_neg)
    assert v2.census.all_passed
    assert v2.passed
