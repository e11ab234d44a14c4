import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurkit import schur
from schurkit.curves import (
    CurvatureProfile,
    Jump,
    SampledCurve,
    constant_curvature,
    embed_plane_curve,
    reconstruct_plane,
    reconstruct_space_frenet,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
)
from schurkit.errors import HypothesisViolationError, NormalizationError, ProfileError
from schurkit.numerics import bisect_lanes, bisect_monotone, orthonormal_complement, pchip, unit
from schurkit.schur import (
    ComparisonPair,
    PivotWindow,
    SStarResult,
    _jump_angle,
    arc_length_budget_check,
    build_inclusion,
    hypothesis_census,
    integral_consistency,
)

TOL = 1e-6


# ---------------------------------------------------------------------------
# pivot s*
# ---------------------------------------------------------------------------

def test_s_star_semicircle(circle_pi):
    star = ComparisonPair(circle_pi, circle_pi).window(None).star
    assert not star.jump_interior
    assert abs(star.s_star - math.pi / 2) < 1e-6


def test_s_star_symmetric_arc_hits_midpoint():
    c = reconstruct_plane(CurvatureProfile(math.pi, sinusoidal_curvature(1.0, 0.3)))
    star = ComparisonPair(c, c).window(None).star
    assert abs(star.s_star - math.pi / 2) < 1e-6


def test_s_star_square_corner_gap():
    jumps = tuple(Jump(float(i), math.pi / 2) for i in (1, 2, 3))
    sq = reconstruct_plane(CurvatureProfile(4.0, constant_curvature(0.0), jumps))
    star = ComparisonPair(sq, sq).window((0.0, 2.0)).star
    assert star.jump_interior
    assert star.s_star == 1.0
    assert abs(star.beta_minus - math.pi / 4) < 1e-12


def test_s_star_degenerate_chord_raises():
    c = reconstruct_plane(CurvatureProfile(2 * math.pi, constant_curvature(1.0)))
    with pytest.raises(HypothesisViolationError):
        ComparisonPair(c, c).window(None)  # closed curve: zero chord


def test_s_star_subwindow(circle_pi):
    star = ComparisonPair(circle_pi, circle_pi).window((0.5, 2.5)).star
    # chord of a circle arc is parallel to the tangent at the arc midpoint;
    # the window itself snaps to grid rows first
    assert abs(star.s_star - 0.5 * (star.window[0] + star.window[1])) < 1e-6
    assert abs(star.s_star - 1.5) < 1e-3


# ---------------------------------------------------------------------------
# arc budget
# ---------------------------------------------------------------------------

def test_arc_budget_semicircle(circle_pi):
    star = ComparisonPair(circle_pi, circle_pi).window(None).star
    res = arc_length_budget_check(circle_pi, 0.0, math.pi, star)
    assert res.passed
    assert abs(res.length_first - math.pi / 2) < 1e-9
    assert abs(res.length_second - math.pi / 2) < 1e-9


def test_arc_budget_full_circle_boundary_case():
    c = reconstruct_plane(CurvatureProfile(2 * math.pi, constant_curvature(1.0)))
    res = arc_length_budget_check(c, 0.0, 2 * math.pi, math.pi)
    assert res.passed
    assert abs(res.length_first - math.pi) < 1e-9


def test_arc_budget_violation():
    # total turning 2*pi packed left of the pivot
    c = reconstruct_plane(CurvatureProfile(2.0, constant_curvature(math.pi)))
    res = arc_length_budget_check(c, 0.0, 2.0, 1.5)
    assert not res.passed
    assert res.length_first > math.pi


# ---------------------------------------------------------------------------
# inclusion
# ---------------------------------------------------------------------------

def test_inclusion_coordinate_embedding():
    inc = build_inclusion(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(inc.apply(np.array([1.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-12)


def test_inclusion_axis_to_axis():
    inc = build_inclusion(np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(inc.apply(np.array([0.0, 1.0])), [0.0, 0.0, 1.0], atol=1e-12)
    gram = inc.matrix.T @ inc.matrix
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


@given(
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_inclusion_preserves_inner_products(angle2, z3, angle3):
    t2 = np.array([math.cos(angle2), math.sin(angle2)])
    r = math.sqrt(max(1.0 - z3 * z3, 0.0))
    t3 = unit(np.array([r * math.cos(angle3), r * math.sin(angle3), z3]))
    inc = build_inclusion(t2, t3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u, v = rng.normal(size=2), rng.normal(size=2)
        assert abs(inc.apply(u) @ inc.apply(v) - u @ v) < 1e-12


def test_inclusion_rejects_non_unit():
    with pytest.raises(NormalizationError):
        build_inclusion(np.array([2.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_orthonormal_complement_is_deterministic():
    v = unit(np.array([0.3, -0.5, 0.8]))
    w1, w2 = orthonormal_complement(v), orthonormal_complement(v)
    assert np.array_equal(w1, w2)
    assert abs(w1 @ v) < 1e-12


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_identical_curves(circle_pi):
    pair = ComparisonPair(circle_pi, embed_plane_curve(circle_pi))
    report = pair.monotonicity(pair.window(None))
    assert report.census.all_passed
    assert np.max(np.abs(report.derivative_slack)) < 1e-9
    assert np.ptp(report.I_samples) < 1e-9


def test_monotonicity_circle_vs_line(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    report = pair.monotonicity(pair.window(None))
    assert report.passed
    assert report.min_slack >= 0.0
    # I strictly increases away from s_star on this fixture
    assert report.I_samples[-1] > report.I_samples[0]


def test_monotonicity_circle_vs_helix(circle_pi, helix_pi):
    pair = ComparisonPair(circle_pi, helix_pi)
    report = pair.monotonicity(pair.window(None))
    assert report.passed
    assert report.min_slack >= -1e-6


def test_monotonicity_inclusion_elimination(circle_pi, helix_pi):
    # direct I through any valid inclusion matches the eliminated form
    pair = ComparisonPair(circle_pi, helix_pi)
    report = pair.monotonicity(pair.window(None))
    star_dir = report.pivot_space
    chord = circle_pi.position[-1] - circle_pi.position[0]
    clen = np.linalg.norm(chord)
    rng = np.random.default_rng(11)
    for _ in range(10):
        raw = rng.normal(size=3)
        w = unit(raw - (raw @ star_dir) * star_dir)
        inc = build_inclusion(report.pivot_plane, star_dir, second_column=w)
        iota_pos = inc.apply(circle_pi.position)
        i_direct = (helix_pi.position - iota_pos) @ (clen * star_dir)
        assert np.max(np.abs(i_direct - report.I_samples)) < 1e-9


def test_monotonicity_integral_consistency(circle_pi, helix_pi):
    pair = ComparisonPair(circle_pi, helix_pi)
    report = pair.monotonicity(pair.window(None))
    assert integral_consistency(report) < 1e-5


def test_monotone_I_when_slack_nonnegative(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    report = pair.monotonicity(pair.window(None))
    assert report.min_slack >= -TOL
    assert np.min(np.diff(report.I_samples)) >= -TOL


def test_monotonicity_census_catches_violation(circle_pi):
    # a space curve with larger curvature must be censused, not raised
    bad = reconstruct_space_frenet(constant_curvature(2.0), constant_curvature(0.5), math.pi)
    pair = ComparisonPair(circle_pi, bad)
    report = pair.monotonicity(pair.window(None))
    check = report.census.get("curvature_dominance")
    assert not check.passed
    assert check.worst_slack < -0.5


def test_monotonicity_on_corner_pair(corner_pair):
    c, ct = corner_pair
    pair = ComparisonPair(c, ct)
    report = pair.monotonicity(pair.window(None))
    assert report.passed
    assert report.jump_interior
    # slack is |chord| (cos(pi/8) - cos(pi/4)) on both sides
    expect = math.sqrt(2.0) * (math.cos(math.pi / 8) - math.cos(math.pi / 4))
    assert abs(report.min_slack - expect) < 1e-9


# ---------------------------------------------------------------------------
# chord inequalities
# ---------------------------------------------------------------------------

def test_chord_identical(circle_pi):
    pair = ComparisonPair(circle_pi, embed_plane_curve(circle_pi))
    rep = pair.chord(pair.window(None))
    assert abs(rep.plane_chord - rep.space_chord) < 1e-12
    assert abs(rep.inner_product_bound - rep.plane_chord**2) < 1e-9
    assert rep.passed


def test_chord_circle_vs_line(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    rep = pair.chord(pair.window(None))
    assert abs(rep.plane_chord - 2.0) < 1e-5
    assert abs(rep.space_chord - math.pi) < 1e-12
    assert rep.passed


def test_chord_circle_arc_two_vs_helix():
    c = reconstruct_plane(CurvatureProfile(2.0, constant_curvature(1.0)))
    ct = reconstruct_space_frenet(constant_curvature(0.5), constant_curvature(0.5), 2.0)
    pair = ComparisonPair(c, ct)
    rep = pair.chord(pair.window(None))
    assert abs(rep.plane_chord - 1.682941969615793) < 1e-5  # 2 sin(1)
    assert rep.passed
    assert rep.space_chord > rep.plane_chord


def test_chord_on_corner_pair(corner_pair):
    c, ct = corner_pair
    pair = ComparisonPair(c, ct)
    rep = pair.chord(pair.window(None))
    assert abs(rep.plane_chord - 1.4142135623730951) < 1e-9
    assert abs(rep.space_chord - 1.8477590650225735) < 1e-9  # sqrt(2 + sqrt(2))
    assert rep.passed


def test_nested_reduces_to_chord(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    chord = pair.chord(pair.window(None))
    nested = pair.nested_chord(pair.window((0.0, math.pi)), 0.0, math.pi)
    assert abs(nested.rhs - chord.inner_product_bound) < 1e-9
    assert abs(nested.lhs - chord.plane_chord**2) < 1e-9


def test_nested_identical_equality(circle_pi):
    emb = embed_plane_curve(circle_pi)
    pair = ComparisonPair(circle_pi, emb)
    nested = pair.nested_chord(pair.window((0.0, math.pi)), math.pi / 4, 3 * math.pi / 4)
    assert abs(nested.slack) < 1e-9
    assert nested.passed


def test_nested_circle_vs_line_quartiles(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    nested = pair.nested_chord(pair.window((0.0, math.pi)), math.pi / 4, 3 * math.pi / 4)
    assert nested.slack >= -1e-6
    assert nested.passed


def test_nested_requires_proper_nesting(circle_pi, line_pi):
    pair = ComparisonPair(circle_pi, line_pi)
    with pytest.raises(ValueError, match="inner window must nest inside the outer window"):
        pair.nested_chord(pair.window((0.0, 1.0)), 0.5, 2.0)


# ---------------------------------------------------------------------------
# expansion bound
# ---------------------------------------------------------------------------

def test_expansion_identical(circle_pi):
    rep = ComparisonPair(circle_pi, embed_plane_curve(circle_pi)).expansion(50, 3)
    assert rep.min_slack >= -1e-9


def test_expansion_circle_vs_line(circle_pi, line_pi):
    rep = ComparisonPair(circle_pi, line_pi).expansion(50, 3)
    assert rep.passed
    assert rep.min_slack >= -1e-6


def test_expansion_circle_vs_helix(circle_pi, helix_pi):
    rep = ComparisonPair(circle_pi, helix_pi).expansion(50, 3)
    assert rep.passed


# ---------------------------------------------------------------------------
# full-range monotonicity (flexible pivot)
# ---------------------------------------------------------------------------

def test_full_range_identical(circle_pi):
    rep = ComparisonPair(circle_pi, embed_plane_curve(circle_pi)).full_range(math.pi / 2)
    assert np.max(np.abs(rep.derivative_slack)) < 1e-12


def test_full_range_midpoint(circle_pi, line_pi):
    rep = ComparisonPair(circle_pi, line_pi).full_range(math.pi / 2)
    assert rep.passed
    assert rep.min_slack >= -1e-12


def test_full_range_quarter_pivot(circle_pi, line_pi):
    rep = ComparisonPair(circle_pi, line_pi).full_range(math.pi / 4)
    assert rep.min_slack >= -1e-6


def test_full_range_auto_records_choice(circle_pi, helix_pi):
    rep = ComparisonPair(circle_pi, helix_pi).full_range("auto")
    assert "auto pivot" in rep.note
    assert rep.passed


def test_full_range_budget_violation_raises():
    c = reconstruct_plane(CurvatureProfile(2 * math.pi, constant_curvature(1.0)))
    ct = reconstruct_space_frenet(constant_curvature(0.0), constant_curvature(0.0), 2 * math.pi)
    with pytest.raises(ProfileError):
        ComparisonPair(c, ct).full_range(math.pi / 4)  # second arc exceeds pi


# ---------------------------------------------------------------------------
# limit behaviour of the inclusion
# ---------------------------------------------------------------------------

def test_inclusion_limit_identifies_tangents(wobbly_plane_pi):
    ct = reconstruct_space_frenet(constant_curvature(0.5), constant_curvature(0.5), math.pi)
    width = 1e-2
    worst = 0.0
    for s0 in (0.4, 1.1, 2.0, 2.6):
        w = ComparisonPair(wobbly_plane_pi, ct).window((s0, s0 + width))
        inc = build_inclusion(w.pivot_plane, w.pivot_space)
        mid = wobbly_plane_pi.nearest_row(s0 + width / 2)
        image = inc.apply(wobbly_plane_pi.tangent[mid])
        angle = math.acos(float(np.clip(image @ ct.tangent[mid], -1.0, 1.0)))
        worst = max(worst, angle)
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# sweep-style property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tilde_fixture", ["line_pi", "helix_pi"])
def test_schur_conclusion_over_window_grid(request, circle_pi, tilde_fixture):
    ct = request.getfixturevalue(tilde_fixture)
    anchors = np.linspace(0.0, math.pi, 10)
    pair = ComparisonPair(circle_pi, ct)
    for i, a in enumerate(anchors):
        for b in anchors[i + 1 :]:
            rep = pair.chord(pair.window((a, b)))
            assert rep.passed, (a, b)


def test_hypothesis_census_entries(circle_pi, helix_pi):
    census = hypothesis_census(circle_pi, helix_pi)
    names = {c.name for c in census}
    assert {"curvature_dominance", "jump_dominance", "convexity", "turning_budget"} <= names
    assert census.all_passed


def test_census_without_smooth_samples_is_not_verified(circle_pi, helix_pi):
    blind = replace(helix_pi, tangent=np.full_like(helix_pi.tangent, np.nan))  # all-NaN curvature
    census = hypothesis_census(circle_pi, blind)
    check = census.get("curvature_dominance")
    assert check.passed is None and check.to_dict()["passed"] is None
    assert check.note == "no smooth samples"
    assert not census.all_passed


def test_s_star_rejects_chord_outside_tangent_range():
    # clockwise-turning curve masquerading as convex: the chord direction
    # cannot be lifted into the tangent angular range
    c = reconstruct_plane(CurvatureProfile(1.0, constant_curvature(-1.0)))
    with pytest.raises(HypothesisViolationError):
        ComparisonPair(c, c).window(None)


def test_schur_on_random_dominated_fixtures():
    # random convex curvature splines against random dominated companions:
    # the chord conclusion must hold on every window once the census passes
    from scipy.interpolate import PchipInterpolator
    from schurkit.numerics import StepControl

    fast = StepControl(step_h=2e-3)
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(8):
        length = rng.uniform(1.0, 2.5)
        knots = np.linspace(0.0, length, 5)
        kin = PchipInterpolator(knots, rng.uniform(0.1, 1.8, 5))
        k = lambda s, f=kin, L=length: np.asarray(f(np.clip(s, 0, L)), dtype=float)
        grid = np.linspace(0.0, length, 2001)
        if float(np.trapezoid(k(grid), grid)) > 2.0 * math.pi - 0.2:
            continue
        eta = PchipInterpolator(knots, rng.uniform(0.0, 0.95, 5))
        kt = lambda s, f=kin, g=eta, L=length: np.asarray(
            g(np.clip(s, 0, L)) * f(np.clip(s, 0, L)), dtype=float)
        tors = PchipInterpolator(knots, rng.uniform(-1.0, 1.0, 5))
        torsion = lambda s, f=tors, L=length: np.asarray(f(np.clip(s, 0, L)), dtype=float)
        c = reconstruct_plane(CurvatureProfile(length, k), control=fast)
        ct = reconstruct_space_frenet(kt, torsion, length, control=fast)
        anchors = np.linspace(0.0, length, 5)
        pair = ComparisonPair(c, ct, curvature_tol=1e-4)
        for i, a in enumerate(anchors):
            for b in anchors[i + 1 :]:
                window = pair.window((a, b))
                mono, chord = pair.monotonicity(window), pair.chord(window)
                assert mono.census.all_passed
                assert mono.min_slack >= -1e-6
                assert chord.passed
                checked += 1
    assert checked >= 60


def test_window_endpoints_at_jump_rows(corner_pair):
    c, ct = corner_pair
    # window ending exactly at the jump: the minus-side rows are used
    pair = ComparisonPair(c, ct)
    left = pair.monotonicity(pair.window((0.0, 1.0)))
    assert left.window == (0.0, 1.0)
    assert left.min_slack >= -1e-9
    # window starting exactly at the jump: the plus-side rows are used
    right = pair.monotonicity(pair.window((1.0, 2.0)))
    assert right.window == (1.0, 2.0)
    assert right.min_slack >= -1e-9
    # both are straight pieces, so the chords agree exactly side by side
    for rep in (pair.chord(pair.window((0.0, 1.0))), pair.chord(pair.window((1.0, 2.0)))):
        assert abs(rep.plane_chord - 1.0) < 1e-12
        assert abs(rep.space_chord - 1.0) < 1e-12


def test_monotonicity_subwindow_with_interior_jump(corner_pair):
    c, ct = corner_pair
    pair = ComparisonPair(c, ct)
    rep = pair.monotonicity(pair.window((0.5, 1.5)))
    assert rep.jump_interior
    assert rep.s_star == 1.0
    assert rep.census.all_passed
    assert rep.min_slack >= -1e-9


def test_full_range_auto_pivot_at_jump_row():
    # turning concentrated in two large jumps: the feasible pivot set begins
    # at the first jump's outgoing row, and the one-sided tangent works as N
    prof_c = CurvatureProfile(3.0, constant_curvature(0.0), (Jump(1.0, 3.0), Jump(2.0, 3.0)))
    c = reconstruct_plane(prof_c)
    prof_t = CurvatureProfile(
        3.0, constant_curvature(0.0),
        (Jump(1.0, 1.5, (0.0, 1.0, 0.0)), Jump(2.0, 1.0, (0.0, 0.0, 1.0))),
        convex=False,
    )
    ct = reconstruct_space_profile(prof_t, constant_curvature(0.0))
    rep = ComparisonPair(c, ct).full_range("auto")
    assert rep.s_star == 1.0
    assert rep.census.all_passed
    assert rep.min_slack >= -1e-9
    assert np.min(np.diff(rep.I_samples)) >= -1e-9


# ---------------------------------------------------------------------------
# window engine: many windows at once against a one-window scalar reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gap_pair():
    """Two large plane jumps on a curvature with a straight stretch, and a dominated
    space companion: windows get on-grid, jump-interior and off-grid pivots."""
    k = tabulated_curvature([[0.0, 0.8], [0.3, 0.0], [0.6, 0.0], [1.2, 1.1], [3.0, 0.7]])
    c = reconstruct_plane(CurvatureProfile(3.0, k, (Jump(1.0, 0.6), Jump(2.0, 0.5))))
    ct = reconstruct_space_profile(
        CurvatureProfile(3.0, lambda s: 0.5 * k(s),
                         (Jump(1.0, 0.3, (0.0, 0.0, 1.0)), Jump(2.0, 0.2, (0.0, 0.0, 1.0))),
                         convex=False),
        constant_curvature(0.4),
    )
    return ComparisonPair(c, ct)


def _slerp(u, v, angle):
    """Point at the given angle from u along the minimizing great arc to v."""
    full = math.acos(float(np.clip(np.dot(u, v), -1.0, 1.0)))
    if full < 1e-12 or angle <= 0.0:
        return u.copy()
    t = min(angle / full, 1.0)
    return (math.sin((1.0 - t) * full) * u + math.sin(t * full) * v) / math.sin(full)


def _reference_locate(c, s_range):
    """(rows, chord length, s*, crossing) of one window, the scalar way.

    Each end is snapped on its own and the window accumulates its own running
    maximum of theta. For a smooth crossing, ``s_star`` holds the cell's left
    end.
    """
    if s_range is None:
        i0, i1 = 0, len(c.s) - 1
    else:
        i0, i1 = c.nearest_row(float(s_range[0]), side="plus"), c.nearest_row(float(s_range[1]))
    window = (float(c.s[i0]), float(c.s[i1]))
    chord = c.position[i1] - c.position[i0]
    clen = float(np.linalg.norm(chord))
    th = np.maximum.accumulate(c.theta[i0 : i1 + 1])
    phi = math.atan2(chord[1], chord[0])
    phi_star = phi + schur.TWO_PI * math.ceil((th[0] - phi - schur.ANGLE_TOL) / schur.TWO_PI)
    assert phi_star <= th[-1] + schur.ANGLE_TOL
    phi_star = float(min(max(phi_star, th[0]), th[-1]))
    j = min(int(np.searchsorted(th, phi_star, side="left")), len(th) - 1)
    s_loc = c.s[i0 : i1 + 1]
    if th[j] - phi_star <= schur.ANGLE_TOL:
        return (i0, i1), clen, SStarResult(float(s_loc[j]), i0 + j, False, phi_star, None, window), False
    if j > 0 and s_loc[j] == s_loc[j - 1]:
        beta_minus = float(phi_star - th[j - 1])
        return (i0, i1), clen, SStarResult(float(s_loc[j - 1]), i0 + j - 1, True, phi_star,
                                           beta_minus, window), False
    return (i0, i1), clen, SStarResult(float(s_loc[j - 1]), i0 + j - 1, False, phi_star, None,
                                       window), True


def _reference_window(pair, s_range):
    """One window the scalar way: whole-segment ``pchip`` fits and ``bisect_monotone``.

    Returns the window and, for a smooth crossing, the number of cubic
    evaluations its bisection made.
    """
    c, ct = pair.c, pair.c_tilde
    rows, clen, star, crossing = _reference_locate(c, s_range)
    i = star.index
    seg = c.segments()[int(np.searchsorted(c.jump_marks, i))]
    evals = []
    if crossing:
        theta = pchip(c.s[seg], np.maximum.accumulate(c.theta[seg]))

        def g(x):
            evals.append(x)
            return float(theta(x)) - star.chord_angle

        root = bisect_monotone(g, (float(c.s[i]), float(c.s[i + 1])), tol=1e-13)
        star = replace(star, s_star=root)
    if star.jump_interior:
        alpha, alpha_t = _jump_angle(c, i), _jump_angle(ct, i)
        n_t = _slerp(ct.tangent[i], ct.tangent[i + 1], star.beta_minus * (alpha_t / alpha))
    elif star.s_star == c.s[i]:
        n_t = ct.tangent[i]
    else:
        n_t = pchip(c.s[seg], ct.tangent[seg])(star.s_star)
    n = np.array([math.cos(star.chord_angle), math.sin(star.chord_angle)])
    return PivotWindow(rows, clen, star, n, unit(n_t)), (len(evals) if crossing else None)


def _window_repr(w):
    return repr((w.rows, w.chord_length, w.star, w.pivot_plane.tolist(), w.pivot_space.tolist()))


def _engine_ranges(pair):
    s, jm = pair.c.s, pair.c.jump_marks
    anchors = np.linspace(0.0, 3.0, 13)
    grid = [(float(a), float(b)) for i, a in enumerate(anchors) for b in anchors[i + 1:]]
    # one-cell windows on the first and last cell of every segment: 3-knot fits
    edges = [(float(s[lo]), float(s[lo + 1])) for lo in (0, *(jm + 1))]
    edges += [(float(s[hi - 1]), float(s[hi])) for hi in (*jm, len(s) - 1)]
    return grid + edges + [(0.35, 0.55), (0.1, 0.4), (0.95, 1.05), (1.3, 1.9)]


class _CountingCells:
    """Counts the evaluations of each lane through ``bisect_lanes``' take protocol."""

    def __init__(self, f, lanes, counts):
        self.f, self.lanes, self.counts = f, lanes, counts

    def __call__(self, q):
        self.counts[self.lanes] += 1
        return self.f(q)

    def take(self, idx):
        return _CountingCells(self.f.take(idx), self.lanes[idx], self.counts)


def test_windows_match_scalar_reference(gap_pair, monkeypatch):
    ranges = _engine_ranges(gap_pair)
    reference, ref_evals = zip(*(_reference_window(gap_pair, r) for r in ranges))
    stars = [w.star for w in reference]
    s = gap_pair.c.s
    assert any(st.jump_interior for st in stars)
    assert any(st.s_star == s[st.index] and not st.jump_interior for st in stars)
    edge_cells = {0, len(s) - 2, *gap_pair.c.jump_marks + 1, *gap_pair.c.jump_marks - 1}
    crossing = [(st.index, n) for st, n in zip(stars, ref_evals) if n is not None]
    assert edge_cells <= {row for row, _ in crossing} and len(crossing) > 40

    counted = []

    def counting_bisect(f, target, a, b, tol):
        counts = np.zeros(len(a), dtype=int)
        counted.append((f.x0.tolist(), counts))
        return bisect_lanes(_CountingCells(f, np.arange(len(a)), counts), target, a, b, tol)

    monkeypatch.setattr(schur, "bisect_lanes", counting_bisect)
    windows = gap_pair.windows(ranges)
    assert [_window_repr(w) for w in windows] == [_window_repr(w) for w in reference]
    # one block, so one lane-wise bisection whose lanes are the crossings in
    # order, each evaluating its cubic as often as the scalar bisection does
    (cells, counts), = counted
    assert cells == [float(s[row]) for row, _ in crossing]
    assert counts.tolist() == [n for _, n in crossing]
    # single windows take the scalar bisection on the same cubics
    for r, w in zip(ranges[::7], reference[::7]):
        assert _window_repr(gap_pair.window(r)) == _window_repr(w)


def test_star_fields_are_python_numbers(gap_pair):
    windows = gap_pair.windows(_engine_ranges(gap_pair))
    for w in windows:
        star = w.star
        assert (type(star.s_star), type(star.index), type(star.chord_angle)) == (float, int, float)
        assert star.beta_minus is None or type(star.beta_minus) is float
        assert [type(v) for v in (*star.window, w.chord_length, *w.rows)] == [float] * 3 + [int] * 2
    # on the straight stretch the lifted chord angle is clamped to theta(s')
    star = gap_pair.window((0.35, 0.55)).star
    assert star.chord_angle == gap_pair.c.theta[star.index] and type(star.chord_angle) is float


def test_whole_curve_window_takes_the_block_path(gap_pair):
    reference, _ = _reference_window(gap_pair, None)
    assert reference.rows == (0, len(gap_pair.c.s) - 1)
    assert _window_repr(gap_pair.window(None)) == _window_repr(reference)
    mixed = gap_pair.windows([None, (0.2, 2.8), None])
    assert _window_repr(mixed[0]) == _window_repr(mixed[2]) == _window_repr(reference)
    assert _window_repr(mixed[1]) == _window_repr(_reference_window(gap_pair, (0.2, 2.8))[0])


def test_windows_starting_off_a_running_max_record_match_reference(gap_pair):
    # theta dips by up to 5e-10, inside the convexity tolerance, on the straight
    # stretch: windows starting in a dip start below the running maximum
    c = gap_pair.c
    theta = c.theta.copy()
    theta[400:405] -= 1e-10 * np.arange(1, 6)
    theta[450] -= 1e-10
    pair = ComparisonPair(SampledCurve(c.s, c.position, c.tangent, c.jump_marks, theta),
                          gap_pair.c_tilde)
    assert pair.census.all_passed
    starts = [float(c.s[i]) for i in (*range(398, 407), 449, 450, 451)]
    ranges = [(a, b) for a in starts for b in (0.5, 0.58, 0.7, 0.9, 1.0, 1.3, 2.2, 2.9)]
    reference = [_reference_window(pair, r)[0] for r in ranges]
    first = np.array([w.rows[0] for w in reference])
    assert np.sum(np.maximum.accumulate(theta)[first] > theta[first]) == 6 * 8
    # on the stretch the pivot lands past the dip, where the window's own maximum is back
    assert any(w.star.index > w.rows[0] and w.star.s_star < 0.6 for w in reference)
    expected = [_window_repr(w) for w in reference]
    assert [_window_repr(w) for w in pair.windows(ranges)] == expected
    assert [_window_repr(pair.window(r)) for r in ranges] == expected


def test_windows_raise_for_the_first_failing_window(gap_pair):
    s = gap_pair.c.s
    degenerate = (float(s[100]) + 1e-9, float(s[100]) + 2e-9)  # both ends snap to row 100
    with pytest.raises(HypothesisViolationError) as scalar:
        gap_pair.window(degenerate)
    ranges = [(0.2, 2.8), (1.1, 1.7), degenerate, (0.3, 0.9), (2.0, 2.5)]
    with pytest.raises(HypothesisViolationError) as batched:
        gap_pair.windows(ranges)
    assert str(batched.value) == str(scalar.value)
    assert str(scalar.value) == "degenerate (zero) chord: no direction to match"
    with pytest.raises(ValueError, match="window must satisfy"):
        gap_pair.windows(ranges[:2] + [(1.0, 0.5)] + ranges[2:])


def test_windows_in_small_blocks_match_one_block(gap_pair, monkeypatch):
    ranges = _engine_ranges(gap_pair)
    whole = [_window_repr(w) for w in gap_pair.windows(ranges)]
    monkeypatch.setattr(schur, "WINDOW_BLOCK", 7)
    assert [_window_repr(w) for w in gap_pair.windows(ranges)] == whole
    monkeypatch.setattr(schur, "WINDOW_BLOCK", 1)
    assert [_window_repr(w) for w in gap_pair.windows(ranges[:20])] == whole[:20]


def test_expansion_matches_one_window_at_a_time(gap_pair, monkeypatch):
    c, ct = gap_pair.c, gap_pair.c_tilde
    rng, n = random.Random(11), len(c.s)
    sep = max(10, n // 100)
    worst, worst_pair = math.inf, None
    for _ in range(120):
        i = rng.randrange(0, n - sep)
        j = rng.randrange(i + sep, n)
        w = gap_pair.window((float(c.s[i]), float(c.s[j])))
        delta = ct.position[w.rows[1]] - ct.position[w.rows[0]]
        slack = float(delta @ w.pivot_space) - w.chord_length
        if slack < worst:
            worst, worst_pair = slack, (float(c.s[i]), float(c.s[j]))
    monkeypatch.setattr(schur, "WINDOW_BLOCK", 50)  # three blocks, the last one partial
    report = gap_pair.expansion(120, 11)
    assert (report.min_slack, report.worst_pair) == (worst, worst_pair)


def test_sweep_columns_match_single_window_reports(gap_pair):
    ranges = _engine_ranges(gap_pair)[:40]
    windows = gap_pair.windows(ranges)
    min_slack, argmin_s = gap_pair.monotonicity_minima(windows)
    chords = gap_pair.chords(windows)
    for k, w in enumerate(windows):
        mono, chord = gap_pair.monotonicity(w), gap_pair.chord(w)
        assert (min_slack[k], argmin_s[k]) == (mono.min_slack, mono.argmin_s)
        assert chords.row(k) == chord
        assert chords.passed[k] == chord.passed and chords.bound_passed[k] == chord.bound_passed
