import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurkit.curves import constant_curvature, linear_curvature, sinusoidal_curvature
from schurkit.errors import CausalError
from schurkit.numerics import SampledFunction
from schurkit.minkowski import (
    TimelikeCurve,
    boost_curve,
    build_lorentz_inclusion,
    embed_timelike_2d,
    lorentz_boost,
    minkowski_dot,
    minkowski_norm,
    reconstruct_timelike_2d,
    reconstruct_timelike_3d,
    reversed_chord_inequality,
    timelike_monotonicity,
)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_dot_time_axis():
    assert minkowski_dot([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 1.0


def test_dot_space_axis():
    assert minkowski_dot([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]) == -1.0


def test_dot_mixed():
    # 2*2 - 1*(-1) - 0*0 = 5
    assert minkowski_dot([2.0, 1.0, 0.0], [2.0, -1.0, 0.0]) == 5.0


def test_dot_dimension_mismatch():
    from schurkit.errors import AlignmentError

    with pytest.raises(AlignmentError):
        minkowski_dot([1.0, 0.0], [1.0, 0.0, 0.0])


def test_minkowski_norm_rejects_spacelike():
    with pytest.raises(CausalError):
        minkowski_norm([0.5, 2.0])


# ---------------------------------------------------------------------------
# 2D reconstruction
# ---------------------------------------------------------------------------

def test_straight_worldline_chord():
    length = 2.0
    c = reconstruct_timelike_2d(constant_curvature(0.0), length)
    chord = c.position[-1] - c.position[0]
    assert abs(minkowski_norm(chord) - length) < 1e-12


def test_unit_curvature_sweeps_unit_rapidity():
    c = reconstruct_timelike_2d(constant_curvature(1.0), 1.0)
    d = math.acosh(minkowski_dot(c.tangent[0], c.tangent[-1]))
    assert abs(d - 1.0) < 1e-6


def test_hyperbola_positions():
    c = reconstruct_timelike_2d(constant_curvature(1.0), 1.0)
    exact = np.column_stack([np.sinh(c.s), np.cosh(c.s) - 1.0])
    assert np.max(np.linalg.norm(c.position - exact, axis=1)) < 1e-5


def test_tangent_normalization_2d():
    c = reconstruct_timelike_2d(sinusoidal_curvature(0.5, 0.4), 2.0)
    assert c.tangent_norm_drift() <= 1e-9
    assert c.future_directed()


def test_curvature_roundtrip_2d():
    k = sinusoidal_curvature(0.5, 0.3)
    c = reconstruct_timelike_2d(k, math.pi)
    expect = np.asarray(k(c.s))
    assert np.max(np.abs(c.curvature.values - expect)) < 2e-4


def test_rapidity_additivity():
    k = sinusoidal_curvature(0.3, 0.2)
    c = reconstruct_timelike_2d(k, 2.0)
    i0, i1 = 300, 1700
    d = math.acosh(minkowski_dot(c.tangent[i0], c.tangent[i1]))
    expect = abs(c.rapidity[i1] - c.rapidity[i0])
    assert abs(d - expect) < 1e-5


# ---------------------------------------------------------------------------
# 3D reconstruction
# ---------------------------------------------------------------------------

def test_constant_spin_reduces_to_planar():
    c3 = reconstruct_timelike_3d(constant_curvature(0.5), constant_curvature(0.0), 1.0)
    c2 = reconstruct_timelike_2d(constant_curvature(0.5), 1.0)
    embedded = embed_timelike_2d(c2)
    assert np.max(np.linalg.norm(c3.position - embedded.position, axis=1)) < 1e-5


def test_zero_curvature_straight_regardless_of_spin():
    c = reconstruct_timelike_3d(constant_curvature(0.0), linear_curvature(0.0, 2.0), 1.5)
    chord = c.position[-1] - c.position[0]
    assert abs(minkowski_norm(chord) - 1.5) < 1e-12


def test_spin_makes_nonplanar_with_prescribed_curvature():
    c = reconstruct_timelike_3d(constant_curvature(0.5), linear_curvature(0.0, 1.0), 1.0)
    assert np.max(np.abs(c.curvature.values - 0.5)) < 1e-4
    assert np.ptp(c.position[:, 2]) > 1e-3  # genuinely non-planar
    assert c.tangent_norm_drift() <= 1e-9


def test_3d_rejects_bad_initial_tangent():
    with pytest.raises(CausalError):
        reconstruct_timelike_3d(
            constant_curvature(0.5), constant_curvature(0.0), 1.0,
            frame0=(
                np.array([0.5, 1.0, 0.0]),
                np.array([0.0, 1.0, 0.0]),
                np.array([0.0, 0.0, 1.0]),
            ),
        )


# ---------------------------------------------------------------------------
# hyperbolic distance
# ---------------------------------------------------------------------------

def test_distance_coincident():
    t = np.array([math.cosh(0.3), math.sinh(0.3)])
    assert math.acosh(minkowski_dot(t, t)) == 0.0


def test_distance_unit_example():
    t1 = np.array([math.cosh(1.0), math.sinh(1.0)])
    t2 = np.array([1.0, 0.0])
    assert abs(math.acosh(minkowski_dot(t1, t2)) - 1.0) < 1e-12


@given(st.floats(min_value=-2, max_value=2))
def test_distance_boost_invariance(chi):
    t1 = np.array([math.cosh(0.4), math.sinh(0.4)])
    t2 = np.array([math.cosh(-0.9), math.sinh(-0.9)])
    boost = lorentz_boost(chi, dim=2)
    d0 = math.acosh(minkowski_dot(t1, t2))
    d1 = math.acosh(minkowski_dot(boost @ t1, boost @ t2))
    assert abs(d0 - d1) < 1e-9


# ---------------------------------------------------------------------------
# Lorentz inclusion
# ---------------------------------------------------------------------------

def test_lorentz_inclusion_is_isometric():
    t2 = np.array([math.cosh(0.6), math.sinh(0.6)])
    t3 = np.array([math.cosh(0.2) * math.cosh(0.3), math.sinh(0.3), math.sinh(0.2) * math.cosh(0.3)])
    t3 /= math.sqrt(minkowski_dot(t3, t3))
    m = build_lorentz_inclusion(t2, t3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u, v = rng.normal(size=2), rng.normal(size=2)
        assert abs(minkowski_dot(m @ u, m @ v) - minkowski_dot(u, v)) < 1e-12
    assert np.max(np.abs(m @ t2 - t3)) < 1e-12


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mink_pair():
    c = reconstruct_timelike_2d(constant_curvature(1.0), 1.0)
    ct = reconstruct_timelike_3d(constant_curvature(0.5), linear_curvature(0.0, 1.0), 1.0)
    return c, ct


def test_census_without_smooth_samples_is_not_verified(mink_pair):
    c, ct = mink_pair
    nan_k = SampledFunction(ct.curvature.s_grid, np.full(len(ct.curvature), np.nan))
    rep = timelike_monotonicity(c, TimelikeCurve(ct.s, ct.position, ct.tangent, nan_k), 0.5)
    for name in ("curvature_dominance", "convexity"):
        assert rep.census.get(name).passed is None
    assert not rep.census.all_passed and not rep.passed


def test_monotonicity_planar_copy():
    c = reconstruct_timelike_2d(sinusoidal_curvature(0.6, 0.2), 1.5)
    rep = timelike_monotonicity(c, embed_timelike_2d(c), 0.75)
    assert np.max(np.abs(rep.derivative_slack)) < 1e-12
    assert rep.census.all_passed


def test_monotonicity_free_pivot(mink_pair):
    c, ct = mink_pair
    for s_star in (0.0, 0.25, 0.5, 1.0):
        rep = timelike_monotonicity(c, ct, s_star)
        assert rep.census.all_passed
        assert rep.min_slack >= -1e-6, s_star
        assert np.min(np.diff(rep.I_samples)) >= -1e-6


def test_monotonicity_cosh_oracle(mink_pair):
    # slack(s) = cosh(s - s*) - <T~(s), T~(s*)> >= cosh(s-s*) - cosh(|k~| |s-s*|)
    c, ct = mink_pair
    rep = timelike_monotonicity(c, ct, 0.5)
    row = c.nearest_row(0.5)
    lhs = np.cosh(c.s - c.s[row])
    floor = lhs - np.cosh(0.5 * np.abs(c.s - c.s[row]))
    assert np.all(rep.derivative_slack >= floor - 1e-9)


def test_monotonicity_census_violation(mink_pair):
    c, _ = mink_pair
    steep = reconstruct_timelike_3d(constant_curvature(2.0), linear_curvature(0.0, 1.0), 1.0)
    rep = timelike_monotonicity(c, steep, 0.5)
    assert not rep.census.get("curvature_dominance").passed


# ---------------------------------------------------------------------------
# reversed chord inequality
# ---------------------------------------------------------------------------

def test_reversed_chord_identical_planar():
    c = reconstruct_timelike_2d(constant_curvature(0.7), 1.2)
    rep = reversed_chord_inequality(c, embed_timelike_2d(c))
    assert abs(rep.slack) < 1e-12
    assert rep.passed


def test_reversed_chord_two_geodesics():
    c = reconstruct_timelike_2d(constant_curvature(0.0), 1.0)
    ct = reconstruct_timelike_3d(constant_curvature(0.0), constant_curvature(0.0), 1.0)
    rep = reversed_chord_inequality(c, ct)
    assert abs(rep.chord_c - 1.0) < 1e-12
    assert abs(rep.slack) < 1e-12


def test_reversed_chord_bent_vs_straight(mink_pair):
    # curvature 1 hyperbola: chord length sqrt(2 cosh 1 - 2) >= 1 (straight)
    c, _ = mink_pair
    straight = reconstruct_timelike_3d(constant_curvature(0.0), constant_curvature(0.0), 1.0)
    rep = reversed_chord_inequality(c, straight)
    assert abs(rep.chord_c - 1.0421906109874948) < 1e-9
    assert rep.slack >= 1.0421906109874948 - 1.0 - 1e-6
    assert rep.cauchy_schwarz_slack >= -1e-9


def test_reversed_chord_full_pair(mink_pair):
    c, ct = mink_pair
    rep = reversed_chord_inequality(c, ct)
    assert rep.passed
    assert rep.slack >= -1e-6
    assert rep.cauchy_schwarz_slack >= -1e-9


# ---------------------------------------------------------------------------
# Lorentz invariance
# ---------------------------------------------------------------------------

def test_reports_boost_invariant(mink_pair):
    # a common boost means the 3-space boost restricts to the plane boost,
    # i.e. its spatial direction is the embedded x axis
    c, ct = mink_pair
    base_m = timelike_monotonicity(c, ct, 0.5)
    base_r = reversed_chord_inequality(c, ct)
    for chi in (0.7, -1.2):
        b2 = lorentz_boost(chi, dim=2)
        b3 = lorentz_boost(chi, (1.0, 0.0), dim=3)
        cb, ctb = boost_curve(c, b2), boost_curve(ct, b3)
        m = timelike_monotonicity(cb, ctb, 0.5)
        r = reversed_chord_inequality(cb, ctb)
        assert abs(m.min_slack - base_m.min_slack) < 1e-6
        assert abs(r.slack - base_r.slack) < 1e-6
        assert abs(r.cauchy_schwarz_slack - base_r.cauchy_schwarz_slack) < 1e-6


def test_chord_lengths_boost_invariant_individually(mink_pair):
    # each curve's chord length survives any boost of its own space
    c, ct = mink_pair
    base = reversed_chord_inequality(c, ct)
    b2 = lorentz_boost(0.9, dim=2)
    b3 = lorentz_boost(-0.4, (0.6, 0.8), dim=3)
    rep = reversed_chord_inequality(boost_curve(c, b2), boost_curve(ct, b3))
    assert abs(rep.chord_c - base.chord_c) < 1e-9
    assert abs(rep.chord_c_tilde - base.chord_c_tilde) < 1e-9


def test_boost_matrix_is_lorentz():
    for dim, direction in ((2, None), (3, (0.8, 0.6))):
        b = lorentz_boost(0.9, direction, dim=dim)
        eta = np.diag([1.0] + [-1.0] * (dim - 1))
        assert np.max(np.abs(b.T @ eta @ b - eta)) < 1e-12


def test_reversed_chord_rejects_spacelike_chord():
    s = np.linspace(0.0, 1.0, 64)
    # fabricated samples whose endpoints differ space-like
    pos = np.column_stack([0.1 * s, s])
    tan = np.tile([1.0, 0.0], (64, 1))
    from schurkit.minkowski import TimelikeCurve
    from schurkit.numerics import SampledFunction

    bogus = TimelikeCurve(s, pos, tan, SampledFunction(s, np.zeros(64)))
    with pytest.raises(CausalError):
        reversed_chord_inequality(bogus, bogus)


def test_lorentz_projection_names_first_row_outside_cone():
    from schurkit.minkowski import _lorentz_project

    frames = np.tile(np.concatenate([np.zeros((1, 3)), np.eye(3)]), (4, 1, 1))
    frames[2, 1] = [0.5, 1.0, 0.0]
    frames[3, 1] = [0.1, 1.0, 0.0]
    with pytest.raises(CausalError, match="s=0.25"):
        _lorentz_project(np.array([0.0, 0.125, 0.25, 0.375]), frames)
