import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurkit.errors import BracketError, DomainError, GridError
from schurkit.numerics import (
    SampledFunction,
    StepControl,
    bisect_monotone,
    cumulative_integral_uniform,
    finite_diff,
    grid_step,
    integrate_sampled,
    nearest_index,
    pchip,
)

CONTROL = StepControl()


# ---------------------------------------------------------------------------
# StepControl
# ---------------------------------------------------------------------------

def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(step_h=0.0)
    with pytest.raises(ValueError):
        StepControl(tol=-1.0)
    with pytest.raises(ValueError):
        StepControl(samples_min=4)


def test_segment_steps_bounds():
    ctl = StepControl(step_h=1e-2)
    n = ctl.segment_steps(1.0)
    assert n == 100
    assert ctl.segment_steps(1e-4) == 16  # samples_min floor
    # effective step never exceeds step_h
    assert 1.0 / n <= ctl.step_h + 1e-15


# ---------------------------------------------------------------------------
# Simpson quadrature
# ---------------------------------------------------------------------------

def test_simpson_sine():
    s = np.linspace(0.0, math.pi, 3143)
    assert abs(integrate_sampled(s, np.sin(s)) - 2.0) < 1e-8


def test_simpson_zero():
    s = np.linspace(0.0, 1.0, 101)
    assert integrate_sampled(s, np.zeros(101)) == 0.0


def test_simpson_constant_is_length():
    length = 2.7
    s = np.linspace(0.0, length, 1001)
    val = integrate_sampled(s, np.ones(1001))
    assert abs(val - length) < 1e-13


def test_simpson_odd_interval_count():
    s = np.linspace(0.0, 1.0, 100)  # 99 intervals, 3/8 rule absorbs the tail
    assert abs(integrate_sampled(s, np.exp(s)) - (math.e - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# bisect_monotone
# ---------------------------------------------------------------------------

def test_bisect_sqrt2():
    root = bisect_monotone(lambda x: x * x - 2.0, (0.0, 2.0), tol=1e-10)
    assert abs(root - 1.4142135623730951) < 1e-9


def test_bisect_odd_linear():
    assert abs(bisect_monotone(lambda x: x, (-1.0, 1.0), tol=1e-12)) < 1e-11


@given(st.floats(min_value=-0.9, max_value=0.9))
def test_bisect_affine_recovers_shift(a):
    root = bisect_monotone(lambda x: x - a, (-1.0, 1.0), tol=1e-12)
    assert abs(root - a) < 1e-11


def test_bisect_bad_bracket():
    with pytest.raises(BracketError):
        bisect_monotone(lambda x: x + 5.0, (0.0, 1.0))


def test_bisect_bracket_independence():
    g = lambda x: x * x - 2.0
    r1 = bisect_monotone(g, (0.0, 2.0), tol=1e-12)
    r2 = bisect_monotone(g, (1.0, 1.5), tol=1e-12)
    assert abs(r1 - r2) < 1e-11


# ---------------------------------------------------------------------------
# finite_diff
# ---------------------------------------------------------------------------

def test_finite_diff_quadratic():
    s = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    d = finite_diff(SampledFunction(s, s**2), 1)
    assert np.max(np.abs(d.values - 2.0 * s)) < 1e-6


def test_finite_diff_constant_is_zero():
    s = np.linspace(0.0, 1.0, 200)
    d = finite_diff(SampledFunction(s, np.full(200, 7.0)), 1)
    assert np.max(np.abs(d.values)) < 1e-10


def test_finite_diff_second_order_sine():
    s = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    d2 = finite_diff(SampledFunction(s, np.sin(s)), 2)
    assert np.max(np.abs(d2.values + np.sin(s))) < 1e-4


def test_finite_diff_rejects_nonuniform():
    s = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
    with pytest.raises(GridError):
        finite_diff(SampledFunction(s, s), 1)


def test_finite_diff_vector_values():
    s = np.linspace(0.0, 1.0, 500)
    vals = np.column_stack([np.cos(s), np.sin(s)])
    d = finite_diff(SampledFunction(s, vals), 1)
    expect = np.column_stack([-np.sin(s), np.cos(s)])
    assert np.max(np.abs(d.values - expect)) < 1e-5


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_fundamental_theorem_roundtrip():
    s = np.arange(0.0, 2.0 + 1e-9, 1e-3)
    f = SampledFunction(s, np.sin(3.0 * s) + s**2)
    d = finite_diff(f, 1)
    total = integrate_sampled(d.s_grid, d.values)
    assert abs(total - (f.values[-1] - f.values[0])) < 1e-6


@given(
    st.floats(min_value=-0.4, max_value=0.4),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
def test_fundamental_theorem_roundtrip_cubics(a, b, c):
    # central-difference bias integrates to h^2/6 (f''(b) - f''(a)), so the
    # cubic coefficient is kept small enough for the 1e-6 budget at h = 1e-3
    s = np.linspace(0.0, 1.0, 1001)
    f = SampledFunction(s, a * s**3 + b * s**2 + c * s)
    d = finite_diff(f, 1)
    total = integrate_sampled(d.s_grid, d.values)
    assert abs(total - (f.values[-1] - f.values[0])) < 1e-6


def test_cumulative_integral_matches_simpson():
    s = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    vals = np.exp(s)
    cum = cumulative_integral_uniform(vals, 1e-3)
    assert abs(cum[-1] - (math.e - 1.0)) < 1e-11
    assert np.max(np.abs(cum - (np.exp(s) - 1.0))) < 1e-10


def test_integrate_sampled_piecewise_uniform():
    # two uniform pieces of different step joined at 0.5
    s = np.concatenate([np.linspace(0.0, 0.5, 251), np.linspace(0.5, 1.0, 501)[1:]])
    total = integrate_sampled(s, s**2)
    assert abs(total - 1.0 / 3.0) < 1e-9


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.0, 1.0]), np.zeros(3))


def test_grid_step_tolerates_representation_noise():
    s = 1.0 + 1e-3 * np.arange(1001)
    assert abs(grid_step(s) - 1e-3) < 1e-15


def test_nearest_index_ties_go_to_lower_row():
    grid = np.array([0.0, 1.0, 2.0, 2.0, 4.0])
    assert nearest_index(grid, 0.5) == 0
    assert nearest_index(grid, 1.5) == 1
    assert nearest_index(grid, 2.0) == 2  # duplicated row: the first copy
    assert nearest_index(grid, 3.0) == 3
    assert nearest_index(grid, -4.0) == 0
    assert nearest_index(grid, 9.0) == 4
    with pytest.raises(DomainError):
        nearest_index(np.empty(0), 0.0)


def test_nearest_index_of_an_array_matches_the_scan_of_each_value():
    grid = np.concatenate([np.linspace(0.0, 1.0, 11), [1.0], np.linspace(1.25, 3.0, 8)])
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(-1.0, 4.0, 400), grid, (grid[1:] + grid[:-1]) / 2,
                             [-np.inf, np.inf]])

    def scan(v):  # the nearest of rows i-1, i, i+1 around the insertion point, lowest first
        i = int(np.searchsorted(grid, v))
        lo = max(i - 1, 0)
        return lo + int(np.argmin(np.abs(grid[lo : i + 2] - v)))

    expected = [scan(v) for v in values]
    assert nearest_index(grid, values).tolist() == expected
    assert [nearest_index(grid, float(v)) for v in values] == expected


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("kind", ["random", "increasing", "flat-runs", "sign-changes", "zigzag"])
def test_pchip_matches_scipy_bit_for_bit(columns, kind):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(sum(map(ord, kind)) + (columns or 0))
    for n in (2, 3, 4, 17, 400):
        shape = (n,) if columns is None else (n, columns)
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        if kind == "random":
            y = rng.normal(size=shape)
        elif kind == "increasing":
            y = np.cumsum(rng.uniform(0.0, 1.0, shape), axis=0)
        elif kind == "flat-runs":
            y = np.cumsum(rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.4), axis=0)
        elif kind == "sign-changes":
            y = np.round(rng.normal(size=shape), 1)
        else:  # equal steps and alternating secants: the weighted mean is exactly 0
            x = np.arange(float(n))
            y = np.zeros(shape)
            y[1::2] = 1.0
        q = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 300)])
        expected = PchipInterpolator(x, y, axis=0)(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pchip(x, y)(q)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.array_equal(pchip(x, y)(x[1]), PchipInterpolator(x, y, axis=0)(x[1]))


def test_pchip_rejects_non_increasing_abscissae():
    with pytest.raises(ValueError):
        pchip(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        pchip(np.array([0.0]), np.zeros(1))
