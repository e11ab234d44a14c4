"""The array RK4 drivers against the per-step reference loop ``rk4_integrate``.

``rk4_integrate`` (defined and tested here, on the drivers' grid), the
scalar fields and the per-step repair hooks below are the forms the array
drivers replaced; they stay here as the reference the drivers must match.
"""

import math
from functools import partial

import numpy as np
import pytest

from schurkit import numerics
from schurkit.curves import (
    CurvatureProfile,
    constant_curvature,
    linear_curvature,
    reconstruct_piecewise,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
)
from schurkit.errors import CausalError, IntegrationError
from schurkit.minkowski import _lorentz_project, minkowski_dot, reconstruct_timelike_3d
from schurkit.numerics import (
    DEFAULT_CONTROL,
    StepControl,
    _require_finite,
    _rk4_grid,
    rk4_angle,
    rk4_frames,
    unit,
)
from schurkit.sphere import reconstruct_spherical
from conftest import assert_valid_curve


# ---------------------------------------------------------------------------
# the per-step reference loop
# ---------------------------------------------------------------------------

def rk4_integrate(field, y0, span, control=DEFAULT_CONTROL,
                  post_step=None) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 over ``span``, one step at a time, on ``_rk4_grid``'s grid.

    ``post_step(s, y)`` (when given) may repair the state after every step,
    e.g. re-orthonormalize a moving frame; its return value replaces ``y``.
    Returns the grid and the states at every step point, both endpoints
    included, as the array drivers do.
    Raises IntegrationError the moment the state stops being finite.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    scalar = np.ndim(y0) == 0
    s_grid, h = _rk4_grid(span, control)
    _require_finite(s_grid[:1], y[None], "initial state")
    n = len(s_grid) - 1
    out = np.empty((n + 1, y.size))
    out[0] = y

    for i in range(n):
        s = s_grid[i]
        k1 = np.asarray(field(s, y), dtype=float)
        k2 = np.asarray(field(s + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(field(s + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(field(s + h, y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post_step is not None:
            y = post_step(s_grid[i + 1], y)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at s={s_grid[i + 1]:.9g}")
        out[i + 1] = y

    return s_grid, out[:, 0] if scalar else out


CONTROL = StepControl()


def test_rk4_exponential():
    _, traj = rk4_integrate(lambda s, y: y, 1.0, (0.0, 1.0), CONTROL)
    assert abs(traj[-1] - math.e) < 1e-9


def test_rk4_zero_field_constant():
    _, traj = rk4_integrate(lambda s, y: 0.0 * y, 3.25, (0.0, 2.0), CONTROL)
    assert np.all(traj == 3.25)


def test_rk4_rotation_returns_home():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    _, traj = rk4_integrate(lambda s, y: j @ y, np.array([1.0, 0.0]), (0.0, 2 * math.pi), CONTROL)
    assert np.linalg.norm(traj[-1] - np.array([1.0, 0.0])) < 1e-6


def test_rk4_includes_both_endpoints():
    s_grid, _ = rk4_integrate(lambda s, y: y, 1.0, (0.25, 1.75), CONTROL)
    assert s_grid[0] == 0.25
    assert s_grid[-1] == 1.75


def test_rk4_nonfinite_field_names_location():
    def fld(s, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return y / (0.5 - s)

    with pytest.raises(IntegrationError) as err:
        rk4_integrate(fld, 1.0, (0.0, 1.0), CONTROL)
    assert "s=" in str(err.value)


def test_rk4_post_step_hook():
    # renormalize a rotating unit vector every step
    j = np.array([[0.0, -1.0], [1.0, 0.0]])

    def repair(s, y):
        return y / np.linalg.norm(y)

    _, traj = rk4_integrate(lambda s, y: j @ y, np.array([1.0, 0.0]), (0.0, 10.0), CONTROL, repair)
    norms = np.linalg.norm(traj, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# angle geometries
# ---------------------------------------------------------------------------

FAMILIES = {
    "constant": constant_curvature(0.9),
    "linear": linear_curvature(0.4, 0.3),
    "sinusoidal": sinusoidal_curvature(0.8, 0.5, 2.0, 0.3),
    "tabulated": tabulated_curvature([[0.0, 0.5], [0.7, 1.4], [1.6, 0.2], [3.0, 0.9]]),
}
TRIG = {"plane": (math.cos, math.sin), "minkowski2": (math.cosh, math.sinh)}
NP_TRIG = {"plane": (np.cos, np.sin), "minkowski2": (np.cosh, np.sinh)}


def _turn(idx, state):
    state[2] += (0.4, 0.7)[idx]
    return state


@pytest.mark.parametrize("geometry", sorted(TRIG))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_angle_driver_matches_loop(family, geometry):
    k, (cos, sin) = FAMILIES[family], TRIG[geometry]

    def fld(s, y):
        return np.array([cos(y[2]), sin(y[2]), float(k(s))])

    def loop(state, span, control):
        return rk4_integrate(fld, state, span, control)

    intervals = [(0.0, 0.8), (0.8, 2.1), (2.1, 3.0)]
    driver = partial(rk4_angle, k, trig=NP_TRIG[geometry])
    s_ref, y_ref, marks_ref = reconstruct_piecewise(loop, [0.3, -0.2, 0.1], intervals, _turn)
    s, y, marks = reconstruct_piecewise(driver, [0.3, -0.2, 0.1], intervals, _turn)
    assert np.array_equal(s, s_ref) and np.array_equal(marks, marks_ref)
    assert np.max(np.abs(y - y_ref)) <= 1e-14


@pytest.mark.parametrize("geometry", sorted(TRIG))
def test_angle_blocks_continue_the_running_sums(geometry, monkeypatch):
    args = (FAMILIES["sinusoidal"], [0.3, -0.2, 0.1], (0.0, 3.0))
    _, whole = rk4_angle(*args, trig=NP_TRIG[geometry])
    assert len(whole) - 1 <= numerics.ANGLE_BLOCK
    monkeypatch.setattr(numerics, "ANGLE_BLOCK", 7)
    assert np.array_equal(rk4_angle(*args, trig=NP_TRIG[geometry])[1], whole)


# ---------------------------------------------------------------------------
# frame geometries: the replaced scalar fields and per-step hooks
# ---------------------------------------------------------------------------

def _frenet_field(k, tau):
    def fld(s, y):
        kk, tt = float(k(s)), float(tau(s))
        dy = np.empty(12)
        dy[0:3] = y[3:6]
        dy[3:6] = kk * y[6:9]
        dy[6:9] = -kk * y[3:6] + tt * y[9:12]
        dy[9:12] = -tt * y[6:9]
        return dy

    return fld


def _frenet_post_step(s, y):
    t = unit(y[3:6])
    n = unit(y[6:9] - np.dot(y[6:9], t) * t)
    y[3:6], y[6:9], y[9:12] = t, n, np.cross(t, n)
    return y


def _sphere_field(kg):
    def fld(s, y):
        k = float(kg(s))
        dy = np.empty(9)
        dy[0:3] = y[3:6]
        dy[3:6] = k * y[6:9] - y[0:3]
        dy[6:9] = -k * y[3:6]
        return dy

    return fld


def _sphere_post_step(s, y):
    c = unit(y[0:3])
    t = unit(y[3:6] - (y[3:6] @ c) * c)
    y[0:3], y[3:6], y[6:9] = c, t, np.cross(c, t)
    return y


def _lorentz_field(k, spin):
    def fld(s, y):
        kk, psi = float(k(s)), float(spin(s))
        cpsi, spsi = math.cos(psi), math.sin(psi)
        dy = np.empty(12)
        dy[0:3] = y[3:6]
        dy[3:6] = kk * (cpsi * y[6:9] + spsi * y[9:12])
        dy[6:9] = kk * cpsi * y[3:6]
        dy[9:12] = kk * spsi * y[3:6]
        return dy

    return fld


def _lorentz_post_step(s, y):
    t = y[3:6] / math.sqrt(minkowski_dot(y[3:6], y[3:6]))
    e1 = y[6:9] - minkowski_dot(y[6:9], t) * t
    e1 = e1 / math.sqrt(-minkowski_dot(e1, e1))
    e2 = y[9:12] - minkowski_dot(y[9:12], t) * t + minkowski_dot(y[9:12], e1) * e1
    e2 = e2 / math.sqrt(-minkowski_dot(e2, e2))
    y[3:6], y[6:9], y[9:12] = t, e1, e2
    return y


K = sinusoidal_curvature(1.2, 0.5, 2.0)
SPIN = linear_curvature(0.3, 0.8)
FRAME0 = np.concatenate([np.zeros(3), np.eye(3).ravel()])

# geometry -> (reconstruction through the driver, reference field, reference hook, y0)
FRAME_CASES = {
    "space3": (
        lambda L, ctl: reconstruct_space_profile(CurvatureProfile(L, K), SPIN, control=ctl),
        _frenet_field(K, SPIN), _frenet_post_step, FRAME0,
    ),
    "sphere": (
        lambda L, ctl: reconstruct_spherical(K, (), L, control=ctl),
        _sphere_field(K), _sphere_post_step, np.eye(3).ravel(),
    ),
    "minkowski3": (
        lambda L, ctl: reconstruct_timelike_3d(K, SPIN, L, control=ctl),
        _lorentz_field(K, SPIN), _lorentz_post_step, FRAME0,
    ),
}


def _curve_states(curve):
    cols = [curve.position, curve.tangent]
    if getattr(curve, "normal", None) is not None:
        cols.append(curve.normal)
    return np.hstack(cols)


@pytest.mark.parametrize("geometry", sorted(FRAME_CASES))
def test_frame_driver_matches_loop(geometry):
    build, fld, hook, y0 = FRAME_CASES[geometry]
    control = StepControl()
    curve = build(2.5, control)
    ref_s, ref = rk4_integrate(fld, y0.copy(), (0.0, 2.5), control, hook)
    states = _curve_states(curve)
    ref_states = ref[:, : states.shape[1]]
    assert np.array_equal(curve.s, ref_s)
    # Lorentz frames grow like cosh of the rapidity: the bound is relative
    assert np.max(np.abs(states - ref_states)) <= 1e-12 * max(1.0, np.max(np.abs(ref_states)))


def _small_groups(monkeypatch):
    """Blocks of 50 steps: groups of 7 with a ragged last group (50 = 7 * 7 + 1)."""
    monkeypatch.setattr(numerics, "SCAN_BLOCK", 50)
    assert math.isqrt(numerics.SCAN_BLOCK) == 7


@pytest.mark.parametrize("geometry", sorted(FRAME_CASES))
def test_frame_groups_continue_the_products(geometry, monkeypatch):
    # 2540 steps: 50 full blocks, then a last block of 40 in groups of 6 (40 = 6 * 6 + 4)
    build, fld, hook, y0 = FRAME_CASES[geometry]
    control = StepControl()
    _, ref = rk4_integrate(fld, y0.copy(), (0.0, 2.54), control, hook)
    _small_groups(monkeypatch)
    states = _curve_states(build(2.54, control))
    ref_states = ref[:, : states.shape[1]]
    assert np.max(np.abs(states - ref_states)) <= 1e-12 * max(1.0, np.max(np.abs(ref_states)))


@pytest.mark.parametrize("geometry", sorted(FRAME_CASES))
def test_frame_driver_is_fourth_order(geometry):
    build = FRAME_CASES[geometry][0]
    h = 0.04
    fine = _curve_states(build(2.0, StepControl(step_h=h / 32)))
    errors = [
        np.max(np.abs(_curve_states(build(2.0, StepControl(step_h=step))) - fine[::stride]))
        for step, stride in ((h, 32), (h / 2, 16))
    ]
    order = math.log2(errors[0] / errors[1])
    assert 3.7 <= order <= 4.3


# ---------------------------------------------------------------------------
# the generator's entries against the dense propagator formula
# ---------------------------------------------------------------------------

# geometry -> (m, entries of A from two coefficient arrays); each pattern holds
# float constants besides its arrays
ENTRY_PATTERNS = {
    "space3": (4, lambda k, t: {(0, 1): 1.0, (1, 2): k, (2, 1): -k, (2, 3): 0.7, (3, 2): -0.7}),
    "sphere": (3, lambda k, t: {(0, 1): 1.0, (1, 0): -1.0, (1, 2): k, (2, 1): -k}),
    "minkowski3": (4, lambda k, t: {(0, 1): 1.0, (1, 2): k, (2, 1): k, (1, 3): t, (3, 1): t}),
}


def _dense(entries, n, m):
    a = np.zeros((n, m, m))
    for (i, j), x in entries.items():
        a[:, i, j] = x
    return a


@pytest.mark.parametrize("geometry", sorted(ENTRY_PATTERNS))
def test_entry_propagators_match_the_dense_formula(geometry):
    m, pattern = ENTRY_PATTERNS[geometry]
    rng = np.random.default_rng(len(geometry))
    span = (0.0, 2 * numerics.SCAN_BLOCK * 1e-3 + 0.1)  # two full blocks and one of 100 steps
    s_grid, h = _rk4_grid(span, DEFAULT_CONTROL)
    calls, propagators = [], []

    def generator(s):
        entries = pattern(*rng.uniform(-3.0, 3.0, (2, len(s))))
        calls.append((s, entries))
        return entries

    rk4_frames(generator, _no_projection, np.eye(m)[:, :2], span,
               check=lambda s_end, p: propagators.append(p.copy()))
    sizes = [numerics.SCAN_BLOCK, numerics.SCAN_BLOCK, 100]
    assert [len(s) for s, _ in calls] == [3 * nb for nb in sizes]
    eye = np.eye(m)
    for lo, nb, (s, entries), p in zip(np.cumsum([0] + sizes), sizes, calls, propagators):
        s0 = s_grid[lo : lo + nb]
        assert np.array_equal(s, np.concatenate((s0, s0 + 0.5 * h, s0 + h)))
        a1, am, a3 = np.split(_dense(entries, 3 * nb, m), 3)
        k2 = am @ (eye + 0.5 * h * a1)
        k3 = am @ (eye + 0.5 * h * k2)
        dense = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + a3 @ (eye + h * k3))
        assert p.shape == (nb, m, m)
        assert np.max(np.abs(p - dense)) <= 1e-15 * np.max(np.abs(dense))


# ---------------------------------------------------------------------------
# high curvature: the per-block projection keeps the frames the checks expect
# ---------------------------------------------------------------------------

def test_sphere_high_curvature_keeps_frame():
    curve = reconstruct_spherical(constant_curvature(80.0), (), 1.5)
    assert curve.frame_drift() <= 1e-9


def test_space3_high_curvature_validates():
    curve = reconstruct_space_profile(
        CurvatureProfile(3.0, constant_curvature(40.0)), constant_curvature(3.0)
    )
    # the unit-tangent bound (1e-9) is under test; the finite-difference
    # check of x' = T carries a truncation error of about h^2 k^2 / 6 = 2.7e-4
    assert_valid_curve(curve, tol_tangent=1e-3)


# ---------------------------------------------------------------------------
# failures name the same place as the loop
# ---------------------------------------------------------------------------

def _blows_up(s):
    return np.where(np.asarray(s) > 0.5, np.inf, 1.0)


def _message(call):
    with pytest.raises(IntegrationError) as err, np.errstate(invalid="ignore", over="ignore"):
        call()
    return str(err.value)


def _no_projection(s, frames):
    return None


def test_drivers_name_first_non_finite_state():
    span = (0.0, 1.0)
    loop_angle = _message(lambda: rk4_integrate(
        lambda s, y: np.array([np.cos(y[2]), np.sin(y[2]), float(_blows_up(s))]),
        [0.0, 0.0, 0.0], span))
    assert _message(lambda: rk4_angle(_blows_up, [0.0, 0.0, 0.0], span)) == loop_angle

    def generator(s):
        return {(0, 1): _blows_up(s), (1, 0): -_blows_up(s)}

    loop_frame = _message(lambda: rk4_integrate(
        lambda s, y: float(_blows_up(s)) * np.array([y[1], -y[0]]), [1.0, 0.0], span))
    assert _message(lambda: rk4_frames(generator, _no_projection, np.eye(2)[:, :1], span)) == loop_frame


def test_frame_failures_in_a_later_group_name_the_first_step(monkeypatch):
    # s = 0.538 ends step 537, the third step of group 5 in the block of steps 500..549
    def blows_up(s):
        return np.where(np.asarray(s) > 0.5372, np.inf, 1.0)

    def rotation(s):
        return {(0, 1): blows_up(s), (1, 0): -blows_up(s)}

    def leaves_cone(s):
        # x' = T, then T' = 1e4 E1 from s = 0.5372: one step pushes T out of the cone
        return {(0, 1): 1.0, (1, 2): np.where(s > 0.5372, 1e4, 0.0)}

    loop = _message(lambda: rk4_integrate(
        lambda s, y: float(blows_up(s)) * np.array([y[1], -y[0]]), [1.0, 0.0], (0.0, 1.0)))
    assert "s=0.538" in loop
    frame0 = np.concatenate([np.zeros((1, 3)), np.eye(3)])
    _small_groups(monkeypatch)
    assert _message(lambda: rk4_frames(rotation, _no_projection, np.eye(2)[:, :1], (0.0, 1.0))) == loop
    with pytest.raises(CausalError, match=r"cone at s=0\.538$"):
        rk4_frames(leaves_cone, _lorentz_project, frame0, (0.0, 1.0))
