"""Deterministic numerical kernel shared by every curve module.

Fixed-step RK4 (two array drivers that take all steps of a segment at
once), composite Simpson quadrature on sampled grids, monotone bisection
(one bracket, or many lane by lane), a monotone cubic interpolant (over a
grid, or on one cell per lane), and finite-difference derivatives. All
routines are pure functions of their inputs: two runs (and the two curves
of a comparison pair) see bit-identical grids, so pointwise inequality
checks never incur interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    GridError,
    IntegrationError,
    NormalizationError,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StepControl:
    """Grid policy shared by reconstructions and comparisons.

    ``step_h`` is an upper bound on the integration step: a smooth segment of
    length ``ell`` is covered with ``n = max(samples_min, ceil(ell/step_h))``
    uniform steps, so the effective step divides the segment exactly and is
    never larger than ``step_h``. ``tol`` is the slack tolerance used by the
    inequality checks downstream.
    """

    step_h: float = 1e-3
    tol: float = 1e-6
    samples_min: int = 16

    def __post_init__(self) -> None:
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.samples_min < 16:
            raise ValueError(f"samples_min must be >= 16, got {self.samples_min}")

    def segment_steps(self, length: float) -> int:
        """Number of uniform RK4 steps used to cover one smooth segment."""
        if not length > 0:
            raise ValueError(f"segment length must be positive, got {length}")
        return max(self.samples_min, int(math.ceil(length / self.step_h - 1e-12)))


DEFAULT_CONTROL = StepControl()

# Default tolerance of the measured-curvature comparisons; finite differences
# of sampled curves carry O(h^2) noise that the 1e-6 slack tolerance does not.
CURVATURE_TOL = 1e-4


def nearest_index(grid: np.ndarray, value):
    """Index of the grid point closest to ``value``; ties go to the lower index.

    ``value`` may be an array, giving an index array of its shape. ``grid``
    must be non-decreasing. Raises DomainError for an empty grid.
    """
    if len(grid) == 0:
        raise DomainError("cannot look up a row of an empty grid")
    value = np.asarray(value, dtype=float)
    i = grid.searchsorted(value)
    # rows i-1 and i bracket the value (grid[i-1] < value <= grid[i]) and row i+1 is
    # never nearer than row i; a tie goes to row i-1
    below, above = grid.take((i - 1, i), mode="clip")
    best = np.minimum(np.maximum(i - (value - below <= np.abs(above - value)), 0), len(grid) - 1)
    return int(best) if best.ndim == 0 else best


@dataclass
class SampledFunction:
    """Scalar or vector samples on a strictly increasing arc-length grid.

    NaN entries mark samples where the quantity is undefined (for example
    curvature at a tangent jump).
    """

    s_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.s_grid.ndim != 1:
            raise ValueError("s_grid must be one-dimensional")
        if len(self.s_grid) != len(self.values):
            raise ValueError(
                f"grid/value length mismatch: {len(self.s_grid)} vs {len(self.values)}"
            )
        if len(self.s_grid) >= 2 and not np.all(np.diff(self.s_grid) > 0):
            raise ValueError("s_grid must be strictly increasing")

    def __len__(self) -> int:
        return len(self.s_grid)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.s_grid[0]), float(self.s_grid[-1])

    def __call__(self, s):
        """Linear interpolation (per component for vector values)."""
        s = np.asarray(s, dtype=float)
        if self.values.ndim == 1:
            return np.interp(s, self.s_grid, self.values)
        cols = [np.interp(s, self.s_grid, col) for col in self.values.T]
        return np.stack(cols, axis=-1)

    def index_of(self, s: float, atol: float = 1e-9) -> int:
        """Index of the grid point equal to ``s`` (within ``atol``)."""
        best = nearest_index(self.s_grid, s)
        if not abs(self.s_grid[best] - s) <= atol * max(1.0, abs(s)):
            raise DomainError(f"s={s!r} is not a grid point of this sampled function")
        return best


# ---------------------------------------------------------------------------
# small vector helpers
# ---------------------------------------------------------------------------

def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-14:
        raise NormalizationError("cannot normalize a (near-)zero vector")
    return v / n


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of two (n, d) arrays.

    Each entry equals ``u[k] @ v[k]`` bit for bit: the stacked ``matmul``
    hands every row pair to the same dot kernel, where ``einsum`` and
    ``np.sum(u * v, axis=1)`` round differently on some rows.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of an (n, d) array scaled to unit length (einsum norms, so not
    ``unit`` bit for bit)."""
    n = np.sqrt(np.einsum("ij,ij->i", v, v))
    if np.any(n < 1e-14):
        raise NormalizationError("cannot normalize a (near-)zero vector")
    return v / n[:, None]


def orthonormal_rows(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise Gram-Schmidt of (n, 3) arrays: unit u, v made unit and
    orthogonal to u, and their cross product completing a right-handed frame."""
    u = _unit_rows(u)
    v = _unit_rows(v - np.einsum("ij,ij->i", v, u)[:, None] * u)
    return u, v, np.cross(u, v)


def orthonormal_complement(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to ``v``.

    Gram-Schmidt against a fixed reference axis (the last coordinate axis),
    falling back to the previous axis when nearly parallel.
    """
    v = unit(v)
    dim = v.shape[0]
    for k in range(dim - 1, -1, -1):
        r = np.zeros(dim)
        r[k] = 1.0
        w = r - np.dot(r, v) * v
        n = float(np.linalg.norm(w))
        if n > 1e-6:
            return w / n
    raise NormalizationError("no usable complement direction found")


# ---------------------------------------------------------------------------
# RK4 integration
# ---------------------------------------------------------------------------

# Steps per block of the array drivers. Their temporaries grow with the block,
# so the block bounds their memory whatever the segment. The frame driver's
# log-depth scan does log2(block) passes per step, hence its smaller block.
ANGLE_BLOCK = 4096
SCAN_BLOCK = 256


def _rk4_grid(span: tuple[float, float], control: StepControl) -> tuple[np.ndarray, float]:
    """Step points (both endpoints included) and step of the control's grid on ``span``."""
    a, b = float(span[0]), float(span[1])
    if not b > a:
        raise ValueError(f"span must satisfy b > a, got [{a}, {b}]")
    n = control.segment_steps(b - a)
    h = (b - a) / n
    s_grid = a + h * np.arange(n + 1)
    s_grid[-1] = b
    return s_grid, h


def _require_finite(s_grid: np.ndarray, states: np.ndarray, what: str = "state") -> None:
    """IntegrationError naming the first step point whose state is not finite."""
    bad = ~np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if bad.any():
        raise IntegrationError(f"non-finite {what} at s={s_grid[int(np.argmax(bad))]:.9g}")


def rk4_angle(
    rate: Callable,
    y0,
    span: tuple[float, float],
    control: StepControl = DEFAULT_CONTROL,
    trig: tuple[Callable, Callable] = (np.cos, np.sin),
) -> SampledFunction:
    """RK4 for (x, y, a)' = (cos a, sin a, rate(s)) with all steps at once.

    The angle's derivative does not depend on the state, so the angle is a
    running sum of the RK4 increments and the position a running sum of the
    matching combination of the four stage tangents, each summed in the
    classical RK4 step's operation order. Blocks of ``ANGLE_BLOCK`` steps
    continue the sums from the previous block's last row, which leaves them
    unchanged. ``rate`` must accept arrays; ``trig`` swaps (cos, sin) for
    (cosh, sinh) in the Minkowski plane. The grid is ``_rk4_grid``'s; raises
    IntegrationError at the first non-finite state.
    """
    y0 = np.asarray(y0, dtype=float)
    s_grid, h = _rk4_grid(span, control)
    _require_finite(s_grid[:1], y0[None], "initial state")
    n = len(s_grid) - 1
    out = np.empty((n + 1, 3))
    out[0] = y0
    for lo in range(0, n, ANGLE_BLOCK):
        hi = min(lo + ANGLE_BLOCK, n)
        s0 = s_grid[lo:hi]
        # the two midpoint stages evaluate the rate at the same point
        k1, k2, k4 = (np.asarray(rate(s), dtype=float) for s in (s0, s0 + 0.5 * h, s0 + h))
        rows = out[lo : hi + 1]
        rows[1:, 2] = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k2 + k4)
        np.cumsum(rows[:, 2], out=rows[:, 2])
        a = rows[:-1, 2]
        stages = (a, a + 0.5 * h * k1, a + 0.5 * h * k2, a + h * k2)
        for col, f in enumerate(trig):
            t1, t2, t3, t4 = (f(x) for x in stages)
            rows[1:, col] = (h / 6.0) * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
            np.cumsum(rows[:, col], out=rows[:, col])
        _require_finite(s_grid[lo + 1 : hi + 1], rows[1:])
    return SampledFunction(s_grid, out)


def rk4_frames(
    generator: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray, np.ndarray], None],
    frame0,
    span: tuple[float, float],
    control: StepControl = DEFAULT_CONTROL,
    check: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> SampledFunction:
    """RK4 for a linear frame system Y' = A(s) Y with all steps at once.

    ``frame0`` is the (m, d) initial frame and ``generator(s)`` returns the
    (len(s), m, m) matrices A at the given points. One RK4 step is
    Y_{n+1} = P_n Y_n with P_n = I + h/6 (A1 + 2 K2 + 2 K3 + A3 (I + h K3)),
    K2 = Am (I + h/2 A1) and K3 = Am (I + h/2 K2). Blocks of ``SCAN_BLOCK``
    propagators are built by batched products, multiplied into prefix
    products by a log-depth scan, and applied to the last state of the
    previous block. Per block, ``project(s, Y)`` repairs the new states in
    place after the scan (explicit RK4 does not keep a frame orthonormal, so
    every frame system needs one), and ``check(s_end, P)``, when given, sees
    the propagators (labelled by their step ends) before it; either may
    raise. Returns the (n+1, m, d) frames on ``_rk4_grid``'s grid;
    raises IntegrationError at the first non-finite state.
    """
    y0 = np.asarray(frame0, dtype=float)
    s_grid, h = _rk4_grid(span, control)
    _require_finite(s_grid[:1], y0[None], "initial state")
    n = len(s_grid) - 1
    eye = np.eye(len(y0))
    out = np.empty((n + 1,) + y0.shape)
    out[0] = y0
    for lo in range(0, n, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, n)
        s0 = s_grid[lo:hi]
        a1, am, a3 = generator(s0), generator(s0 + 0.5 * h), generator(s0 + h)
        k2 = am @ (eye + 0.5 * h * a1)
        k3 = am @ (eye + 0.5 * h * k2)
        p = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + a3 @ (eye + h * k3))
        if check is not None:
            check(s_grid[lo + 1 : hi + 1], p)
        shift = 1
        while shift < len(p):
            p[shift:] = p[shift:] @ p[:-shift]
            shift *= 2
        rows = out[lo + 1 : hi + 1]
        rows[...] = p @ out[lo]
        project(s_grid[lo + 1 : hi + 1], rows)
        _require_finite(s_grid[lo + 1 : hi + 1], rows)
    return SampledFunction(s_grid, out)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _uniform_runs(s: np.ndarray):
    """Yield (i0, i1) index ranges of maximal constant-spacing runs.

    The splitting threshold tolerates representation noise of the values so
    a nominally uniform grid never shatters into micro-runs.
    """
    d = np.diff(s)
    allow = 8.0 * np.finfo(float).eps * float(np.max(np.abs(s)))
    start = 0
    for i in range(1, len(d)):
        if abs(d[i] - d[start]) > max(1e-12 * abs(d[start]), allow):
            yield start, i
            start = i
    yield start, len(d)


def _simpson_uniform(v: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 rule absorbs an odd tail."""
    n = len(v) - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return 0.5 * h * (v[0] + v[1])
    if n % 2 == 0:
        return (h / 3.0) * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum())
    head = _simpson_uniform(v[: n - 2], h) if n > 3 else 0.0
    tail = (3.0 * h / 8.0) * (v[-4] + 3.0 * v[-3] + 3.0 * v[-2] + v[-1])
    return head + tail


def integrate_sampled(s: np.ndarray, v: np.ndarray) -> float:
    """Integrate samples over their full (piecewise-uniform) grid."""
    total = 0.0
    h_all = np.diff(s)
    for i0, i1 in _uniform_runs(s):
        total += _simpson_uniform(v[i0 : i1 + 1], float(h_all[i0]))
    return total


def cumulative_integral_uniform(v: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, 4th order (cubic cell weights).

    Returns an array of the same length as ``v`` starting at 0.
    """
    n = len(v)
    if n < 2:
        return np.zeros(n)
    if n < 4:
        cells = 0.5 * h * (v[1:] + v[:-1])
    else:
        cells = np.empty(n - 1)
        cells[0] = h * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3]) / 24.0
        cells[-1] = h * (v[-4] - 5.0 * v[-3] + 19.0 * v[-2] + 9.0 * v[-1]) / 24.0
        if n > 3:
            cells[1:-1] = (
                h * (-v[:-3] + 13.0 * v[1:-2] + 13.0 * v[2:-1] - v[3:]) / 24.0
            )
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def bisect_monotone(
    g: Callable[[float], float], bracket: tuple[float, float], tol: float = 1e-10
) -> float:
    """Bisection for a monotone non-decreasing ``g`` on ``bracket``.

    Stops when |g| <= tol or the bracket width drops below tol. Endpoints
    already within tol of zero are returned immediately; endpoints of the
    same sign beyond tol raise BracketError.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b >= a:
        raise ValueError(f"invalid bracket [{a}, {b}]")
    fa, fb = g(a), g(b)
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if fa * fb > 0.0:
        raise BracketError(
            f"bracket endpoints have the same sign: g({a})={fa:.3g}, g({b})={fb:.3g}"
        )
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = g(m)
        if abs(fm) <= tol or (b - a) <= tol:
            return m
        if fa * fm <= 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def bisect_lanes(
    f, target: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """``bisect_monotone`` on many brackets: lane k solves f(x)[k] = target[k] on [a[k], b[k]].

    ``f(x)`` evaluates every lane at its own abscissa, and ``f.take(idx)`` is
    ``f`` restricted to the lanes ``idx``; finished lanes are dropped that way,
    so each lane is evaluated exactly as often as ``bisect_monotone`` would.
    Every lane repeats its steps on ``g = f - target``: the endpoint checks,
    the midpoint sequence, the stopping rule and the 200-step cap, so the roots
    are the scalar ones. BracketError is raised for the first lane whose
    endpoints have the same sign.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    target = np.asarray(target, dtype=float)
    if not np.all(b >= a):
        k = int(np.argmin(b >= a))
        raise ValueError(f"invalid bracket [{float(a[k])}, {float(b[k])}]")
    fa, fb = f(a) - target, f(b) - target
    at_a, at_b = np.abs(fa) <= tol, np.abs(fb) <= tol
    roots = np.where(at_a, a, b)
    same_sign = ~(at_a | at_b) & (fa * fb > 0.0)
    if same_sign.any():
        k = int(np.argmax(same_sign))
        raise BracketError(
            f"bracket endpoints have the same sign: g({float(a[k])})={fa[k]:.3g}, "
            f"g({float(b[k])})={fb[k]:.3g}"
        )
    live = np.flatnonzero(~(at_a | at_b))
    f, target, a, b, fa = f.take(live), target[live], a[live], b[live], fa[live]
    for _ in range(200):
        if not live.size:
            return roots
        m = 0.5 * (a + b)
        fm = f(m) - target
        done = (np.abs(fm) <= tol) | ((b - a) <= tol)
        left = fa * fm <= 0.0
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
        if done.any():
            roots[live[done]] = m[done]
            keep = np.flatnonzero(~done)
            live, f, target = live[keep], f.take(keep), target[keep]
            a, b, fa = a[keep], b[keep], fa[keep]
    roots[live] = 0.5 * (a + b)
    return roots


# ---------------------------------------------------------------------------
# monotone cubic interpolation
# ---------------------------------------------------------------------------

def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the end cell's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip_interior_slope(h0, h1, m0, m1):
    """Fritsch-Butland slope at the knot between secants m0 (cell width h0) and m1 (h1).

    The weighted harmonic mean of the two secants, or zero at a local extremum
    or next to a flat secant.
    """
    w1, w2 = 2 * h1 + h0, h1 + 2 * h0
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m0 + w2 / m1) / (w1 + w2)
    same = (np.sign(m1) == np.sign(m0)) & (m1 != 0) & (m0 != 0)
    return np.divide(1.0, whmean, out=np.zeros_like(whmean), where=same)


def pchip(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Monotone piecewise-cubic Hermite interpolant of ``y`` (rows) over ``x``.

    Interior slopes are the Fritsch-Butland weighted harmonic means of the
    neighbouring secants (zero at a local extremum or a flat secant), end
    slopes are Moler's one-sided estimates. ``y`` may be (n,) or (n, d);
    queries off ``[x[0], x[-1]]`` extrapolate the end cubics. The slopes, the
    coefficients and the power-sum evaluation on left-closed cells repeat
    SciPy's ``PchipInterpolator`` operation for operation, so values agree
    bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or not np.all(np.diff(x) > 0):
        raise ValueError("pchip needs at least 2 strictly increasing abscissae")
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[0] = d[1] = m[0]
    else:
        d[1:-1] = _pchip_interior_slope(h[:-1], h[1:], m[:-1], m[1:])
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c2, c3 = (m - d[:-1]) / h - t, t / h

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        i = np.minimum(np.maximum(np.searchsorted(x, q, side="right") - 1, 0), len(x) - 2)
        u = (q - x[i]).reshape(q.shape + (1,) * (y.ndim - 1))
        # the accumulator starts at 0.0 as in PPoly, which turns -0.0 into 0.0
        return 0.0 + y[i] + d[i] * u + c2[i] * (u * u) + c3[i] * (u * u * u)

    return evaluate


@dataclass(frozen=True)
class CellCubics:
    """``pchip``'s cubic on one cell per lane, evaluated as ``pchip`` evaluates it.

    Lane k's cell is [x0[k], x1[k]]; ``y0``/``y1`` hold ``0.0 + y`` at its
    knots (the evaluation's accumulator starts at 0.0) and ``d``, ``c2``,
    ``c3`` the cubic's coefficients on the cell. Where ``right[k]`` is set the
    fit goes on past x1, and ``pchip`` evaluates a query at x1 on that next
    cell, where the cubic terms vanish and leave ``0.0 + y[x1]``.
    """

    x0: np.ndarray
    x1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    d: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    right: np.ndarray

    def _lanes(self, a: np.ndarray) -> np.ndarray:
        """Per-lane ``a`` shaped to broadcast against the values."""
        return a.reshape(a.shape + (1,) * (self.y0.ndim - 1))

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """Lane k's cubic at q[k]."""
        u = self._lanes(q - self.x0)
        v = self.y0 + self.d * u + self.c2 * (u * u) + self.c3 * (u * u * u)
        on_next = self.right & (q >= self.x1)
        return np.where(self._lanes(on_next), self.y1, v) if on_next.any() else v

    def take(self, idx) -> CellCubics:
        """The cubics of lanes ``idx``."""
        return CellCubics(*(getattr(self, f.name)[idx] for f in fields(self)))

    def columns(self, cols) -> CellCubics:
        """Every lane's cubics of the value columns ``cols`` (an index or a slice)."""
        return CellCubics(self.x0, self.x1, self.y0[:, cols], self.y1[:, cols], self.d[:, cols],
                          self.c2[:, cols], self.c3[:, cols], self.right)

    def lane(self, k: int) -> Callable[[float], float]:
        """Lane k's cubic of scalar values on Python floats: the same IEEE operations
        without array overheads, for a single bisection."""
        x0, x1, y0, y1, d, c2, c3, right = (getattr(self, f.name)[k].item() for f in fields(self))

        def cubic(q: float) -> float:
            if right and q >= x1:
                return y1
            u = q - x0
            return y0 + d * u + c2 * (u * u) + c3 * (u * u * u)

        return cubic


def pchip_cells(x: np.ndarray, y: np.ndarray, left: np.ndarray, right: np.ndarray) -> CellCubics:
    """``pchip``'s cubic on the middle cell of each lane's four knots.

    Lane k has knots ``x[k, 0..3]`` with values ``y[k, 0..3]`` (rows of
    (k, 4) or (k, 4, d) arrays), and its cell is [x[k, 1], x[k, 2]].
    ``left[k]`` / ``right[k]`` say whether knot 0 / knot 3 belongs to the
    lane's fit; where one does not, its entries are ignored and the slope on
    that side of the cell is the fit's end slope (or, with neither, the
    secant of a two-knot fit). Every lane repeats ``pchip``'s operations on
    its knots, and PCHIP slopes depend only on neighbouring secants, so each
    cubic is the one a fit over all of the lane's knots has on that cell,
    bit for bit.
    """
    values = (1,) * (y.ndim - 2)
    # the slopes at knots 1 and 2 side by side: knot 1 has secants (l, c) and its
    # outer knot on the left, knot 2 has secants (c, r) and its outer knot on the right
    outer = np.array((left, right)).T.reshape((-1, 2) + values)
    with np.errstate(divide="ignore", invalid="ignore"):  # ignored knots may repeat a neighbour
        h = np.diff(x, axis=1).reshape(x.shape[:1] + (3,) + values)
        m = np.diff(y, axis=1) / h
        # where a knot has no outer neighbour: the end slope towards the far knot, or the secant
        end = _pchip_end_slope(h[:, 1:2], h[:, ::-2], m[:, 1:2], m[:, ::-2])
        d = np.where(outer, _pchip_interior_slope(h[:, :2], h[:, 1:], m[:, :2], m[:, 1:]),
                     np.where(outer[:, ::-1], end, m[:, 1:2]))
    hc, mc, d0, d1 = h[:, 1], m[:, 1], d[:, 0], d[:, 1]
    t = (d0 + d1 - 2 * mc) / hc
    return CellCubics(x[:, 1], x[:, 2], 0.0 + y[:, 1], 0.0 + y[:, 2], d0,
                      (mc - d0) / hc - t, t / hc, right.reshape(-1))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def grid_step(s: np.ndarray) -> float:
    """Uniform spacing of a grid; GridError when not uniform within 1e-12.

    Representation noise is unavoidable: the spacings of a + i*h stored as
    doubles wobble by a few ulps of the *values*, so the tolerance combines
    the relative step bound with that floor.
    """
    if len(s) < 2:
        raise GridError("grid too short for a step size")
    d = np.diff(s)
    h = float(s[-1] - s[0]) / (len(s) - 1)
    allow = max(1e-12 * abs(h), 8.0 * np.finfo(float).eps * float(np.max(np.abs(s))))
    if np.max(np.abs(d - h)) > allow:
        raise GridError("grid is not uniform; resample before differentiating")
    return h


def finite_diff_array(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Central differences inside, one-sided 2nd-order stencils at the ends.

    ``values`` may be (n,) or (n, d); at least 5 rows are required.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 5:
        raise GridError(f"need at least 5 samples for finite differences, got {n}")
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    elif order == 2:
        h2 = h * h
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return out


def finite_diff(f: SampledFunction, order: int = 1) -> SampledFunction:
    """Derivative estimate of a sampled function on its own (uniform) grid."""
    h = grid_step(f.s_grid)
    return SampledFunction(f.s_grid, finite_diff_array(f.values, h, order))
