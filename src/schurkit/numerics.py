"""Deterministic numerical kernel shared by every curve module.

Fixed-step RK4 (two array drivers that take all steps of a segment at
once, and single steps of any length that extend a solution between its
grid points), one cumulative quadrature on uniform grids, monotone
bisection (one bracket, or many lane by lane), and finite-difference
derivatives. All routines are pure functions of their inputs: two runs
(and the two curves of a comparison pair) see bit-identical grids, so
pointwise inequality checks never incur interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
SAMPLES_MIN = 16  # fewest RK4 steps per smooth segment, whatever its length


@dataclass(frozen=True)
class StepControl:
    """Grid policy shared by reconstructions and comparisons.

    ``step_h`` is an upper bound on the integration step: a smooth segment of
    length ``ell`` is covered with ``n = max(SAMPLES_MIN, ceil(ell/step_h))``
    uniform steps, so the effective step divides the segment exactly and is
    never larger than ``step_h``.
    """

    step_h: float = 1e-3

    def __post_init__(self) -> None:
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")

    def segment_steps(self, length: float) -> int:
        """Number of uniform RK4 steps used to cover one smooth segment."""
        if not length > 0:
            raise ValueError(f"segment length must be positive, got {length}")
        return max(SAMPLES_MIN, int(math.ceil(length / self.step_h - 1e-12)))


DEFAULT_CONTROL = StepControl()

# Default slack tolerance of the inequality checks.
DEFAULT_TOL = 1e-6

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


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products of matching rows of two (n, 3) arrays.

    ``np.cross``'s own component formulas, without the axis moves that take
    most of its time on short rows, so equal to it bit for bit (signed zeros
    included).
    """
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    w = np.empty_like(u)
    w[:, 0] = u1 * v2 - u2 * v1
    w[:, 1] = u2 * v0 - u0 * v2
    w[:, 2] = u0 * v1 - u1 * v0
    return w


def orthonormal_rows(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise Gram-Schmidt of (n, 3) arrays: unit u, v made unit and
    orthogonal to u, and their cross product completing a right-handed frame.

    Written out per component, like ``cross_rows``, so that short rows pay no
    reduction or broadcasting overheads. NormalizationError when a row of u,
    or of v once u is taken out, is (nearly) zero.
    """
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    n = np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    if np.any(n < 1e-14):
        raise NormalizationError("cannot normalize a (near-)zero vector")
    u = np.empty_like(u)
    u[:, 0], u[:, 1], u[:, 2] = u0 / n, u1 / n, u2 / n
    u0, u1, u2 = u.T
    d = v0 * u0 + v1 * u1 + v2 * u2
    v0, v1, v2 = v0 - d * u0, v1 - d * u1, v2 - d * u2
    n = np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if np.any(n < 1e-14):
        raise NormalizationError("cannot normalize a (near-)zero vector")
    v = np.empty_like(u)
    v[:, 0], v[:, 1], v[:, 2] = v0 / n, v1 / n, v2 / n
    return u, v, cross_rows(u, v)


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
# so the block bounds their memory whatever the segment. The frame driver holds
# an (m, m) propagator per step, hence its smaller block; each of its blocks
# also pays a fixed cost (one generator call and the few dozen entry products
# of _entry_propagators), and a full block takes about 2 isqrt(SCAN_BLOCK)
# batched products (see _prefix_states).
ANGLE_BLOCK = 4096
SCAN_BLOCK = 2048


def _rk4_grid(span: tuple[float, float], control: StepControl) -> tuple[np.ndarray, float]:
    """Step points (both endpoints included) and step of the control's grid on ``span``.

    GridError when the span is too short for its steps to be distinct doubles.
    """
    a, b = float(span[0]), float(span[1])
    if not b > a:
        raise ValueError(f"span must satisfy b > a, got [{a}, {b}]")
    n = control.segment_steps(b - a)
    h = (b - a) / n
    s_grid = a + h * np.arange(n + 1)
    s_grid[-1] = b
    if not (np.diff(s_grid) > 0).all():
        raise GridError(f"segment [{a!r}, {b!r}] is too short for {n} distinct steps")
    return s_grid, h


def _require_finite(s_grid: np.ndarray, states: np.ndarray, what: str = "state") -> None:
    """IntegrationError naming the first step point whose state is not finite."""
    bad = ~np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if bad.any():
        raise IntegrationError(f"non-finite {what} at s={s_grid[int(np.argmax(bad))]:.9g}")


def _prefix_states(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The states ``p[k] @ ... @ p[0] @ y`` for every k, by a two-level blocked product.

    The (m, d, d) propagators are split into groups of isqrt(m) steps, the
    last one padded with identities. One batched ``matmul`` per position in
    the group forms every group's prefix products, the group totals carry the
    start state from group to group, and one batched ``matmul`` applies each
    group's prefixes, stacked as one (group d, d) matrix, to its start state:
    about two products per step, in about sqrt(m) + 1 batched calls and
    sqrt(m) single products.
    """
    m, d = len(p), p.shape[-1]
    group = math.isqrt(m)
    pad = np.broadcast_to(np.eye(d), (-m % group, d, d))
    q = np.concatenate((p, pad)).reshape(-1, group, d, d)
    for j in range(1, group):
        q[:, j] = q[:, j] @ q[:, j - 1]
    starts = np.empty((len(q),) + y.shape)
    starts[0] = y
    for i in range(1, len(q)):
        np.matmul(q[i - 1, -1], starts[i - 1], out=starts[i])
    return (q.reshape(len(q), group * d, d) @ starts).reshape((-1,) + y.shape)[:m]


def angle_step(rate: Callable, s0: np.ndarray, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 steps of a = rate(s) from the points s0 over h (a number, or one per
    point): the rate at the step starts and midpoints, and the increments of a, in the
    classical step's operation order (the two midpoint stages evaluate the rate at
    the same point). One ``rate`` call takes the starts, midpoints and ends together.
    """
    n = len(s0)
    k = np.asarray(rate(np.concatenate((s0, s0 + 0.5 * h, s0 + h))), dtype=float)
    if k.ndim == 0:  # a constant rate given as one number
        k = np.full(3 * n, k)
    k1, k2, k4 = k[:n], k[n : 2 * n], k[2 * n :]
    return k1, k2, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k2 + k4)


def rk4_angle(
    rate: Callable,
    y0,
    span: tuple[float, float],
    control: StepControl = DEFAULT_CONTROL,
    trig: tuple[Callable, Callable] = (np.cos, np.sin),
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for (x, y, a)' = (cos a, sin a, rate(s)) with all steps at once.

    The angle's derivative does not depend on the state, so the angle is a
    running sum of the RK4 increments and the position a running sum of the
    matching combination of the four stage tangents, each summed in the
    classical RK4 step's operation order. Blocks of ``ANGLE_BLOCK`` steps
    continue the sums from the previous block's last row, which leaves them
    unchanged. ``rate`` must accept arrays; ``trig`` swaps (cos, sin) for
    (cosh, sinh) in the Minkowski plane. Returns ``_rk4_grid``'s grid and the
    (n+1, 3) states on it; raises IntegrationError at the first non-finite
    state.
    """
    y0 = np.asarray(y0, dtype=float)
    s_grid, h = _rk4_grid(span, control)
    _require_finite(s_grid[:1], y0[None], "initial state")
    n = len(s_grid) - 1
    out = np.empty((n + 1, 3))
    out[0] = y0
    for lo in range(0, n, ANGLE_BLOCK):
        hi = min(lo + ANGLE_BLOCK, n)
        rows = out[lo : hi + 1]
        k1, k2, rows[1:, 2] = angle_step(rate, s_grid[lo:hi], h)
        np.cumsum(rows[:, 2], out=rows[:, 2])
        a = rows[:-1, 2]
        stages = (a, a + 0.5 * h * k1, a + 0.5 * h * k2, a + h * k2)
        for col, f in enumerate(trig):
            t1, t2, t3, t4 = (f(x) for x in stages)
            rows[1:, col] = (h / 6.0) * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
            np.cumsum(rows[:, col], out=rows[:, col])
        _require_finite(s_grid[lo + 1 : hi + 1], rows[1:])
    return s_grid, out


def _add_entry(entries: dict, key: tuple[int, int], x) -> None:
    """Add ``x`` to entry ``key`` of a matrix given by its entries (absent ones are zero)."""
    entries[key] = entries[key] + x if key in entries else x


def _entry_product(a: dict, b: dict) -> dict:
    """Entries ``{(i, j): values}`` of the product of two matrices given by their entries."""
    out = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if l == k:
                _add_entry(out, (i, j), x * y)
    return out


def _plus_identity(a: dict, c: float, m: int) -> dict:
    """Entries of I + c A for the (m, m) matrix A given by its entries."""
    out = {key: c * x for key, x in a.items()}
    for i in range(m):
        _add_entry(out, (i, i), 1.0)
    return out


def _entry_propagators(a1: dict, am: dict, a3: dict, h: float, nb: int, m: int) -> np.ndarray:
    """The (nb, m, m) RK4 propagators I + h/6 (A1 + 2 K2 + 2 K3 + A3 (I + h K3)).

    K2 = Am (I + h/2 A1) and K3 = Am (I + h/2 K2). The stage matrices are
    given by their entries (arrays over the steps, or constants), so every
    product works on the few entries that can be nonzero.
    """
    k2 = _entry_product(am, _plus_identity(a1, 0.5 * h, m))
    k3 = _entry_product(am, _plus_identity(k2, 0.5 * h, m))
    terms = ((a1, 1.0), (k2, 2.0), (k3, 2.0), (_entry_product(a3, _plus_identity(k3, h, m)), 1.0))
    total = {}
    for entries, w in terms:
        for key, x in entries.items():
            _add_entry(total, key, x if w == 1.0 else w * x)
    p = np.zeros((nb, m, m))
    p[:, range(m), range(m)] = 1.0
    for (i, j), x in total.items():
        p[:, i, j] += (h / 6.0) * x
    return p


def rk4_frame_step(generator: Callable, frames: np.ndarray, s0: np.ndarray,
                   delta: np.ndarray) -> np.ndarray:
    """Lane k's (m, d) frame moved by one classical RK4 step of Y' = A(s) Y of length
    delta[k] from s0[k], with ``rk4_frames``' generator and stage points.

    The stages act on the frames through lane-wise (m, m) matrices A, so a step
    costs a few dozen array operations however many lanes it takes, and each
    lane's result does not depend on the others. It is ``rk4_frames``' step
    P Y up to rounding (before the projection ``rk4_frames`` applies), and a step of zero
    length returns the frame itself.
    """
    n, m = frames.shape[:2]
    a = np.zeros((3, n, m, m))  # A at the step starts, midpoints and ends
    for (i, j), x in generator(np.concatenate((s0, s0 + 0.5 * delta, s0 + delta))).items():
        a[:, :, i, j] = x if np.ndim(x) == 0 else x.reshape(3, n)
    a1, am, a3 = a
    h = delta[:, None, None]
    k1 = a1 @ frames
    k2 = am @ (frames + 0.5 * h * k1)
    k3 = am @ (frames + 0.5 * h * k2)
    k4 = a3 @ (frames + h * k3)
    return frames + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_frames(
    generator: Callable[[np.ndarray], dict],
    project: Callable[[np.ndarray, np.ndarray], None],
    frame0,
    span: tuple[float, float],
    control: StepControl = DEFAULT_CONTROL,
    check: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for a linear frame system Y' = A(s) Y with all steps at once.

    ``frame0`` is the (m, d) initial frame and ``generator(s)`` returns the
    entries of A that can be nonzero, as ``{(i, j): values}`` with values an
    array over ``s`` or a float constant. One RK4 step is
    Y_{n+1} = P_n Y_n with P_n = I + h/6 (A1 + 2 K2 + 2 K3 + A3 (I + h K3)),
    K2 = Am (I + h/2 A1) and K3 = Am (I + h/2 K2). Per block of
    ``SCAN_BLOCK`` steps the generator is called once, on the block's step
    starts, midpoints and ends in that order; the propagators are built from
    its entries (``_entry_propagators``) and applied to the last state of the
    previous block by ``_prefix_states``, in groups of isqrt(block) steps.
    Per block, ``project(s, Y)`` repairs the new states in place after the
    products (explicit RK4 does not keep a frame orthonormal, so every frame
    system needs one), and ``check(s_end, P)``, when given, sees the
    (nb, m, m) propagators (labelled by their step ends) before them; either
    may raise. Returns ``_rk4_grid``'s grid and the (n+1, m, d) frames on it;
    raises IntegrationError at the first non-finite state.
    """
    y0 = np.asarray(frame0, dtype=float)
    s_grid, h = _rk4_grid(span, control)
    _require_finite(s_grid[:1], y0[None], "initial state")
    n, m = len(s_grid) - 1, len(y0)
    out = np.empty((n + 1,) + y0.shape)
    out[0] = y0
    for lo in range(0, n, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, n)
        s0, nb = s_grid[lo:hi], hi - lo
        entries = generator(np.concatenate((s0, s0 + 0.5 * h, s0 + h)))
        a1, am, a3 = (
            {key: x if np.ndim(x) == 0 else x[k * nb : (k + 1) * nb] for key, x in entries.items()}
            for k in range(3)
        )
        p = _entry_propagators(a1, am, a3, h, nb, m)
        if check is not None:
            check(s_grid[lo + 1 : hi + 1], p)
        rows = out[lo + 1 : hi + 1]
        rows[...] = _prefix_states(p, out[lo])
        project(s_grid[lo + 1 : hi + 1], rows)
        _require_finite(s_grid[lo + 1 : hi + 1], rows)
    return s_grid, out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

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
        cells[1:-1] = h * (-v[:-3] + 13.0 * v[1:-2] + 13.0 * v[2:-1] - v[3:]) / 24.0
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

