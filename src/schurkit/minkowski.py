"""Time-like curves in the Minkowski plane and 3-space, signature (+, -, -).

Unit time-like tangents live on the upper hyperboloid <T, T> = 1, t > 0;
the hyperbolic distance between two of them is arccosh of their Minkowski
product. For a plane time-like curve the tangent is (cosh phi, sinh phi)
with rapidity phi' = k, which makes the comparison with a space companion
of smaller curvature a cosh comparison, and the chord inequality comes out
*reversed* relative to the Euclidean case because Cauchy-Schwarz reverses
for time-like vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .curves import SampledCurve, _require_aligned, reconstruct_piecewise
from .errors import AlignmentError, CausalError, NormalizationError, ProfileError
from .numerics import (
    CURVATURE_TOL,
    DEFAULT_CONTROL,
    SampledFunction,
    StepControl,
    finite_diff_array,
    grid_step,
    rk4_angle,
    rk4_frames,
)
from .reports import Census, worst_dominance

__all__ = [
    "TimelikeCurve",
    "TimelikeMonotonicityReport",
    "ReversedChordReport",
    "minkowski_dot",
    "minkowski_norm",
    "reconstruct_timelike_2d",
    "reconstruct_timelike_3d",
    "timelike_monotonicity",
    "reversed_chord_inequality",
    "build_lorentz_inclusion",
    "lorentz_boost",
    "boost_curve",
    "embed_timelike_2d",
]

DEFAULT_TOL = DEFAULT_CONTROL.tol


def minkowski_dot(u, v) -> float | np.ndarray:
    """<u, v> = u_t v_t - u_x v_x (- u_y v_y), broadcasting over rows."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise AlignmentError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    prod = u[..., 0] * v[..., 0] - np.sum(u[..., 1:] * v[..., 1:], axis=-1)
    return float(prod) if prod.ndim == 0 else prod


def minkowski_norm(v) -> float:
    """Length sqrt(<v, v>) of a time-like vector."""
    q = minkowski_dot(v, v)
    if q < 0:
        raise CausalError(f"vector is space-like (<v,v> = {q:.6g}); no time-like length")
    return math.sqrt(q)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class TimelikeCurve(SampledCurve):
    """Jump-free arc-length samples of a time-like curve with <T, T> = 1.

    Adds the measured curvature and, for plane curves, the rapidity to the
    sampled position and tangent.
    """

    def __init__(
        self,
        s,
        position,
        tangent,
        curvature: SampledFunction,
        rapidity: np.ndarray | None = None,
    ) -> None:
        super().__init__(s, position, tangent)
        self.curvature = curvature
        self.rapidity = rapidity

    def tangent_norm_drift(self) -> float:
        return float(np.max(np.abs(minkowski_dot(self.tangent, self.tangent) - 1.0)))

    def future_directed(self) -> bool:
        return bool(np.all(self.tangent[:, 0] > 0))


def reconstruct_timelike_2d(
    k: Callable,
    length: float,
    rapidity0: float = 0.0,
    start: Sequence[float] = (0.0, 0.0),
    control: StepControl = DEFAULT_CONTROL,
) -> TimelikeCurve:
    """Plane time-like curve with rapidity phi' = k and T = (cosh phi, sinh phi)."""
    y0 = np.array([float(start[0]), float(start[1]), float(rapidity0)])
    integrate = partial(rk4_angle, k, trig=(np.cosh, np.sinh))
    s, vals, _ = reconstruct_piecewise(integrate, y0, [(0.0, length)], None, control)
    phi = vals[:, 2]
    tangent = np.column_stack([np.cosh(phi), np.sinh(phi)])
    measured = finite_diff_array(phi, grid_step(s), 1)
    return TimelikeCurve(s, vals[:, 0:2], tangent, SampledFunction(s, measured), rapidity=phi)


def _lorentz_project(s: np.ndarray, frames: np.ndarray) -> None:
    """Lorentz-orthonormalize (x, T, E1, E2) frame rows in place.

    CausalError names the first ``s`` whose T left the time-like cone.
    """
    q = minkowski_dot(frames[:, 1], frames[:, 1])
    outside = q <= 0
    if outside.any():
        where = s[int(np.argmax(outside))]
        raise CausalError(f"tangent left the time-like cone at s={where:.6g}")
    t = frames[:, 1] / np.sqrt(q)[:, None]
    e1 = frames[:, 2] - minkowski_dot(frames[:, 2], t)[:, None] * t
    e1 = e1 / np.sqrt(-minkowski_dot(e1, e1))[:, None]
    e2 = (frames[:, 3] - minkowski_dot(frames[:, 3], t)[:, None] * t
          + minkowski_dot(frames[:, 3], e1)[:, None] * e1)
    e2 = e2 / np.sqrt(-minkowski_dot(e2, e2))[:, None]
    frames[:, 1], frames[:, 2], frames[:, 3] = t, e1, e2


_L3_FRAME = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


def reconstruct_timelike_3d(
    k: Callable,
    spin: Callable,
    length: float,
    start: Sequence[float] = (0.0, 0.0, 0.0),
    frame0: tuple | None = None,
    control: StepControl = DEFAULT_CONTROL,
) -> TimelikeCurve:
    """Space time-like curve of prescribed curvature magnitude |T'| = |k|.

    T' = k (cos(psi) E1 + sin(psi) E2) with {E1, E2} a space-like frame
    Lorentz-orthogonal to T, transported so the frame stays orthonormal;
    the spin psi(s) steers the bending direction (constant spin keeps the
    curve planar, mirroring torsion's role for Euclidean space curves).
    """
    t0, e10, e20 = frame0 if frame0 is not None else _L3_FRAME
    t0 = np.asarray(t0, dtype=float)
    e10, e20 = np.asarray(e10, dtype=float), np.asarray(e20, dtype=float)
    if abs(minkowski_dot(t0, t0) - 1.0) > 1e-9 or t0[0] <= 0:
        raise CausalError("initial tangent must be future unit time-like")
    gram_err = max(
        abs(minkowski_dot(e10, e10) + 1.0),
        abs(minkowski_dot(e20, e20) + 1.0),
        abs(minkowski_dot(t0, e10)),
        abs(minkowski_dot(t0, e20)),
        abs(minkowski_dot(e10, e20)),
    )
    if gram_err > 1e-9:
        raise NormalizationError("initial companion frame is not Lorentz-orthonormal")

    def generator(s):
        kk, psi = k(s), spin(s)
        a = np.zeros((len(s), 4, 4))
        a[:, 0, 1] = 1.0
        a[:, 1, 2] = a[:, 2, 1] = kk * np.cos(psi)
        a[:, 1, 3] = a[:, 3, 1] = kk * np.sin(psi)
        return a

    def segment(state, span, control):
        return rk4_frames(generator, _lorentz_project, state.reshape(4, 3), span, control)

    y0 = np.concatenate([np.asarray(start, dtype=float), t0, e10, e20])
    s, vals, _ = reconstruct_piecewise(segment, y0, [(0.0, length)], None, control)
    tangent = vals[:, 3:6]
    dT = finite_diff_array(tangent, grid_step(s), 1)
    measured = np.sqrt(np.maximum(-minkowski_dot(dT, dT), 0.0))
    return TimelikeCurve(s, vals[:, 0:3], tangent, SampledFunction(s, measured))


def embed_timelike_2d(curve: TimelikeCurve) -> TimelikeCurve:
    """Trivial Lorentz inclusion (t, x) -> (t, x, 0)."""
    zeros = np.zeros((len(curve.s), 1))
    return TimelikeCurve(
        curve.s.copy(),
        np.hstack([curve.position, zeros]),
        np.hstack([curve.tangent, zeros]),
        curve.curvature,
        rapidity=None if curve.rapidity is None else curve.rapidity.copy(),
    )


# ---------------------------------------------------------------------------
# Lorentz transforms
# ---------------------------------------------------------------------------

def lorentz_boost(rapidity: float, direction: Sequence[float] | None = None, dim: int = 2) -> np.ndarray:
    """Boost matrix of the given rapidity along a spatial direction.

    2D boosts act on (t, x); 3D boosts take a spatial unit direction
    (default +x) and leave its orthogonal complement fixed.
    """
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    if dim == 2:
        return np.array([[ch, sh], [sh, ch]])
    if dim != 3:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = np.asarray(direction if direction is not None else (1.0, 0.0), dtype=float)
    n = n / np.linalg.norm(n)
    out = np.eye(3)
    out[0, 0] = ch
    out[0, 1:] = sh * n
    out[1:, 0] = sh * n
    out[1:, 1:] = np.eye(2) + (ch - 1.0) * np.outer(n, n)
    return out


def boost_curve(curve: TimelikeCurve, matrix: np.ndarray) -> TimelikeCurve:
    m = np.asarray(matrix, dtype=float)
    return TimelikeCurve(
        curve.s.copy(),
        curve.position @ m.T,
        curve.tangent @ m.T,
        curve.curvature,
        rapidity=None,
    )


# ---------------------------------------------------------------------------
# Lorentz-isometric inclusion L^2_1 -> L^m_1
# ---------------------------------------------------------------------------

def build_lorentz_inclusion(t_plane, t_space) -> np.ndarray:
    """Matrix of the Lorentz isometry mapping t_plane onto t_space.

    Decomposes over the orthonormal pair (T*, S*) in the plane, with S* the
    space-like unit normal of T*, and completes t_space deterministically.
    The second column is a free choice that never enters the comparison
    values (the checks pair the inclusion with its own pivot).
    """
    t2 = np.asarray(t_plane, dtype=float)
    t3 = np.asarray(t_space, dtype=float)
    if abs(minkowski_dot(t2, t2) - 1.0) > 1e-9 or t2[0] <= 0:
        raise CausalError("t_plane must be future unit time-like")
    if abs(minkowski_dot(t3, t3) - 1.0) > 1e-9 or t3[0] <= 0:
        raise CausalError("t_space must be future unit time-like")
    s2 = np.array([t2[1], t2[0]])
    m = t3.shape[0]
    if m == 2:
        s3 = np.array([t3[1], t3[0]])
    else:
        s3 = None
        for axis in (1, 2):
            r = np.zeros(m)
            r[axis] = 1.0
            w = r - minkowski_dot(r, t3) * t3
            q = -minkowski_dot(w, w)
            if q > 1e-12:
                s3 = w / math.sqrt(q)
                break
        if s3 is None:
            raise NormalizationError("could not complete a space-like companion")
    # iota(u) = <u, T*> T* column expansion on the standard basis (e_t, e_x)
    col_t = t2[0] * t3 - t2[1] * s3
    col_x = -t2[1] * t3 + t2[0] * s3
    return np.column_stack([col_t, col_x])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _timelike_census(c: TimelikeCurve, c_tilde: TimelikeCurve) -> Census:
    census = Census()
    for name, curve in (("unit_tangent_c", c), ("unit_tangent_c_tilde", c_tilde)):
        drift = curve.tangent_norm_drift()
        census.add(name, drift <= 1e-9, 1e-9 - drift)
    census.add("future_directed", c.future_directed() and c_tilde.future_directed())
    dominance = worst_dominance(c.curvature.values, c_tilde.curvature.values, c.s)
    if dominance is None:
        census.add("curvature_dominance", None, note="no smooth samples")
        census.add("convexity", None, note="no smooth samples")
    else:
        slack, location, k_min = dominance
        census.add("curvature_dominance", slack >= -CURVATURE_TOL, slack, location)
        census.add("convexity", k_min >= -CURVATURE_TOL, k_min)
    return census


@dataclass
class TimelikeMonotonicityReport:
    """Monotone displacement functional for the time-like comparison.

    The derivative slack is <T(s), T(s*)> - <T~(s), T~(s*)> in the Minkowski
    product (the inclusion eliminated analytically); hyperbolic distance
    contraction on the tangent indicatrix makes it non-negative.
    """

    s_star: float
    s: np.ndarray
    I_samples: np.ndarray
    derivative_slack: np.ndarray
    min_slack: float
    argmin_s: float
    census: Census
    inclusion: np.ndarray
    tol: float

    @property
    def conclusion_passed(self) -> bool:
        return self.min_slack >= -self.tol

    @property
    def passed(self) -> bool:
        return self.census.all_passed and self.conclusion_passed


def timelike_monotonicity(
    c: TimelikeCurve,
    c_tilde: TimelikeCurve,
    s_star: float,
    tol: float = DEFAULT_TOL,
) -> TimelikeMonotonicityReport:
    """Monotonicity of the pivot-aligned displacement, any pivot allowed."""
    _require_aligned(c, c_tilde)
    if c.dim != 2:
        raise ProfileError("the convex-side curve must live in the Minkowski plane")
    census = _timelike_census(c, c_tilde)
    row = c.nearest_row(float(s_star))
    n2, n3 = c.tangent[row], c_tilde.tangent[row]
    slack = minkowski_dot(c.tangent, np.broadcast_to(n2, c.tangent.shape)) - minkowski_dot(
        c_tilde.tangent, np.broadcast_to(n3, c_tilde.tangent.shape)
    )
    iota = build_lorentz_inclusion(n2, n3)
    iota_pos = c.position @ iota.T
    i_samples = minkowski_dot(iota_pos - c_tilde.position, np.broadcast_to(n3, iota_pos.shape))
    w = int(np.argmin(slack))
    return TimelikeMonotonicityReport(
        s_star=float(c.s[row]),
        s=c.s.copy(),
        I_samples=np.asarray(i_samples),
        derivative_slack=np.asarray(slack),
        min_slack=float(slack[w]),
        argmin_s=float(c.s[w]),
        census=census,
        inclusion=iota,
        tol=tol,
    )


@dataclass
class ReversedChordReport:
    """Reversed chord comparison: the flatter curve has the *shorter* chord.

    ``cauchy_schwarz_slack`` records <u, v> - |u||v| for the chord pair,
    which is non-negative for future time-like vectors (the reversed
    inequality).
    """

    chord_c: float
    chord_c_tilde: float
    slack: float
    cauchy_schwarz_slack: float
    tol: float

    @property
    def chord_passed(self) -> bool:
        return self.slack >= -self.tol

    @property
    def cauchy_schwarz_passed(self) -> bool:
        return self.cauchy_schwarz_slack >= -1e-9

    @property
    def passed(self) -> bool:
        return self.chord_passed and self.cauchy_schwarz_passed


def reversed_chord_inequality(
    c: TimelikeCurve, c_tilde: TimelikeCurve, tol: float = DEFAULT_TOL
) -> ReversedChordReport:
    _require_aligned(c, c_tilde)
    u = c.position[-1] - c.position[0]
    v = c_tilde.position[-1] - c_tilde.position[0]
    if minkowski_dot(u, u) <= 0 or minkowski_dot(v, v) <= 0:
        raise CausalError("a chord is not time-like; the fixture is invalid")
    len_u, len_v = minkowski_norm(u), minkowski_norm(v)
    u_m = u if u.shape == v.shape else np.concatenate([u, np.zeros(v.shape[0] - u.shape[0])])
    cs_slack = minkowski_dot(u_m, v) - len_u * len_v
    return ReversedChordReport(
        chord_c=len_u,
        chord_c_tilde=len_v,
        slack=len_u - len_v,
        cauchy_schwarz_slack=float(cs_slack),
        tol=tol,
    )
