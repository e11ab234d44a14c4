"""Curve data model and reconstruction from curvature data.

Builds plane, Euclidean-space, and broken (tangent-jump) curves from
curvature profiles, and measures curvature and turning back from samples.
Jumps are never integrated across: integration restarts on the far side of
each jump with a rotated state, and the jump location appears twice in the
sample grid (same position, one-sided tangents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    JumpAngleError,
    NormalizationError,
    ProfileError,
)
from .numerics import (
    DEFAULT_CONTROL,
    StepControl,
    TWO_PI,
    angle_step,
    finite_diff_array,
    grid_step,
    nearest_index,
    orthonormal_rows,
    rk4_angle,
    rk4_frame_step,
    rk4_frames,
    unit,
)

__all__ = [
    "Jump",
    "CurvatureProfile",
    "SampledCurve",
    "constant_curvature",
    "linear_curvature",
    "sinusoidal_curvature",
    "tabulated_curvature",
    "reconstruct_piecewise",
    "reconstruct_plane",
    "reconstruct_space_profile",
    "jump_rotation",
    "curvature_magnitude",
    "theta_from_tangent",
    "embed_plane_curve",
]


# ---------------------------------------------------------------------------
# curvature presets
# ---------------------------------------------------------------------------

def constant_curvature(value: float) -> Callable:
    value = float(value)
    return lambda s: value * np.ones_like(np.asarray(s, dtype=float))


def linear_curvature(intercept: float, slope: float) -> Callable:
    return lambda s: intercept + slope * np.asarray(s, dtype=float)


def sinusoidal_curvature(
    offset: float, amplitude: float, frequency: float = 1.0, phase: float = 0.0
) -> Callable:
    return lambda s: offset + amplitude * np.sin(frequency * np.asarray(s, dtype=float) + phase)


def tabulated_curvature(points: Sequence[Sequence[float]]) -> Callable:
    """Linear interpolation through [(s, k), ...] samples, clamped at the ends."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ProfileError("tabulated curvature needs at least two [s, k] pairs")
    s, k = pts[:, 0], pts[:, 1]
    if not np.all(np.diff(s) > 0):
        raise ProfileError("tabulated curvature samples must have increasing s")
    return lambda x: np.interp(np.asarray(x, dtype=float), s, k)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jump:
    """Tangent discontinuity: location, turning angle, optional rotation direction.

    ``direction`` selects the rotation plane for space curves (the new tangent
    turns from the old one toward this vector); plane and spherical curves
    have a canonical turning direction and ignore it.
    """

    location: float
    angle: float
    direction: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CurvatureProfile:
    """Piecewise curvature data: one curvature function plus a jump list.

    The jump locations are the interior segment boundaries; smooth segments
    are the intervals between consecutive boundaries. Angles are spherical
    distances between one-sided tangents, so they live in [0, pi]; an angle
    of exactly pi (tangent reversal) is accepted.
    """

    length: float
    curvature: Callable
    jumps: tuple[Jump, ...] = ()
    convex: bool = True

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ProfileError(f"profile length must be positive, got {self.length}")
        locs = [j.location for j in self.jumps]
        if any(not 0.0 < s < self.length for s in locs):
            raise ProfileError("jump locations must lie strictly inside (0, L)")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ProfileError("jump locations must be strictly increasing")
        for j in self.jumps:
            if not -1e-12 <= j.angle <= math.pi + 1e-12:
                raise JumpAngleError(f"jump angle {j.angle} outside [0, pi]")

    @property
    def boundaries(self) -> np.ndarray:
        return np.array([0.0, *(j.location for j in self.jumps), self.length])

    def segment_intervals(self) -> list[tuple[float, float]]:
        b = self.boundaries
        return [(float(b[i]), float(b[i + 1])) for i in range(len(b) - 1)]


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------

def _no_extension(*args):
    """The extension of a curve that no reconstruction returned (built by hand, or a
    modified copy): it has none. As a class default it is called as a method."""
    raise ProfileError("this curve has no extension between its rows (it was built by hand "
                       "or copied with changes, not returned by a reconstruction), so "
                       "nothing can be evaluated off its grid")


@dataclass
class SampledCurve:
    """Arc-length-indexed samples of position and unit tangent.

    ``jump_marks`` lists the indices i of the minus-side row of each
    duplicated jump point: rows i and i+1 share s and position but carry the
    one-sided tangents. For plane curves ``theta`` holds the cumulative
    (unwrapped) tangent angle on the same rows, and for Minkowski-plane
    curves the rapidity.

    ``between(rows, s)`` extends the rows off the grid: lane k's tangent
    angle (a plane curve, which keeps ``theta``) or tangent (any other curve)
    at s[k], by one RK4 step of length s[k] - s[rows[k]] from row rows[k] on
    the curve's own field. The reconstructions set it, after construction,
    for the rows they return; a curve built by hand, and any copy made by
    ``dataclasses.replace``, has ``_no_extension`` until one is attached, so
    a modified copy never extends from the original's rows.

    Per-row measurements (curvatures and the like) are (n,) arrays on these
    rows, NaN on both rows of each jump where they are one-sided
    (``jump_masked``).
    """

    s: np.ndarray
    position: np.ndarray
    tangent: np.ndarray
    jump_marks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    theta: np.ndarray | None = None
    between: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        default=_no_extension, init=False)

    def __post_init__(self) -> None:
        self.s = np.asarray(self.s, dtype=float)
        self.position = np.asarray(self.position, dtype=float)
        self.tangent = np.asarray(self.tangent, dtype=float)
        self.jump_marks = np.asarray(self.jump_marks, dtype=int)
        if self.theta is not None:
            self.theta = np.asarray(self.theta, dtype=float)

    @property
    def dim(self) -> int:
        return self.position.shape[1]

    @property
    def length(self) -> float:
        return float(self.s[-1] - self.s[0])

    def segments(self) -> list[slice]:
        out, start = [], 0
        for jm in self.jump_marks:
            out.append(slice(start, int(jm) + 1))
            start = int(jm) + 1
        out.append(slice(start, len(self.s)))
        return out

    def jump_masked(self, values: np.ndarray) -> np.ndarray:
        """A float copy of per-row ``values`` with NaN on both rows of each jump."""
        out = np.array(values, dtype=float)
        out[self.jump_marks] = out[self.jump_marks + 1] = np.nan
        return out

    def segment_derivatives(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Finite differences of per-row ``values`` within each smooth segment.

        Jump rows get one-sided values; every segment needs at least 5 rows.
        """
        out = np.empty_like(values, dtype=float)
        for seg in self.segments():
            out[seg] = finite_diff_array(values[seg], grid_step(self.s[seg]), order)
        return out

    def tangent_between(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Lane k's tangent at s[k] from ``between`` (of a plane curve: its angle's
        unit vector, padded with zeros to the curve's dimension)."""
        value = self.between(rows, s)
        if self.theta is None:
            return value
        out = np.zeros((len(value), self.dim))
        out[:, 0], out[:, 1] = np.cos(value), np.sin(value)
        return out

    def nearest_row(self, value, side: str = "minus"):
        """Row index of the sample closest to arc length ``value`` (an index array for an array).

        ``side`` resolves duplicated jump rows: "minus" returns the row
        carrying the incoming tangent, "plus" the outgoing one, i.e. the first
        or the last of the rows sharing the nearest sample's s.
        """
        s = self.s
        plus = side == "plus"
        best = s.searchsorted(s[nearest_index(s, value)], side="right" if plus else "left") - plus
        return int(best) if best.ndim == 0 else best


def _require_aligned(a: SampledCurve, b: SampledCurve) -> None:
    if len(a.s) != len(b.s) or np.max(np.abs(a.s - b.s)) > 1e-12 * max(1.0, a.length):
        raise AlignmentError("curves are sampled on different grids; resample first")
    if len(a.jump_marks) != len(b.jump_marks) or not np.array_equal(
        a.jump_marks, b.jump_marks
    ):
        raise AlignmentError("curves have mismatched jump rows")


def theta_from_tangent(curve: SampledCurve) -> np.ndarray:
    """Cumulative tangent angle recovered from sampled 2D tangents.

    Successive increments are wrapped to (-pi, pi]; a convex curve's jump of
    exactly pi lands on +pi.
    """
    if curve.dim != 2:
        raise ProfileError("tangent angles are defined for plane curves only")
    raw = np.arctan2(curve.tangent[:, 1], curve.tangent[:, 0])
    th = np.empty_like(raw)
    th[0] = raw[0]
    d = np.diff(raw)
    d = np.mod(d + math.pi, TWO_PI) - math.pi
    d[d <= -math.pi + 1e-9] += TWO_PI
    th[1:] = th[0] + np.cumsum(d)
    return th


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def jump_rotation(tangent: np.ndarray, alpha: float, direction: np.ndarray) -> np.ndarray:
    """3x3 rotation by ``alpha`` in the plane spanned by the tangent and ``direction``.

    The rotation moves the tangent toward the component of ``direction``
    orthogonal to it; applied to a full frame it keeps the frame orthonormal.
    ProfileError when that component is not above 1e-9 of the direction's
    largest component (the test is scale-free, as a direction is).
    """
    t = unit(tangent)
    d = np.asarray(direction, dtype=float)
    big = float(np.max(np.abs(d)))
    if big > 0:
        d = d / big  # in units of its largest component: no norm under- or overflows
    e = d - np.dot(d, t) * t
    n = float(np.linalg.norm(e))
    if not n > 1e-9:
        raise ProfileError("jump direction is (nearly) collinear with the tangent")
    e = e / n
    c, s = math.cos(alpha), math.sin(alpha)
    eye = np.eye(3)
    # rotation = identity outside span(t, e), standard 2D rotation inside
    outer_tt = np.outer(t, t)
    outer_ee = np.outer(e, e)
    outer_te = np.outer(t, e)
    return eye - outer_tt - outer_ee + c * (outer_tt + outer_ee) + s * (outer_te.T - outer_te)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def _angle_between(rate: Callable, s: np.ndarray, theta: np.ndarray, rows: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """A plane curve's ``between``: theta's RK4 step from row rows[k] to x[k]."""
    s0 = s[rows]
    return theta[rows] + angle_step(rate, s0, x - s0)[2]


def _frames_between(generator: Callable, frames: np.ndarray, s: np.ndarray, rows: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Lane k's frame at x[k] by one RK4 step from the stored (n, m, d) frame of row rows[k]."""
    s0 = s[rows]
    return rk4_frame_step(generator, frames[rows], s0, x - s0)


def _tangent_row(frames: Callable, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A frame curve's ``between``: the tangent row (row 1) of its extended frames."""
    return frames(rows, x)[:, 1]


def reconstruct_piecewise(
    integrate: Callable[[np.ndarray, tuple[float, float], StepControl],
                        tuple[np.ndarray, np.ndarray]],
    state0,
    intervals: Sequence[tuple[float, float]],
    jump_map: Callable[[int, np.ndarray], np.ndarray] | None,
    control: StepControl = DEFAULT_CONTROL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate consecutive smooth segments joined by jumps.

    ``integrate(state, span, control)`` returns one segment's grid and
    states (through ``numerics.rk4_angle`` or ``numerics.rk4_frames``)
    starting from the flat ``state``; its states are flattened to rows.
    Between segments ``idx`` and ``idx + 1`` the end state (a copy the map
    may modify) passes through ``jump_map(idx, state)`` (None for one
    interval). The jump point is stored twice: the last row of one segment
    and the first row of the next. Returns the stacked grid, the stacked
    states and the minus-side row of each jump.
    """
    state = np.asarray(state0, dtype=float)
    grids, values, jump_marks = [], [], []
    for idx, span in enumerate(intervals):
        if idx:
            jump_marks.append(sum(len(g) for g in grids) - 1)
            state = jump_map(idx - 1, state)
        grid, states = integrate(state, span, control)
        grids.append(grid)
        values.append(states.reshape(len(grid), -1))
        state = values[-1][-1].copy()
    return np.concatenate(grids), np.concatenate(values), np.asarray(jump_marks, dtype=int)


def reconstruct_plane(
    profile: CurvatureProfile,
    start: Sequence[float] = (0.0, 0.0),
    theta0: float = 0.0,
    control: StepControl = DEFAULT_CONTROL,
) -> SampledCurve:
    """Plane curve with tangent angle theta' = k and counterclockwise jumps.

    State (x, y, theta) is integrated per smooth segment; at each jump the
    angle gains alpha_j and the grid point is duplicated.
    """
    def turn(idx, state):
        state[2] += profile.jumps[idx].angle
        return state

    state0 = [float(start[0]), float(start[1]), float(theta0)]
    s, vals, marks = reconstruct_piecewise(
        partial(rk4_angle, profile.curvature), state0, profile.segment_intervals(), turn, control
    )
    th = vals[:, 2]
    curve = SampledCurve(s, vals[:, 0:2], np.column_stack([np.cos(th), np.sin(th)]), marks, th)
    curve.between = partial(_angle_between, profile.curvature, s, th)
    return curve


_FRAME3 = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


def _check_frame3(tangent, normal, binormal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t, n, b = (np.asarray(v, dtype=float) for v in (tangent, normal, binormal))
    gram = np.array([[t @ t, t @ n, t @ b], [n @ t, n @ n, n @ b], [b @ t, b @ n, b @ b]])
    if np.max(np.abs(gram - np.eye(3))) > 1e-9:
        raise NormalizationError("initial frame is not orthonormal")
    return t, n, b


def _frenet_project(s: np.ndarray, frames: np.ndarray) -> None:
    """Re-orthonormalize (x, T, N, B) frame rows in place: unit T, N made unit
    and orthogonal to T, B = T x N."""
    frames[:, 1], frames[:, 2], frames[:, 3] = orthonormal_rows(frames[:, 1], frames[:, 2])


def reconstruct_space_profile(
    profile: CurvatureProfile,
    torsion: Callable,
    start: Sequence[float] = (0.0, 0.0, 0.0),
    frame0: tuple | None = None,
    control: StepControl = DEFAULT_CONTROL,
) -> SampledCurve:
    """Space curve from a profile with jumps; each jump needs its rotation direction.

    The frame rows (position, T, N, B) follow the Frenet system and every
    sampled frame is re-orthonormalized; a jump rotates the whole frame.
    """
    frame = _check_frame3(*(frame0 if frame0 is not None else _FRAME3))
    k = profile.curvature

    def generator(s):
        kk, tau = k(s), torsion(s)
        return {(0, 1): 1.0, (1, 2): kk, (2, 1): -kk, (2, 3): tau, (3, 2): -tau}

    def segment(state, span, control):
        return rk4_frames(generator, _frenet_project, state.reshape(4, 3), span, control)

    def rotate(idx, state):
        j = profile.jumps[idx]
        if j.angle > 1e-15:
            if j.direction is None:
                raise ProfileError(
                    f"jump at s={j.location} needs a rotation direction for a space curve"
                )
            t, n = state[3:6], state[6:9]
            rot = jump_rotation(t, j.angle, np.asarray(j.direction, dtype=float))
            t, n = unit(rot @ t), unit(rot @ n)
            state[3:6], state[6:9], state[9:12] = t, n, np.cross(t, n)
        return state

    state0 = np.concatenate([np.asarray(start, dtype=float), *frame])
    s, vals, marks = reconstruct_piecewise(
        segment, state0, profile.segment_intervals(), rotate, control
    )
    frames = partial(_frames_between, generator, vals.reshape(-1, 4, 3), s)
    curve = SampledCurve(s, vals[:, 0:3], vals[:, 3:6], marks)
    curve.between = partial(_tangent_row, frames)
    return curve


def embed_plane_curve(curve: SampledCurve) -> SampledCurve:
    """Image of a plane curve in 3-space: a zero third coordinate is padded.

    ``theta`` and ``between`` are kept; they read the same on the image (the
    tangent angle in the first coordinate plane, or a Minkowski-plane curve's
    rapidity).
    """
    m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    out = SampledCurve(
        curve.s.copy(),
        curve.position @ m.T,
        curve.tangent @ m.T,
        curve.jump_marks.copy(),
        None if curve.theta is None else curve.theta.copy(),
    )
    out.between = curve.between
    return out


# ---------------------------------------------------------------------------
# curvature measurements
# ---------------------------------------------------------------------------

def curvature_magnitude(curve: SampledCurve) -> np.ndarray:
    """|T'| on the curve's rows by per-segment finite differences, NaN on jump rows."""
    return curve.jump_masked(np.linalg.norm(curve.segment_derivatives(curve.tangent), axis=1))
