"""Chord comparison between a convex plane curve and a space curve.

Given a convex plane curve c and a space curve c~ of the same length whose
curvature never exceeds c's (jumps included), the displacement of c~
projected on the chord direction of c grows at least as fast as c's own.
This module locates the pivot parameter s* where the tangent of c points
along the chord, builds the isometric inclusion identifying the two tangent
planes there, and verifies the resulting monotonicity, chord, and
expansion-bound inequalities sample-wise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .curves import SampledCurve, _require_aligned, curvature_magnitude
from .errors import (
    HypothesisViolationError,
    NormalizationError,
    ProfileError,
    SchurkitError,
)
from .numerics import (
    DEFAULT_TOL,
    TWO_PI,
    bisect_lanes,
    bisect_monotone,
    cumulative_integral_uniform,
    grid_step,
    orthonormal_complement,
    row_dots,
    unit,
)
from .reports import Census

__all__ = [
    "ComparisonPair",
    "PivotWindow",
    "IsometricInclusion",
    "MonotonicityReport",
    "ChordReport",
    "NestedChordReport",
    "ExpansionReport",
    "build_inclusion",
    "hypothesis_census",
    "jump_dominance",
    "turning_budget",
]

ANGLE_TOL = 1e-9  # angular slack of the s* search: lifting the chord angle, landing on a row
S_STAR_TOL = 1e-13  # bisection tolerance of an off-grid s*
# Windows derived together by ``ComparisonPair.windows``; the engine's
# temporaries grow with the block, so it bounds them for any sweep or expansion
# (a sweep streams its windows through the engine this many at a time).
WINDOW_BLOCK = 1024


def _length_scaled_passed(slack, tol: float, length):
    """A squared-length slack passes within ``tol`` scaled by the chord length (at least 1).

    Floats or arrays of windows alike.
    """
    return slack >= -tol * np.maximum(length, 1.0)


# ---------------------------------------------------------------------------
# isometric inclusion R^2 -> R^m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometricInclusion:
    """Linear isometry of the plane into m-space (orthonormal image columns)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        gram = m.T @ m
        if np.max(np.abs(gram - np.eye(2))) > 1e-12:
            raise NormalizationError("inclusion columns are not orthonormal")
        object.__setattr__(self, "matrix", m)

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u @ self.matrix.T


def build_inclusion(
    t_plane: np.ndarray,
    t_space: np.ndarray,
    second_column: np.ndarray | None = None,
) -> IsometricInclusion:
    """Isometric inclusion mapping the plane unit vector onto the space one.

    The image of the orthogonal direction is a free choice; by default it is
    completed deterministically, and any valid choice yields the same
    comparison values (the checks only ever pair the inclusion with its own
    pivot vector).
    """
    t2 = np.asarray(t_plane, dtype=float)
    t3 = np.asarray(t_space, dtype=float)
    if abs(np.linalg.norm(t2) - 1.0) > 1e-9 or abs(np.linalg.norm(t3) - 1.0) > 1e-9:
        raise NormalizationError("build_inclusion expects unit vectors")
    if second_column is None:
        w = orthonormal_complement(t3)
    else:
        w = np.asarray(second_column, dtype=float)
        if abs(np.linalg.norm(w) - 1.0) > 1e-9 or abs(np.dot(w, t3)) > 1e-9:
            raise NormalizationError("second column must be unit and orthogonal")
    # iota(u) = <u, t2> t3 + cross2(t2, u) w, expressed on the standard basis
    col1 = t2[0] * t3 - t2[1] * w
    col2 = t2[1] * t3 + t2[0] * w
    return IsometricInclusion(np.column_stack([col1, col2]))


# ---------------------------------------------------------------------------
# pivot location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PivotWindow:
    """Windows [s', s''] of a comparison pair, each with its pivot s*, derived once.

    ``rows`` are the snapped grid rows (plus side at s', minus side at s'')
    and ``window`` their parameters; ``chord_length`` is |c(s'') - c(s')|.
    At s* (row ``index``) c's tangent points along the chord, whose angle is
    lifted to ``chord_angle``. When the chord direction falls strictly
    inside a jump's angular gap the pivot snaps to the jump location
    (``jump_interior`` set) and ``beta_minus`` records the angular offset
    into the gap. ``pivot_plane``/``pivot_space`` are the directions N and
    N~ that the inclusion identifies at s*. The fields are arrays over the
    windows (``ComparisonPair.windows``; ``beta_minus`` is NaN outside a
    gap), or one window's numbers, tuples and vectors (``row``).
    """

    rows: tuple[int, int]
    window: tuple[float, float]
    chord_length: float
    s_star: float
    index: int
    jump_interior: bool
    chord_angle: float
    beta_minus: float | None
    pivot_plane: np.ndarray
    pivot_space: np.ndarray

    def row(self, k: int) -> PivotWindow:
        """Window k, with Python numbers and tuples, and None for ``beta_minus`` outside a gap."""
        gap = self.jump_interior[k].item()
        return PivotWindow(
            tuple(self.rows[k].tolist()), tuple(self.window[k].tolist()),
            self.chord_length[k].item(), self.s_star[k].item(), self.index[k].item(), gap,
            self.chord_angle[k].item(), self.beta_minus[k].item() if gap else None,
            self.pivot_plane[k], self.pivot_space[k],
        )


def _derivative_slack(t_space: np.ndarray, t_plane: np.ndarray, chord_length: float,
                      pivot_space: np.ndarray, pivot_plane: np.ndarray) -> np.ndarray:
    """The derivative of I(s) on a window's rows, from c~'s and c's tangents on them."""
    return chord_length * (t_space @ pivot_space - t_plane @ pivot_plane)


def _window_error(a: float, b: float) -> ValueError:
    return ValueError(f"window must satisfy s'' > s', got [{a}, {b}]")


def _jump_angle(curve: SampledCurve, i: int) -> float:
    """Turning angle between the one-sided tangents of jump row i."""
    return math.acos(min(max(float(np.dot(curve.tangent[i], curve.tangent[i + 1])), -1.0), 1.0))


def _gap_pivots(c: SampledCurve, c_tilde: SampledCurve, rows: np.ndarray,
                beta_minus: np.ndarray) -> np.ndarray:
    """N~ of jump-interior pivots: the point at the proportional angle along c~'s
    minimizing tangent arc over the jump row (from the incoming tangent u to v).

    The jump angles, the arc and its sine are taken once per jump row; each
    lane's weights of u and v are those of a slerp, on Python floats.
    """
    arcs = {}
    for i in set(rows.tolist()):
        full = _jump_angle(c_tilde, i)
        arcs[i] = _jump_angle(c, i), full, math.sin(full)
    lanes = []
    for i, beta in zip(rows.tolist(), beta_minus.tolist()):
        alpha, full, sin_full = arcs[i]
        angle = beta * (full / alpha) if alpha > 1e-15 else 0.0
        if full < 1e-12 or angle <= 0.0:
            lanes.append((0.0, 0.0, 0.0, 1.0))  # no turn: u itself
        else:
            t = min(angle / full, 1.0)
            lanes.append((1.0, math.sin((1.0 - t) * full), math.sin(t * full), sin_full))
    turn, w_u, w_v, sin_full = np.array(lanes).T[:, :, None]
    u, v = c_tilde.tangent[rows], c_tilde.tangent[rows + 1]
    return np.where(turn > 0.0, (w_u * u + w_v * v) / sin_full, u)


def _pivots(c: SampledCurve, c_tilde: SampledCurve, index: np.ndarray, s_star: np.ndarray,
            chord_angle: np.ndarray, beta_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot directions N (plane) and N~ (space), one row per located s*.

    At a jump-interior pivot (``beta_minus`` not NaN), N is the chord
    direction inside the gap and N~ sits at the proportional angle along
    c~'s minimizing tangent arc, which keeps both partial gap angles
    dominated. Off the grid, N~ is c~'s tangent at s* by one RK4 step from
    the cell's row (``SampledCurve.between``); all N~ are normalised
    together, each as ``unit`` would.
    """
    gap = ~np.isnan(beta_minus)
    off_grid = ~gap & (np.abs(s_star - c.s[index]) > 1e-12 * np.maximum(1.0, np.abs(s_star)))
    raw = c_tilde.tangent[index]
    if off_grid.any():
        raw[off_grid] = c_tilde.tangent_between(index[off_grid], s_star[off_grid])
    if gap.any():
        raw[gap] = _gap_pivots(c, c_tilde, index[gap], beta_minus[gap])
    norms = np.sqrt(row_dots(raw, raw))
    if (norms < 1e-14).any():
        raise NormalizationError("cannot normalize a (near-)zero vector")
    plane = np.array([(math.cos(a), math.sin(a)) for a in chord_angle.tolist()]).reshape(-1, 2)
    return plane, raw / norms[:, None]


@dataclass(frozen=True)
class _Lanes:
    """``between(rows, x)`` on fixed rows, one lane each, in ``bisect_lanes``' protocol."""

    between: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rows: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.between(self.rows, x)

    def take(self, idx) -> _Lanes:
        return _Lanes(self.between, self.rows[idx])


# ---------------------------------------------------------------------------
# hypothesis census
# ---------------------------------------------------------------------------

def turning_budget(theta: np.ndarray, tol: float) -> tuple[float, bool, float]:
    """The turning-budget rule on a plane curve's tangent angle: the total turning
    theta[-1] - theta[0] (the RK4 integral of the curvature, jump angles included),
    whether it is at most 2 pi + ``tol``, and the slack 2 pi - total."""
    total = float(theta[-1] - theta[0])
    return total, total <= TWO_PI + tol, TWO_PI - total


def jump_dominance(census: Census, c: SampledCurve, c_tilde: SampledCurve, tol: float) -> None:
    """The one jump rule: at each of c's jump rows, c's turning angle minus c~'s,
    the worst passed at ``-tol`` and located at its jump; "no jumps" passes."""
    if len(c.jump_marks):
        gaps = [(_jump_angle(c, i) - _jump_angle(c_tilde, i), float(c.s[i])) for i in c.jump_marks]
        worst, loc = min(gaps, key=lambda gap: gap[0])
        census.add("jump_dominance", worst >= -tol, worst, loc)
    else:
        census.add("jump_dominance", True, note="no jumps")


def hypothesis_census(
    c: SampledCurve,
    c_tilde: SampledCurve,
    tol: float = DEFAULT_TOL,
    curvature_tol: float | None = None,
) -> Census:
    """Sample-wise hypothesis checks for the (convex plane, space) pair.

    Curvatures are measured back from the samples on both sides so the check
    is honest about what the grids actually contain.
    """
    census = Census()
    census.dominance("curvature_dominance", curvature_magnitude(c), curvature_magnitude(c_tilde),
                     c.s, tol if curvature_tol is None else curvature_tol)
    jump_dominance(census, c, c_tilde, tol)

    if c.theta is not None:
        dth = np.diff(c.theta)
        worst = float(np.min(dth)) if dth.size else 0.0
        census.add("convexity", worst >= -tol, worst)
        _, passed, slack = turning_budget(c.theta, tol)
        census.add("turning_budget", passed, slack)
    else:
        census.add("convexity", False, note="no tangent-angle data")

    return census


# ---------------------------------------------------------------------------
# comparison pair
# ---------------------------------------------------------------------------

class ComparisonPair:
    """A convex plane curve c and a space curve c~ on one aligned grid.

    The hypotheses of the comparison (curvature and jump dominance,
    convexity, the turning budget) belong to the pair, not to a window, so
    the census is taken on first read and kept; a window only fixes the
    pivot. ``window`` derives a window's rows, chord, s* and pivots once,
    and every windowed check reads them from it.
    """

    def __init__(self, c: SampledCurve, c_tilde: SampledCurve, tol: float = DEFAULT_TOL,
                 curvature_tol: float | None = None) -> None:
        _require_aligned(c, c_tilde)
        self.c, self.c_tilde = c, c_tilde
        self.tol, self.curvature_tol = tol, curvature_tol

    @cached_property
    def census(self) -> Census:
        return hypothesis_census(self.c, self.c_tilde, self.tol, self.curvature_tol)

    @cached_property
    def _theta_record(self) -> np.ndarray:
        """Running maximum of theta over the whole curve.

        A window starting on a record row (where it equals theta) reads its
        own running maximum of theta from it.
        """
        return np.maximum.accumulate(self.c.theta)

    def windows(self, ranges) -> PivotWindow:
        """``window`` of every range, in order, derived together: one
        ``PivotWindow`` whose fields are arrays over the windows.

        ``ranges`` holds (s', s'') pairs or None (the whole curve), or is an
        (n, 2) array of ends. ``WINDOW_BLOCK`` windows at a time, as arrays:
        the row snap, the chord, the lifted chord angle and the branch, then
        one lane-wise bisection for the smooth crossings' s* on theta's
        extension over each crossing's cell (``SampledCurve.between``), then
        the pivots, normalised together. Each lane
        takes the scalar steps, so every window equals ``window``'s. When
        windows fail, the first failing one in input order raises.
        """
        if not isinstance(ranges, np.ndarray):
            # a range of None is the whole curve: its ends snap to the first and the last row
            ranges = np.array([(-math.inf, math.inf) if r is None else (r[0], r[1])
                               for r in ranges], dtype=float).reshape(-1, 2)
        blocks = []
        for lo in range(0, len(ranges) or 1, WINDOW_BLOCK):  # no ranges: one empty block
            block = ranges[lo : lo + WINDOW_BLOCK]
            try:
                blocks.append(self._window_block(block))
            except (ValueError, SchurkitError):
                if len(block) > 1:  # derive one at a time, so the first failing window raises
                    for k in range(len(block)):
                        self._window_block(block[k : k + 1])
                raise
        return PivotWindow(*(np.concatenate([getattr(b, f.name) for b in blocks])
                             for f in fields(PivotWindow)))

    def _window_block(self, ends: np.ndarray) -> PivotWindow:
        c = self.c
        if c.theta is None:
            raise ProfileError("the s* search needs a plane curve with tangent-angle data")
        s, theta, record = c.s, c.theta, self._theta_record
        ordered = ends[:, 1] > ends[:, 0]
        if not ordered.all():
            raise _window_error(*ends[np.argmin(ordered)].tolist())
        i0, i1 = c.nearest_row(ends[:, 0], side="plus"), c.nearest_row(ends[:, 1], side="minus")
        chord = c.position[i1] - c.position[i0]
        clen = np.sqrt(row_dots(chord, chord))
        if (clen < 1e-12).any():
            raise HypothesisViolationError("degenerate (zero) chord: no direction to match")

        # Each window's running maximum of theta: read off the record where the
        # window starts on a record row, accumulated per window where not.
        th0, top = theta[i0], record[i1]
        own = {k: np.maximum.accumulate(theta[i0[k] : i1[k] + 1])
               for k in (record[i0] != th0).nonzero()[0].tolist()}
        for k, th in own.items():
            top[k] = th[-1]
        # the chord angle lifted into [theta(s'), theta(s'')]; + 0.0 turns a -0.0 from
        # np.ceil into 0.0, as an integer number of turns would be
        phi = np.array([math.atan2(y, x) for x, y in chord[:, :2].tolist()])
        phi_star = phi + TWO_PI * (np.ceil((th0 - phi - ANGLE_TOL) / TWO_PI) + 0.0)
        if (phi_star > top + ANGLE_TOL).any():
            raise HypothesisViolationError(
                "chord direction lies outside the tangent angular range; "
                "the profile is not a valid convex curve"
            )
        phi_star = np.where(th0 > phi_star, th0, phi_star)
        phi_star = np.where(top < phi_star, top, phi_star)
        # first row j of the window whose running maximum reaches phi*, and the maxima at j-1, j
        j = np.minimum(np.maximum(record.searchsorted(phi_star), i0), i1)
        at, before = record[j], record[j - 1]
        for k, th in own.items():
            local = min(int(th.searchsorted(phi_star[k])), len(th) - 1)
            j[k], at[k], before[k] = i0[k] + local, th[local], th[local - 1]

        # lands on (or within tolerance of) a row; strictly inside a jump's angular
        # gap; or a smooth crossing, where theta's RK4 extension from row j-1 is
        # inverted on the cell [j-1, j] (theta(j-1) < phi* < theta(j), a record).
        # Off a row j > i0, since phi* >= theta(s'), the maximum at i0.
        on_row, prev = at - phi_star <= ANGLE_TOL, j - 1
        gap = ~on_row & (s[j] == s[prev])
        index = np.where(on_row, j, prev)
        s_star = s[index]
        crossing = (~(on_row | gap)).nonzero()[0]
        if crossing.size:
            rows = index[crossing]
            theta_at = _Lanes(c.between, rows)
            a, b = s[rows], s[rows + 1]
            if crossing.size == 1:  # one lane: the scalar bisection, without the lane bookkeeping
                target = float(phi_star[crossing[0]])
                s_star[crossing] = bisect_monotone(
                    lambda x: float(theta_at(np.array([x]))[0]) - target,
                    (float(a[0]), float(b[0])), tol=S_STAR_TOL)
            else:
                s_star[crossing] = bisect_lanes(theta_at, phi_star[crossing], a, b, tol=S_STAR_TOL)
        beta = np.where(gap, phi_star - before, np.nan)
        planes, spaces = _pivots(c, self.c_tilde, index, s_star, phi_star, beta)
        return PivotWindow(np.column_stack([i0, i1]), np.column_stack([s[i0], s[i1]]), clen,
                           s_star, index, gap, phi_star, beta, planes, spaces)

    def window(self, s_range) -> PivotWindow:
        """The window [s', s''] (None: the whole curve) and its pivot s*, where c's
        tangent points along the chord.

        Requires the cumulative tangent angle of a convex plane curve. The chord
        angle is lifted into the window's angular range [theta(s'), theta(s'')];
        failure to lift means the input violates convexity and raises.
        """
        return self.windows([s_range]).row(0)

    def monotonicity(self, w: PivotWindow) -> MonotonicityReport:
        """Windowed monotonicity with the pivot fixed by the chord direction.

        The derivative of I(s) on the window has the inclusion eliminated
        analytically: pairing iota with its own pivot turns
        <iota(T), iota(chord)> into a plane inner product, so the slack
        reduces to |chord| (<T~, N~> - <T, N>).
        """
        c, ct, clen = self.c, self.c_tilde, w.chord_length
        sl = slice(w.rows[0], w.rows[1] + 1)
        slack = _derivative_slack(ct.tangent[sl], c.tangent[sl], clen, w.pivot_space, w.pivot_plane)
        inclusion = build_inclusion(w.pivot_plane, w.pivot_space)
        iota_pos = inclusion.apply(c.position[sl])
        i_samples = (ct.position[sl] - iota_pos) @ (clen * w.pivot_space)
        k = int(np.argmin(slack))
        return MonotonicityReport(
            s_star=w.s_star, jump_interior=w.jump_interior, window=w.window,
            s=c.s[sl].copy(), I_samples=i_samples, derivative_slack=slack,
            min_slack=float(slack[k]), argmin_s=float(c.s[sl][k]), inclusion=inclusion,
            pivot_plane=w.pivot_plane, pivot_space=w.pivot_space, tol=self.tol,
        )

    def monotonicity_minima(self, ws: PivotWindow) -> tuple[np.ndarray, np.ndarray]:
        """``monotonicity``'s ``min_slack`` and ``argmin_s`` of each window of ``ws``.

        The inclusion and the I(s) samples are not built; the pivots get
        ``build_inclusion``'s unit-norm check.
        """
        for pivots in (ws.pivot_plane, ws.pivot_space):
            if np.any(np.abs(np.sqrt(row_dots(pivots, pivots)) - 1.0) > 1e-9):
                raise NormalizationError("build_inclusion expects unit vectors")
        s, plane, space = self.c.s, self.c.tangent, self.c_tilde.tangent
        min_slack, argmin_s = np.empty(len(ws.rows)), np.empty(len(ws.rows))
        for k, ((i0, i1), clen, n, n_tilde) in enumerate(zip(
                ws.rows.tolist(), ws.chord_length.tolist(), ws.pivot_plane, ws.pivot_space)):
            slack = _derivative_slack(space[i0 : i1 + 1], plane[i0 : i1 + 1], clen, n_tilde, n)
            j = slack.argmin()
            min_slack[k], argmin_s[k] = slack[j], s[i0 + j]
        return min_slack, argmin_s

    def full_range(self, s_star) -> MonotonicityReport:
        """Whole-curve monotonicity with a freely chosen pivot.

        Any pivot whose two complementary tangent arcs each fit in a half turn
        works. The arcs are turning angles read off theta: theta(s*) - theta(0)
        and theta(L) - theta(s*), jumps included. "auto" picks the smallest
        grid parameter where both are at most pi (the turning budget
        guarantees one exists) and records the choice; an explicit pivot,
        snapped to its minus-side row, is refused unless both are at most
        pi + tol there.
        """
        c, ct = self.c, self.c_tilde
        if c.theta is None:
            raise ProfileError("full-range monotonicity needs a convex plane curve")
        first, second = c.theta - c.theta[0], c.theta[-1] - c.theta
        note = ""
        if isinstance(s_star, str) and s_star == "auto":
            idx = np.flatnonzero((first <= math.pi + 1e-12) & (second <= math.pi + 1e-12))
            if idx.size == 0:
                raise ProfileError("no pivot satisfies the half-turn arc budget")
            row = int(idx[0])
            note = f"auto pivot: smallest grid parameter with both arcs <= pi (s*={c.s[row]:.9g})"
        else:
            row = c.nearest_row(float(s_star), side="minus")
            if not (first[row] <= math.pi + self.tol and second[row] <= math.pi + self.tol):
                raise ProfileError(
                    f"pivot s*={float(s_star):.9g} violates the arc budget: "
                    f"lengths ({first[row]:.6g}, {second[row]:.6g}) must be <= pi"
                )
        clen = float(np.linalg.norm(c.position[-1] - c.position[0]))
        report = self.monotonicity(PivotWindow(
            (0, len(c.s) - 1), (float(c.s[0]), float(c.s[-1])), clen, float(c.s[row]), row, False,
            float(c.theta[row]), None, unit(c.tangent[row]), unit(ct.tangent[row]),
        ))
        report.note = note
        return report

    def _space_displacements(self, ws: PivotWindow) -> tuple[np.ndarray, np.ndarray]:
        """Per window (one window: one row): c~(s'') - c~(s') and its inner product with N~."""
        i0, i1 = np.atleast_2d(ws.rows).T
        delta = self.c_tilde.position[i1] - self.c_tilde.position[i0]
        return delta, row_dots(delta, np.atleast_2d(ws.pivot_space))

    def chords(self, ws: PivotWindow) -> ChordReport:
        """``chord`` of every window, as one report whose fields are arrays over the windows
        (one window gives arrays of one)."""
        delta, along = self._space_displacements(ws)
        clen = np.atleast_1d(ws.chord_length)
        bound = along * clen
        space_chord = np.sqrt(row_dots(delta, delta))
        return ChordReport(
            plane_chord=clen, space_chord=space_chord, inner_product_bound=bound,
            s_star=np.atleast_1d(ws.s_star), bound_slack=bound - clen * clen,
            chord_slack=space_chord - clen, tol=self.tol,
        )

    def chord(self, w: PivotWindow) -> ChordReport:
        """Plane chord against the space displacement paired with the included chord."""
        return self.chords(w).row(0)

    def nested_chord(self, w: PivotWindow, s_inner_first: float,
                     s_inner_second: float) -> NestedChordReport:
        """Inner displacement against the window's chord, on both sides of the inclusion.

        <c(b*) - c(a*), chord> <= <c~(b*) - c~(a*), iota(chord)> for any nested
        a* < b* inside the window; equals the chord inequality when the two
        coincide. The inner ends snap to rows as the window's own do, and the
        snapped ends must lie inside ``w.window``.
        """
        c, ct, clen = self.c, self.c_tilde, w.chord_length
        j0 = c.nearest_row(s_inner_first, side="plus")
        j1 = c.nearest_row(s_inner_second, side="minus")
        lo, hi = w.window
        if not (s_inner_first < s_inner_second and lo <= c.s[j0] and c.s[j1] <= hi):
            raise ValueError("inner window must nest inside the outer window")
        lhs = float((c.position[j1] - c.position[j0]) @ (clen * w.pivot_plane))
        rhs = float((ct.position[j1] - ct.position[j0]) @ (clen * w.pivot_space))
        slack = rhs - lhs
        return NestedChordReport(lhs, rhs, slack, w.s_star,
                                 _length_scaled_passed(slack, self.tol, clen))

    def expansion(self, pair_samples: int, seed: int) -> ExpansionReport:
        """Linear expansion bound on ``pair_samples`` seeded random windows.

        Windows are drawn a block at a time, in the order a one-by-one draw
        takes them, and each block is derived together.
        """
        c = self.c
        rng = random.Random(seed)
        n = len(c.s)
        sep = max(10, n // 100)  # fewest rows between a sampled window's two ends
        worst, worst_pair, made = math.inf, (0.0, 0.0), 0
        while made < pair_samples:
            ranges = []
            while len(ranges) < min(WINDOW_BLOCK, pair_samples - made):
                i = rng.randrange(0, n - sep)
                j = rng.randrange(i + sep, n)
                a, b = float(c.s[i]), float(c.s[j])
                if b - a > 0:
                    ranges.append((a, b))
            ws = self.windows(ranges)
            _, along = self._space_displacements(ws)
            slacks = (along - ws.chord_length).tolist()
            for s_range, slack in zip(ranges, slacks):
                if slack < worst:
                    worst, worst_pair = slack, s_range
            made += len(ranges)
        return ExpansionReport(pair_samples, worst, worst_pair, self.tol)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    """Monotonicity of the chord-aligned displacement functional.

    ``derivative_slack`` samples the derivative of I(s) (which the theorem
    asserts is non-negative); ``I_samples`` evaluates I directly through the
    explicit inclusion matrix as a cross-check.
    """

    s_star: float
    jump_interior: bool
    window: tuple[float, float]
    s: np.ndarray
    I_samples: np.ndarray
    derivative_slack: np.ndarray
    min_slack: float
    argmin_s: float
    inclusion: IsometricInclusion
    pivot_plane: np.ndarray
    pivot_space: np.ndarray
    tol: float
    note: str = ""

    @property
    def conclusion_passed(self) -> bool:
        return self.min_slack >= -self.tol


# ---------------------------------------------------------------------------
# chord inequalities
# ---------------------------------------------------------------------------

@dataclass
class ChordReport:
    """Chord comparison: plane chord length against the projected space chord.

    ``inner_product_bound`` is the space displacement paired with the included
    chord; the chord inequality follows from it by Cauchy-Schwarz, so both
    slacks are recorded. The fields are floats for one window, or arrays over
    many (``ComparisonPair.chords``), and the pass rules hold for either.
    """

    plane_chord: float
    space_chord: float
    inner_product_bound: float
    s_star: float
    bound_slack: float
    chord_slack: float
    tol: float

    def row(self, k: int) -> ChordReport:
        """Window k of a report over many windows (``ComparisonPair.chords``), with float fields."""
        per_window = (f.name for f in fields(self) if f.name != "tol")
        return replace(self, **{name: getattr(self, name)[k].item() for name in per_window})

    @property
    def chord_passed(self):
        return self.chord_slack >= -self.tol

    @property
    def bound_passed(self):
        return _length_scaled_passed(self.bound_slack, self.tol, self.plane_chord)

    @property
    def passed(self):
        return self.bound_passed & self.chord_passed

    @property
    def slack(self) -> float:
        return min(self.bound_slack, self.chord_slack)


@dataclass
class NestedChordReport:
    lhs: float
    rhs: float
    slack: float
    s_star: float
    passed: bool


@dataclass
class ExpansionReport:
    """Directional expansion bound for the paired displacement field.

    For sampled parameter pairs (a, b), the space displacement projected on
    the included chord direction must reach the full plane chord length:
    <X(y) - X(x), (y - x)/|y - x|> >= |x - y|, the linear expansion bound.
    """

    n_pairs: int
    min_slack: float
    worst_pair: tuple[float, float]
    tol: float

    @property
    def passed(self) -> bool:
        return self.min_slack >= -self.tol


# ---------------------------------------------------------------------------
# consistency of a monotonicity report with its own derivative
# ---------------------------------------------------------------------------

def integral_consistency(report: MonotonicityReport) -> float:
    """|I(s'') - I(s') - integral of the derivative slack| over the window.

    The slack is integrated piece by piece between the window's jumps (where
    ``s`` repeats), each piece on its own uniform grid.
    """
    increase = float(report.I_samples[-1] - report.I_samples[0])
    cuts = np.flatnonzero(np.diff(report.s) == 0) + 1
    quad = sum(float(cumulative_integral_uniform(v, grid_step(s))[-1])
               for s, v in zip(np.split(report.s, cuts), np.split(report.derivative_slack, cuts))
               if len(s) > 1)
    return abs(increase - quad)
