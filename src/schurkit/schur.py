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

import numpy as np

from .curves import SampledCurve, _require_aligned, curvature_magnitude
from .errors import (
    HypothesisViolationError,
    NormalizationError,
    ProfileError,
    SchurkitError,
)
from .numerics import (
    DEFAULT_CONTROL,
    TWO_PI,
    bisect_lanes,
    bisect_monotone,
    integrate_sampled,
    orthonormal_complement,
    row_dots,
    unit,
)
from .reports import Census, worst_dominance

__all__ = [
    "ComparisonPair",
    "PivotWindow",
    "IsometricInclusion",
    "SStarResult",
    "MonotonicityReport",
    "ChordReport",
    "NestedChordReport",
    "ExpansionReport",
    "ArcBudgetResult",
    "build_inclusion",
    "arc_length_budget_check",
    "hypothesis_census",
]

DEFAULT_TOL = DEFAULT_CONTROL.tol
ANGLE_TOL = 1e-9  # angular slack of the s* search: lifting the chord angle, landing on a row
S_STAR_TOL = 1e-13  # bisection tolerance of an off-grid s*
# Windows derived together by ``ComparisonPair.windows``; the engine's
# temporaries grow with the block, so it bounds them for any sweep or expansion.
WINDOW_BLOCK = 256


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
class SStarResult:
    """Pivot parameter: where the convex curve's tangent points along the chord.

    When the chord direction falls strictly inside a jump's angular gap the
    pivot snaps to the jump location (``jump_interior`` set) and
    ``beta_minus`` records the angular offset into the gap.
    """

    s_star: float
    index: int
    jump_interior: bool
    chord_angle: float
    beta_minus: float | None
    window: tuple[float, float]


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
            chord_angle: np.ndarray, beta_minus: np.ndarray,
            interpolated: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pivot directions N (plane) and N~ (space), one row per located s*.

    At a jump-interior pivot (``beta_minus`` not NaN), N is the chord
    direction inside the gap and N~ sits at the proportional angle along
    c~'s minimizing tangent arc, which keeps both partial gap angles
    dominated. Off the grid, N~ is c~'s tangent interpolated on the cell at
    s*, read from ``interpolated`` where the caller has it already; all N~
    are normalised together, each as ``unit`` would.
    """
    gap = ~np.isnan(beta_minus)
    off_grid = ~gap & (np.abs(s_star - c.s[index]) > 1e-12 * np.maximum(1.0, np.abs(s_star)))
    raw = c_tilde.tangent[index]
    if off_grid.any():
        raw[off_grid] = (c_tilde.cell_cubics(c_tilde.tangent, index[off_grid])(s_star[off_grid])
                         if interpolated is None else interpolated[off_grid])
    if gap.any():
        raw[gap] = _gap_pivots(c, c_tilde, index[gap], beta_minus[gap])
    norms = np.sqrt(row_dots(raw, raw))
    if (norms < 1e-14).any():
        raise NormalizationError("cannot normalize a (near-)zero vector")
    plane = np.array([(math.cos(a), math.sin(a)) for a in chord_angle.tolist()])
    return plane, raw / norms[:, None]


# ---------------------------------------------------------------------------
# arc budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcBudgetResult:
    passed: bool
    length_first: float
    length_second: float


def arc_length_budget_check(
    c: SampledCurve,
    s_first: float,
    s_second: float,
    s_star,
    tol: float = DEFAULT_TOL,
) -> ArcBudgetResult:
    """Both tangent arcs on either side of the pivot must fit in a half turn.

    Arc lengths are turning angles (curvature integral plus jump angles),
    read off the cumulative tangent angle; a jump-interior pivot contributes
    its partial gap angles to both sides.
    """
    if c.theta is None:
        raise ProfileError("arc budget needs a plane curve with tangent-angle data")
    i0 = c.nearest_row(s_first, side="plus")
    i1 = c.nearest_row(s_second, side="minus")
    if isinstance(s_star, SStarResult):
        theta_star = s_star.chord_angle
    else:
        theta_star = float(c.theta[c.nearest_row(float(s_star), side="minus")])
    len1 = theta_star - float(c.theta[i0])
    len2 = float(c.theta[i1]) - theta_star
    return ArcBudgetResult(
        len1 <= math.pi + tol and len2 <= math.pi + tol, len1, len2
    )


# ---------------------------------------------------------------------------
# hypothesis census
# ---------------------------------------------------------------------------

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
    curvature_tol = tol if curvature_tol is None else curvature_tol
    census = Census()

    k_c = curvature_magnitude(c)
    dominance = worst_dominance(k_c.values, curvature_magnitude(c_tilde).values, k_c.s_grid)
    if dominance is None:
        census.add("curvature_dominance", None, note="no smooth samples")
    else:
        census.add("curvature_dominance", dominance[0] >= -curvature_tol, *dominance[:2])

    if len(c.jump_marks):
        gaps = [(_jump_angle(c, i) - _jump_angle(c_tilde, i), float(c.s[i])) for i in c.jump_marks]
        worst, loc = min(gaps, key=lambda gap: gap[0])
        census.add("jump_dominance", worst >= -tol, worst, loc)
    else:
        census.add("jump_dominance", True, note="no jumps")

    if c.theta is not None:
        dth = np.diff(c.theta)
        worst = float(np.min(dth)) if dth.size else 0.0
        census.add("convexity", worst >= -tol, worst)
        total = float(c.theta[-1] - c.theta[0])
        census.add("turning_budget", total <= TWO_PI + tol, TWO_PI - total)
    else:
        census.add("convexity", False, note="no tangent-angle data")

    return census


# ---------------------------------------------------------------------------
# comparison pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PivotWindow:
    """One window [s', s''] of a comparison pair, derived once.

    ``rows`` are the snapped grid rows (plus side at s', minus side at s''),
    ``chord_length`` is |c(s'') - c(s')|, and ``pivot_plane``/``pivot_space``
    are the directions N and N~ that the inclusion identifies at s*.
    """

    rows: tuple[int, int]
    chord_length: float
    star: SStarResult
    pivot_plane: np.ndarray
    pivot_space: np.ndarray


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
    def _crossing_values(self) -> np.ndarray:
        """Per row, what a smooth crossing fits on its cell: the segment-wise running
        maximum of theta, which its s* inverts, then c~'s tangent, which its N~
        interpolates at s*."""
        c = self.c
        theta_max = np.concatenate([np.maximum.accumulate(c.theta[sl]) for sl in c.segments()])
        return np.column_stack([theta_max, self.c_tilde.tangent])

    @cached_property
    def _theta_record(self) -> np.ndarray:
        """Running maximum of theta over the whole curve.

        A window starting on a record row (where it equals theta) reads its
        own running maximum of theta from it.
        """
        return np.maximum.accumulate(self.c.theta)

    def windows(self, ranges) -> list[PivotWindow]:
        """``window`` of every range, in order, derived together.

        ``WINDOW_BLOCK`` windows at a time, as arrays: the row snap, the
        chord, the lifted chord angle and the branch, then one lane-wise
        bisection for the smooth crossings' s* over cubics fitted lane by
        lane, then the pivots, normalised together. Each lane takes the
        scalar steps, so every window equals ``window``'s. When windows fail,
        the first failing one in input order raises.
        """
        ranges = list(ranges)
        out = []
        for lo in range(0, len(ranges), WINDOW_BLOCK):
            block = ranges[lo : lo + WINDOW_BLOCK]
            try:
                out += self._window_block(block)
            except (ValueError, SchurkitError):
                if len(block) > 1:  # derive one at a time, so the first failing window raises
                    for s_range in block:
                        self._window_block([s_range])
                raise
        return out

    def _window_block(self, ranges) -> list[PivotWindow]:
        c = self.c
        if c.theta is None:
            raise ProfileError("the s* search needs a plane curve with tangent-angle data")
        s, theta, record = c.s, c.theta, self._theta_record
        # a range of None is the whole curve: its ends snap to the first and the last row
        ends = np.array([(-math.inf, math.inf) if r is None else (r[0], r[1]) for r in ranges],
                        dtype=float)
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
        # gap; or a smooth crossing, where theta is inverted on the cell [j-1, j].
        # Off a row j > i0, since phi* >= theta(s'), the maximum at i0.
        on_row, prev = at - phi_star <= ANGLE_TOL, j - 1
        gap = ~on_row & (s[j] == s[prev])
        index = np.where(on_row, j, prev)
        s_star = s[index]
        crossing = (~(on_row | gap)).nonzero()[0]
        interpolated = None
        if crossing.size:
            rows = index[crossing]
            cells = c.cell_cubics(self._crossing_values, rows)
            theta_cells = cells.columns(0)
            a, b = s[rows], s[rows + 1]
            if crossing.size == 1:  # one lane: the scalar bisection on floats, no array overheads
                cubic, target = theta_cells.lane(0), float(phi_star[crossing[0]])
                s_star[crossing] = bisect_monotone(lambda x: cubic(x) - target,
                                                   (float(a[0]), float(b[0])), tol=S_STAR_TOL)
            else:
                s_star[crossing] = bisect_lanes(theta_cells, phi_star[crossing], a, b, tol=S_STAR_TOL)
            interpolated = np.empty((len(ranges), self.c_tilde.dim))
            interpolated[crossing] = cells.columns(slice(1, None))(s_star[crossing])
        beta = np.where(gap, phi_star - before, np.nan)
        planes, spaces = _pivots(c, self.c_tilde, index, s_star, phi_star, beta, interpolated)

        stars = [SStarResult(st, i, g, angle, b if g else None, w) for st, i, g, angle, b, w in zip(
            s_star.tolist(), index.tolist(), gap.tolist(), phi_star.tolist(), beta.tolist(),
            zip(s[i0].tolist(), s[i1].tolist()))]
        return [PivotWindow(rows, length, star, n, n_t) for rows, length, star, n, n_t in zip(
            zip(i0.tolist(), i1.tolist()), clen.tolist(), stars, planes, spaces)]

    def window(self, s_range) -> PivotWindow:
        """The window [s', s''] (None: the whole curve) and its pivot s*, where c's
        tangent points along the chord.

        Requires the cumulative tangent angle of a convex plane curve. The chord
        angle is lifted into the window's angular range [theta(s'), theta(s'')];
        failure to lift means the input violates convexity and raises.
        """
        return self.windows([s_range])[0]

    def _derivative_slack(self, w: PivotWindow) -> tuple[slice, np.ndarray]:
        """The window's rows and the derivative of I(s) on them."""
        sl = slice(w.rows[0], w.rows[1] + 1)
        tangents = self.c_tilde.tangent[sl] @ w.pivot_space - self.c.tangent[sl] @ w.pivot_plane
        return sl, w.chord_length * tangents

    def monotonicity(self, w: PivotWindow) -> MonotonicityReport:
        """Windowed monotonicity with the pivot fixed by the chord direction.

        The derivative of I(s) on the window has the inclusion eliminated
        analytically: pairing iota with its own pivot turns
        <iota(T), iota(chord)> into a plane inner product, so the slack
        reduces to |chord| (<T~, N~> - <T, N>).
        """
        c, ct, clen = self.c, self.c_tilde, w.chord_length
        sl, slack = self._derivative_slack(w)
        inclusion = build_inclusion(w.pivot_plane, w.pivot_space)
        iota_pos = inclusion.apply(c.position[sl])
        i_samples = (ct.position[sl] - iota_pos) @ (clen * w.pivot_space)
        k = int(np.argmin(slack))
        return MonotonicityReport(
            s_star=w.star.s_star, jump_interior=w.star.jump_interior, window=w.star.window,
            s=c.s[sl].copy(), I_samples=i_samples, derivative_slack=slack,
            min_slack=float(slack[k]), argmin_s=float(c.s[sl][k]), pair=self, inclusion=inclusion,
            pivot_plane=w.pivot_plane, pivot_space=w.pivot_space, tol=self.tol,
        )

    def monotonicity_minima(self, ws: list[PivotWindow]) -> tuple[np.ndarray, np.ndarray]:
        """``monotonicity``'s ``min_slack`` and ``argmin_s`` of each window.

        The inclusion and the I(s) samples are not built; the pivots get
        ``build_inclusion``'s unit-norm check.
        """
        for name in ("pivot_plane", "pivot_space"):
            pivots = np.array([getattr(w, name) for w in ws])
            if np.any(np.abs(np.sqrt(row_dots(pivots, pivots)) - 1.0) > 1e-9):
                raise NormalizationError("build_inclusion expects unit vectors")
        min_slack, argmin_s = np.empty(len(ws)), np.empty(len(ws))
        for k, w in enumerate(ws):
            sl, slack = self._derivative_slack(w)
            j = int(np.argmin(slack))
            min_slack[k], argmin_s[k] = slack[j], self.c.s[sl][j]
        return min_slack, argmin_s

    def full_range(self, s_star) -> MonotonicityReport:
        """Whole-curve monotonicity with a freely chosen pivot.

        Any pivot whose two complementary tangent arcs each fit in a half turn
        works; "auto" picks the smallest grid parameter satisfying that budget
        (the turning budget guarantees one exists) and records the choice.
        """
        c, ct = self.c, self.c_tilde
        if c.theta is None:
            raise ProfileError("full-range monotonicity needs a convex plane curve")
        note = ""
        if isinstance(s_star, str) and s_star == "auto":
            th = c.theta
            ok = (th - th[0] <= math.pi + 1e-12) & (th[-1] - th <= math.pi + 1e-12)
            idx = np.flatnonzero(ok)
            if idx.size == 0:
                raise ProfileError("no pivot satisfies the half-turn arc budget")
            row = int(idx[0])
            note = f"auto pivot: smallest grid parameter with both arcs <= pi (s*={c.s[row]:.9g})"
        else:
            row = c.nearest_row(float(s_star), side="minus")
            budget = arc_length_budget_check(
                c, float(c.s[0]), float(c.s[-1]), float(s_star), self.tol
            )
            if not budget.passed:
                raise ProfileError(
                    f"pivot s*={float(s_star):.9g} violates the arc budget: "
                    f"lengths ({budget.length_first:.6g}, {budget.length_second:.6g}) must be <= pi"
                )
        star = SStarResult(float(c.s[row]), row, False, float(c.theta[row]), None,
                           (float(c.s[0]), float(c.s[-1])))
        clen = float(np.linalg.norm(c.position[-1] - c.position[0]))
        report = self.monotonicity(PivotWindow(
            (0, len(c.s) - 1), clen, star, unit(c.tangent[row]), unit(ct.tangent[row])
        ))
        report.note = note
        return report

    def _space_displacements(self, ws: list[PivotWindow]) -> tuple[np.ndarray, np.ndarray]:
        """Per window: c~(s'') - c~(s') and its inner product with N~."""
        i0, i1 = np.array([w.rows for w in ws]).T
        delta = self.c_tilde.position[i1] - self.c_tilde.position[i0]
        return delta, row_dots(delta, np.array([w.pivot_space for w in ws]))

    def chords(self, ws: list[PivotWindow]) -> ChordReport:
        """``chord`` of every window, as one report whose fields are arrays over the windows."""
        delta, along = self._space_displacements(ws)
        clen = np.array([w.chord_length for w in ws])
        bound = along * clen
        space_chord = np.sqrt(row_dots(delta, delta))
        return ChordReport(
            plane_chord=clen, space_chord=space_chord, inner_product_bound=bound,
            s_star=np.array([w.star.s_star for w in ws]), bound_slack=bound - clen * clen,
            chord_slack=space_chord - clen, tol=self.tol,
        )

    def chord(self, w: PivotWindow) -> ChordReport:
        """Plane chord against the space displacement paired with the included chord."""
        return self.chords([w]).row(0)

    def nested_chord(self, w: PivotWindow, s_inner_first: float,
                     s_inner_second: float) -> NestedChordReport:
        """Inner displacement against the window's chord, on both sides of the inclusion.

        <c(b*) - c(a*), chord> <= <c~(b*) - c~(a*), iota(chord)> for any nested
        a* < b* inside the window; equals the chord inequality when the two
        coincide. The inner ends snap to rows as the window's own do, and the
        snapped ends must lie inside ``w.star.window``.
        """
        c, ct, clen = self.c, self.c_tilde, w.chord_length
        j0 = c.nearest_row(s_inner_first, side="plus")
        j1 = c.nearest_row(s_inner_second, side="minus")
        lo, hi = w.star.window
        if not (s_inner_first < s_inner_second and lo <= c.s[j0] and c.s[j1] <= hi):
            raise ValueError("inner window must nest inside the outer window")
        lhs = float((c.position[j1] - c.position[j0]) @ (clen * w.pivot_plane))
        rhs = float((ct.position[j1] - ct.position[j0]) @ (clen * w.pivot_space))
        slack = rhs - lhs
        return NestedChordReport(lhs, rhs, slack, w.star.s_star,
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
            slacks = (along - np.array([w.chord_length for w in ws])).tolist()
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
    pair: ComparisonPair
    inclusion: IsometricInclusion
    pivot_plane: np.ndarray
    pivot_space: np.ndarray
    tol: float
    note: str = ""

    @property
    def census(self) -> Census:
        """The pair's hypothesis census, taken on first read."""
        return self.pair.census

    @property
    def conclusion_passed(self) -> bool:
        return self.min_slack >= -self.tol

    @property
    def passed(self) -> bool:
        return self.census.all_passed and self.conclusion_passed


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
    """|I(s'') - I(s') - integral of the derivative slack| over the window."""
    increase = float(report.I_samples[-1] - report.I_samples[0])
    quad = integrate_sampled(report.s, report.derivative_slack)
    return abs(increase - quad)
