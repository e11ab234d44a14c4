"""Spherical curves and their cone projection onto a plane.

A unit-sphere curve c(s) with geodesic curvature k(s) satisfies the frame
system c' = T, T' = kV - c, V' = -kT with V = c x T. Projecting the cone
over c onto a plane not through the origin yields a plane curve R(s) c(s)
with R = d / <c, u>; scaling a companion spherical curve by the same R(s)
produces a space curve with the same speed and arc length. Curvature
dominance and jump-angle dominance survive the projection, which reduces
the spherical chord comparison to the plane one plus a hinge argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .curves import (
    CurvatureProfile,
    Jump,
    SampledCurve,
    _require_aligned,
    _tangent_row,
    _frames_between,
    _no_extension,
    reconstruct_piecewise,
    theta_from_tangent,
)
from .errors import (
    DegenerateSpeedError,
    DegenerateTriangleError,
    IntegrationError,
    NormalizationError,
    ProfileError,
    ProjectionError,
)
from .numerics import (
    CURVATURE_TOL,
    DEFAULT_CONTROL,
    DEFAULT_TOL,
    StepControl,
    cumulative_integral_uniform,
    finite_diff_array,
    grid_step,
    orthonormal_complement,
    orthonormal_rows,
    rk4_frames,
    unit,
)
from .reports import Census
from .schur import (
    ChordReport,
    ComparisonPair,
    MonotonicityReport,
    PivotWindow,
    _jump_angle,
    jump_dominance,
)

__all__ = [
    "SphericalCurve",
    "ProjectionConfig",
    "ProjectedPair",
    "HingeResult",
    "SphericalVerification",
    "reconstruct_spherical",
    "geodesic_curvature_of",
    "projected_arclength",
    "space_curvature",
    "jump_angle_transform",
    "hinge_compare",
    "spherical_schur_verify",
    "rotate_spherical",
]


@dataclass
class SphericalCurve(SampledCurve):
    """Unit-sphere curve with its full moving frame {c, T, V} sampled.

    ``frames_between(rows, s)`` extends the frames as ``between`` extends
    the tangent: lane k's (3, 3) frame {c, T, V} at s[k] by one RK4 step from
    row rows[k]. Like ``between`` it is attached after construction, and a
    copy made by ``dataclasses.replace`` has none. So is
    ``geodesic_curvature``, the input kg on the rows (NaN on both rows of
    each jump): a copy has None, and its kg is measured from its own rows.
    """

    normal: np.ndarray | None = None
    geodesic_curvature: np.ndarray | None = field(default=None, init=False)
    frames_between: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        default=_no_extension, init=False)

    def frame_drift(self) -> float:
        """Worst deviation of {c, T, V} from an orthonormal frame with V = c x T."""
        c, t, v = self.position, self.tangent, self.normal
        vals = [
            np.abs(np.einsum("ij,ij->i", c, c) - 1.0),
            np.abs(np.einsum("ij,ij->i", t, t) - 1.0),
            np.abs(np.einsum("ij,ij->i", v, v) - 1.0),
            np.abs(np.einsum("ij,ij->i", c, t)),
            np.abs(np.einsum("ij,ij->i", c, v)),
            np.abs(np.einsum("ij,ij->i", t, v)),
            np.linalg.norm(v - np.cross(c, t), axis=1),
        ]
        return float(max(np.max(x) for x in vals))


_SPHERE_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def _sphere_step_drift(s_end: np.ndarray, p: np.ndarray) -> None:
    """Refuse RK4 steps that move an orthonormal {c, T, V} frame off it by over 1e-6.

    From an orthonormal frame Y the step gives P Y, whose |c|^2, |T|^2 and
    <c, T> are the entries (0,0), (1,1) and (0,1) of P P^T, sums over the
    first two rows of P written out per component.
    """
    (c0, c1, c2), (t0, t1, t2) = p[:, 0].T, p[:, 1].T
    drift = np.maximum(np.maximum(np.abs(c0 * c0 + c1 * c1 + c2 * c2 - 1.0),
                                  np.abs(t0 * t0 + t1 * t1 + t2 * t2 - 1.0)),
                       np.abs(c0 * t0 + c1 * t1 + c2 * t2))
    bad = drift > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(
            f"frame drift {drift[i]:.3g} at s={s_end[i]:.6g} exceeds 1e-6; reduce step_h"
        )


def _sphere_project(s: np.ndarray, frames: np.ndarray) -> None:
    """Re-orthonormalize {c, T, V} frame rows in place: unit c, T made unit and
    orthogonal to c, V = c x T."""
    frames[:, 0], frames[:, 1], frames[:, 2] = orthonormal_rows(frames[:, 0], frames[:, 1])


def reconstruct_spherical(
    kg: Callable,
    jumps: Sequence[Jump] | Sequence[tuple] = (),
    length: float = math.pi,
    frame0: tuple | None = None,
    control: StepControl = DEFAULT_CONTROL,
) -> SphericalCurve:
    """Spherical curve from geodesic curvature kg(s) and tangent jumps.

    The frame system is integrated per smooth segment, every sampled frame
    is re-orthonormalized, and a step that would move an orthonormal frame
    by more than 1e-6 raises IntegrationError. A jump
    rotates T by alpha within the tangent plane at c (toward V, the convex
    turning sense); L must not exceed pi.
    """
    if length > math.pi + 1e-9:
        raise ProfileError(f"spherical curves are limited to length <= pi, got {length}")
    profile = CurvatureProfile(
        length,
        kg,
        tuple(j if isinstance(j, Jump) else Jump(float(j[0]), float(j[1])) for j in jumps),
    )

    c0, t0 = (
        (np.asarray(frame0[0], dtype=float), np.asarray(frame0[1], dtype=float))
        if frame0 is not None
        else _SPHERE_FRAME
    )
    if (
        abs(np.linalg.norm(c0) - 1.0) > 1e-9
        or abs(np.linalg.norm(t0) - 1.0) > 1e-9
        or abs(float(c0 @ t0)) > 1e-9
    ):
        raise NormalizationError("initial spherical frame must satisfy |c|=|T|=1, c.T=0")

    def generator(s):
        k = kg(s)
        return {(0, 1): 1.0, (1, 0): -1.0, (1, 2): k, (2, 1): -k}

    def segment(state, span, control):
        return rk4_frames(
            generator, _sphere_project, state.reshape(3, 3), span, control, _sphere_step_drift
        )

    def turn(idx, state):
        # rotate T toward V in the tangent plane at c
        alpha = profile.jumps[idx].angle
        c, t, v = state[0:3], state[3:6], state[6:9]
        t_new = math.cos(alpha) * t + math.sin(alpha) * v
        state[3:6] = unit(t_new - (t_new @ c) * c)
        state[6:9] = np.cross(c, state[3:6])
        return state

    s, vals, marks = reconstruct_piecewise(
        segment,
        np.concatenate([c0, t0, np.cross(c0, t0)]),
        profile.segment_intervals(),
        turn,
        control,
    )
    curve = SphericalCurve(s, vals[:, 0:3], vals[:, 3:6], marks, normal=vals[:, 6:9])
    curve.geodesic_curvature = curve.jump_masked(kg(s))
    _attach_frames(curve, partial(_frames_between, generator, vals.reshape(-1, 3, 3), s))
    return curve


def _attach_frames(curve: SphericalCurve, frames: Callable) -> None:
    """Set a spherical curve's ``frames_between`` and the ``between`` it implies."""
    curve.frames_between = frames
    curve.between = partial(_tangent_row, frames)


def geodesic_curvature_of(curve: SphericalCurve) -> np.ndarray:
    """<T', V> on the curve's rows by per-segment finite differences, NaN on jump rows."""
    dT = curve.segment_derivatives(curve.tangent)
    return curve.jump_masked(np.einsum("ij,ij->i", dT, curve.normal))


def _rotated_frames(frames: Callable, r: np.ndarray, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A rotated curve's ``frames_between``: the original's extended frames, rotated."""
    return frames(rows, s) @ r.T


def rotate_spherical(curve: SphericalCurve, rotation: np.ndarray) -> SphericalCurve:
    """Image of a spherical curve under a rotation matrix (frame included)."""
    r = np.asarray(rotation, dtype=float)
    out = SphericalCurve(
        curve.s.copy(),
        curve.position @ r.T,
        curve.tangent @ r.T,
        curve.jump_marks.copy(),
        normal=curve.normal @ r.T,
    )
    out.geodesic_curvature = curve.geodesic_curvature  # a rotation keeps kg
    _attach_frames(out, partial(_rotated_frames, curve.frames_between, r))
    return out


# ---------------------------------------------------------------------------
# cone projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionConfig:
    """Projection plane <x, u> = d with a horizon guard.

    The projection R = d/<c, u> blows up as <c, u> -> 0, so configurations
    where the curve dips below ``epsilon_min`` are refused.
    """

    u: tuple[float, float, float]
    d: float = 1.0
    epsilon_min: float = 0.1

    def __post_init__(self) -> None:
        v = np.asarray(self.u, dtype=float)
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # a NaN norm fails too
            raise NormalizationError("plane normal u must be a unit vector")
        if not 0 < self.d < math.inf:
            raise ProfileError(f"plane offset d must be positive and finite, got {self.d}")
        if not self.epsilon_min > 0:
            raise ProfileError("epsilon_min must be positive")

    @property
    def normal(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)


def _cone_section(
    ct: np.ndarray, config: ProjectionConfig, frames: Sequence[np.ndarray],
    s: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The cone section of c: R = d/<c,u> and R' = -d <T,u> / <c,u>^2 from c's
    stacked (n, 2, 3) rows or lanes {c, T}, and the velocity R' f + R g of
    each given stacked frame {f, g, ...} (c's own for the section R c).

    Differentiating R uses only the frame, so jump rows get their true
    one-sided values and the speed identity |P'|^2 = R'^2 + R^2 holds to
    frame-maintenance accuracy rather than finite-difference order. Given
    the rows' arc lengths ``s``, heights below ``epsilon_min`` are refused.
    """
    height, slope = (ct @ config.normal).T  # <c, u> and <T, u>
    if s is not None:
        worst = int(np.argmin(height))
        if height[worst] < config.epsilon_min:
            raise ProjectionError(
                f"<c(s), u> = {height[worst]:.6g} < epsilon_min at s={s[worst]:.6g}; "
                "choose a different plane"
            )
    r, dr = config.d / height, -config.d * slope / height**2
    return r, dr, [dr[:, None] * f[:, 0] + r[:, None] * f[:, 1] for f in frames]


def _scaled_curve(
    curve: SphericalCurve, r: np.ndarray, dr: np.ndarray, velocity: np.ndarray, name: str
) -> tuple[SampledCurve, float]:
    """R(s) c(s) on c's rows from its section velocity, and its worst
    | |P'|^2 - (R'^2 + R^2) |."""
    speed = np.linalg.norm(velocity, axis=1)
    if float(np.min(speed)) < 1e-9:
        raise DegenerateSpeedError(f"{name} has vanishing speed")
    scaled = SampledCurve(curve.s.copy(), r[:, None] * curve.position,
                          velocity / speed[:, None], curve.jump_marks.copy())
    speed_sq = np.einsum("ij,ij->i", velocity, velocity)
    return scaled, float(np.max(np.abs(speed_sq - (dr**2 + r**2))))


def projected_arclength(curve: SampledCurve, r: np.ndarray) -> np.ndarray:
    """Arc length tau(s) of the projected curve on ``curve``'s rows: the integral
    of sqrt(R'^2 + R^2) for R given on those rows.

    Integration restarts at each of the curve's jumps, where R' may jump, so
    the one-sided derivatives are respected; both rows of a jump get the
    same tau. DegenerateSpeedError unless tau increases strictly from each
    grid point to the next.
    """
    tau, base = np.empty(len(curve.s)), 0.0
    for seg in curve.segments():
        h = grid_step(curve.s[seg])
        dr = finite_diff_array(r[seg], h, 1)
        tau[seg] = base + cumulative_integral_uniform(np.sqrt(dr * dr + r[seg] ** 2), h)
        base = tau[seg.stop - 1]
    if not np.all(np.delete(np.diff(tau), curve.jump_marks) > 0):
        raise DegenerateSpeedError("projected arc length is not strictly increasing")
    return tau


def space_curvature(p: SampledCurve) -> np.ndarray:
    """Curvature |P' x P''| / |P'|^3 of a 3D sampled curve on its rows, NaN on jump rows."""
    if p.dim != 3:
        raise ProfileError("space_curvature expects a 3D curve")
    if any(seg.stop - seg.start < 5 for seg in p.segments()):
        raise ProfileError("need at least 5 samples per segment for curvature")
    d1 = p.segment_derivatives(p.position, 1)
    d2 = p.segment_derivatives(p.position, 2)
    speed = np.linalg.norm(d1, axis=1)
    if float(np.min(speed)) < 1e-9:
        raise DegenerateSpeedError("vanishing speed in curvature computation")
    return p.jump_masked(np.linalg.norm(np.cross(d1, d2), axis=1) / speed**3)


def jump_angle_transform(
    r_prime_minus: float, r_prime_plus: float, r: float, alpha: float
) -> float:
    """Turning angle of the projected curve at a tangent jump of angle alpha.

    cos(theta) = (R'(-) R'(+) + R^2 cos(alpha)) /
                 sqrt((R'(-)^2 + R^2)(R'(+)^2 + R^2)).
    Reduces to theta = alpha when R is critical on both sides.
    """
    if not r > 0:
        raise ProfileError(f"R must be positive, got {r}")
    if not -1e-12 <= alpha <= math.pi + 1e-12:
        raise ProfileError(f"alpha outside [0, pi]: {alpha}")
    num = r_prime_minus * r_prime_plus + r * r * math.cos(alpha)
    den = math.sqrt((r_prime_minus**2 + r * r) * (r_prime_plus**2 + r * r))
    return math.acos(max(-1.0, min(1.0, num / den)))


# ---------------------------------------------------------------------------
# projected pair
# ---------------------------------------------------------------------------

@dataclass
class ProjectedPair:
    """A spherical pair with its shared projection data.

    ``plane_curve`` is the cone section of c (a plane curve in 3D
    coordinates), ``space_curve`` the companion R(s) c~(s), both on c's rows.
    Both share R and hence the arc length tau, which parametrizes the plane
    comparison on those rows with no resampling; their measured curvatures
    and transformed jump angles are recorded. R, tau and the curvatures are
    (n,) arrays on c's rows (the curvatures NaN on both rows of each jump).
    """

    config: ProjectionConfig
    R: np.ndarray
    tau: np.ndarray
    plane_curve: SampledCurve
    space_curve: SampledCurve
    plane_curvature: np.ndarray
    space_curvature: np.ndarray
    jump_angles_plane: tuple[float, ...]
    jump_angles_space: tuple[float, ...]
    speed_identity_error: float


def project_pair(
    c: SphericalCurve, c_tilde: SphericalCurve, config: ProjectionConfig
) -> ProjectedPair:
    """Project both curves of a spherical pair with c's scaling R(s)."""
    _require_aligned(c, c_tilde)
    rows, rows_t = (np.stack([x.position, x.tangent], axis=1) for x in (c, c_tilde))
    r_rows, dr, (v_plane, v_space) = _cone_section(rows, config, (rows, rows_t), c.s)
    plane, plane_err = _scaled_curve(c, r_rows, dr, v_plane, "projected curve")
    space, space_err = _scaled_curve(c_tilde, r_rows, dr, v_space, "companion projection")
    tau = projected_arclength(c, r_rows)

    theta_plane, theta_space = [], []
    for i in c.jump_marks:
        m, p, r = float(dr[i]), float(dr[i + 1]), float(r_rows[i])
        theta_plane.append(jump_angle_transform(m, p, r, _jump_angle(c, i)))
        theta_space.append(jump_angle_transform(m, p, r, _jump_angle(c_tilde, i)))
    return ProjectedPair(
        config=config,
        R=r_rows,
        tau=tau,
        plane_curve=plane,
        space_curve=space,
        plane_curvature=space_curvature(plane),
        space_curvature=space_curvature(space),
        jump_angles_plane=tuple(theta_plane),
        jump_angles_space=tuple(theta_space),
        speed_identity_error=max(plane_err, space_err),
    )


def _rowwise_pair(pair: ProjectedPair, c: SphericalCurve,
                  c_tilde: SphericalCurve) -> tuple[SampledCurve, SampledCurve]:
    """Both projected curves on c's rows, parametrized by their shared tau.

    The plane curve is expressed in 2D coordinates of the projection plane
    (oriented so it turns counterclockwise) with its cumulative tangent angle
    attached; the companion stays in 3D. R scales both, so tau is their
    common arc length and nothing is resampled. Off the rows, a tau label in
    the cell of row i is mapped linearly onto s in [s_i, s_i+1], and both
    curves there are the exact cone sections of c's and c~'s extended frames,
    from the same ``_cone_section`` as on the rows: R = d/<c, u> and the
    tangent along R' c + R T (R' c~ + R T~).
    """
    plane, space = pair.plane_curve, pair.space_curve
    u, offset = pair.config.normal, pair.config.d
    e1 = orthonormal_complement(u)
    e2 = np.cross(u, e1)
    origin = offset * u
    xy = np.column_stack(
        [(plane.position - origin) @ e1, (plane.position - origin) @ e2]
    )
    txy = np.column_stack([plane.tangent @ e1, plane.tangent @ e2])
    tau, s = pair.tau, c.s
    plane2d = SampledCurve(tau, xy, txy, plane.jump_marks)
    plane2d.theta = theta_from_tangent(plane2d)
    if plane2d.theta[-1] < plane2d.theta[0]:
        # orient the basis so the convex projected curve turns counterclockwise
        flip = np.array([1.0, -1.0])
        e2, xy, txy = -e2, xy * flip, txy * flip
        plane2d = SampledCurve(tau, xy, txy, plane.jump_marks)
        plane2d.theta = theta_from_tangent(plane2d)
    basis = np.column_stack([e1, e2])

    def velocity(curve: SphericalCurve, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """R' f + R g of ``curve``'s extended frame {f, g, ...} at the s of tau label x[k]."""
        s0 = s[rows]
        at = s0 + (x - tau[rows]) * ((s[rows + 1] - s0) / (tau[rows + 1] - tau[rows]))
        frame = c.frames_between(rows, at)
        other = frame if curve is c else curve.frames_between(rows, at)
        return _cone_section(frame[:, :2], pair.config, (other,))[2][0]

    def plane_theta(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The projected curve's tangent angle, lifted from row rows[k]'s."""
        vx, vy = (velocity(c, rows, x)[:, None] @ basis)[:, 0].T
        tx, ty = txy[rows].T
        return plane2d.theta[rows] + np.arctan2(tx * vy - ty * vx, tx * vx + ty * vy)

    plane2d.between = plane_theta
    space2 = SampledCurve(tau, space.position, space.tangent, space.jump_marks)
    space2.between = partial(velocity, c_tilde)
    return plane2d, space2


# ---------------------------------------------------------------------------
# hinge comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HingeResult:
    angle_first: float
    angle_second: float

    @property
    def ordered(self) -> bool:
        return self.angle_first <= self.angle_second + 1e-12


def _apex_angle(r_a: float, r_b: float, chord: float) -> float:
    lo, hi = abs(r_a - r_b), r_a + r_b
    if chord < lo - 1e-9 or chord > hi + 1e-9:
        raise DegenerateTriangleError(
            f"chord {chord:.6g} outside feasible range [{lo:.6g}, {hi:.6g}]"
        )
    cosine = (r_a * r_a + r_b * r_b - chord * chord) / (2.0 * r_a * r_b)
    return math.acos(max(-1.0, min(1.0, cosine)))


def hinge_compare(r_a: float, r_b: float, chord_first: float, chord_second: float) -> HingeResult:
    """Apex angles of two triangles sharing side lengths; longer chord, wider angle."""
    if not (r_a > 0 and r_b > 0):
        raise DegenerateTriangleError("side lengths must be positive")
    return HingeResult(_apex_angle(r_a, r_b, chord_first), _apex_angle(r_a, r_b, chord_second))


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class SphericalVerification:
    """A spherical pair's census and projection. ``projected`` is the plane comparison
    on c's rows, parametrized by tau; the conclusion assumes the hypotheses (the s*
    search needs a convex projected curve), so it is derived on first read."""

    census: Census
    config: ProjectionConfig
    auto_plane: bool
    pair: ProjectedPair
    projected: ComparisonPair
    spherical_chord: float
    spherical_chord_tilde: float
    tol: float

    @cached_property
    def window(self) -> PivotWindow:
        return self.projected.window(None)

    @cached_property
    def monotonicity(self) -> MonotonicityReport:
        return self.projected.monotonicity(self.window)

    @cached_property
    def chords(self) -> ChordReport:
        return self.projected.chord(self.window)

    @cached_property
    def hinge(self) -> HingeResult:
        """The projected triangles share the side lengths R(0) and R(L), so the
        ordered chords order the apex angles and with them the spherical chords."""
        return hinge_compare(float(self.pair.R[0]), float(self.pair.R[-1]),
                             self.chords.plane_chord, self.chords.space_chord)

    @property
    def conclusion_slack(self) -> float:
        return self.spherical_chord_tilde - self.spherical_chord

    @property
    def conclusion_passed(self) -> bool:
        return self.conclusion_slack >= -self.tol

    @property
    def passed(self) -> bool:
        return self.census.all_passed and self.conclusion_passed


def auto_projection_config(c: SphericalCurve) -> ProjectionConfig:
    """Default plane: mean position direction with ``ProjectionConfig``'s default
    offset and horizon guard; midpoint fallback."""
    for direction in (np.mean(c.position, axis=0), c.position[len(c.s) // 2]):
        u = unit(direction)
        if float(np.min(c.position @ u)) >= ProjectionConfig.epsilon_min:
            return ProjectionConfig(tuple(u))
    raise ProjectionError(
        "no admissible projection plane found (curve spans too much of the sphere)"
    )


def spherical_schur_verify(
    c: SphericalCurve,
    c_tilde: SphericalCurve,
    config: ProjectionConfig | str = "auto",
    tol: float = DEFAULT_TOL,
) -> SphericalVerification:
    """End-to-end spherical chord comparison through the cone projection.

    Censuses the spherical hypotheses, projects the pair, censuses curvature
    and jump-angle dominance of the projections, and sets up the plane
    machinery on c's rows parametrized by the shared projected arc length
    tau (R scales both curves, so tau is common to them and nothing is
    resampled). The plane comparison and the hinge argument are derived on
    first read of the result's ``monotonicity``, ``chords`` or ``hinge``.
    """
    _require_aligned(c, c_tilde)
    census = Census()

    for name, curve in (("unit_position_c", c), ("unit_position_c_tilde", c_tilde)):
        drift = float(np.max(np.abs(np.linalg.norm(curve.position, axis=1) - 1.0)))
        census.add(name, drift <= 1e-9, 1e-9 - drift)
    census.add("length_within_pi", c.length <= math.pi + 1e-9, math.pi - c.length)

    kg_c, kg_t = (
        x.geodesic_curvature if x.geodesic_curvature is not None else geodesic_curvature_of(x)
        for x in (c, c_tilde)
    )
    census.dominance("geodesic_curvature_dominance", kg_c, kg_t, c.s, CURVATURE_TOL,
                     convexity="spherical_convexity")
    jump_dominance(census, c, c_tilde, tol)

    auto = isinstance(config, str)
    if auto:
        config = auto_projection_config(c)

    pair = project_pair(c, c_tilde, config)
    census.dominance("projected_curvature_dominance", pair.plane_curvature,
                     pair.space_curvature, c.s, CURVATURE_TOL)
    if pair.jump_angles_plane:
        jump_slack = min(tp - ts for tp, ts in zip(pair.jump_angles_plane, pair.jump_angles_space))
        census.add("projected_jump_dominance", jump_slack >= -tol, jump_slack)
    census.add("projected_speed_identity", pair.speed_identity_error <= 1e-6,
               1e-6 - pair.speed_identity_error)

    d_c = float(np.linalg.norm(c.position[-1] - c.position[0]))
    d_t = float(np.linalg.norm(c_tilde.position[-1] - c_tilde.position[0]))
    return SphericalVerification(
        census=census,
        config=config,
        auto_plane=auto,
        pair=pair,
        projected=ComparisonPair(*_rowwise_pair(pair, c, c_tilde), tol),
        spherical_chord=d_c,
        spherical_chord_tilde=d_t,
        tol=tol,
    )
