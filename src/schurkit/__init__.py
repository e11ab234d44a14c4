"""schurkit: curve reconstruction from curvature data and numerical
verification of Schur-type chord comparison theorems in four ambient
geometries (plane, Euclidean 3-space, unit sphere, Minkowski space)."""

__version__ = "0.1.0"

from .numerics import (
    DEFAULT_CONTROL,
    SampledFunction,
    StepControl,
    bisect_monotone,
    finite_diff,
)
from .curves import (
    BudgetResult,
    CurvatureProfile,
    Jump,
    SampledCurve,
    TangentAngle,
    apply_jump,
    check_convex_budget,
    constant_curvature,
    curvature_magnitude,
    embed_plane_curve,
    linear_curvature,
    reconstruct_plane,
    reconstruct_space_frenet,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
    tangent_angle,
    total_turning,
)
from .schur import (
    ChordReport,
    ComparisonPair,
    IsometricInclusion,
    MonotonicityReport,
    arc_length_budget_check,
    build_inclusion,
)
from .sphere import (
    ProjectedPair,
    ProjectionConfig,
    SphericalCurve,
    closed_form_cross_norm,
    companion_project,
    cone_project,
    curvature_dominance_check,
    geodesic_curvature_of,
    hinge_compare,
    jump_angle_transform,
    projected_arclength,
    reconstruct_spherical,
    space_curvature,
    spherical_schur_verify,
)
from .minkowski import (
    TimelikeCurve,
    lorentz_boost,
    minkowski_dot,
    reconstruct_timelike_2d,
    reconstruct_timelike_3d,
    reversed_chord_inequality,
    timelike_monotonicity,
)
