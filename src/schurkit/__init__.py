"""schurkit: curve reconstruction from curvature data and numerical
verification of Schur-type chord comparison theorems in four ambient
geometries (plane, Euclidean 3-space, unit sphere, Minkowski space)."""

__version__ = "0.1.0"

from .numerics import (
    DEFAULT_CONTROL,
    StepControl,
    bisect_monotone,
)
from .curves import (
    CurvatureProfile,
    Jump,
    SampledCurve,
    constant_curvature,
    curvature_magnitude,
    embed_plane_curve,
    linear_curvature,
    reconstruct_plane,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
)
from .schur import (
    ChordReport,
    ComparisonPair,
    IsometricInclusion,
    MonotonicityReport,
    build_inclusion,
)
from .sphere import (
    ProjectedPair,
    ProjectionConfig,
    SphericalCurve,
    geodesic_curvature_of,
    hinge_compare,
    jump_angle_transform,
    projected_arclength,
    reconstruct_spherical,
    space_curvature,
    spherical_schur_verify,
)
from .minkowski import (
    minkowski_dot,
    reconstruct_timelike_2d,
    reconstruct_timelike_3d,
    reversed_chord_inequality,
    timelike_curvature,
    timelike_monotonicity,
)
