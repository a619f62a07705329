"""Geometric interpretation of robot pointing for pick-and-place tasks."""

from .errors import (DegenerateTable, DeixisError, EmptyInput, EmptyScene,
                     InvalidCount, InvalidCounts, NoStablePlacement, OffPlane,
                     SchemaError, TypeMismatch, UnboundedSection,
                     UnknownSupport)
from .geometry import (Ellipse, Plane, Point3, Ray, SurfacePoint,
                       cone_plane_section, from_surface_frame,
                       ray_plane_intersect, surface_distance,
                       to_surface_frame)
from .resolver import (AMBIGUOUS, CORRECT, FARTHER, INCORRECT, LOCATING,
                       NEARER, REFERENTIAL, CandidateSet, PointingAct,
                       Resolution, ResolverConfig, candidates,
                       classify_outcome, predict_cluttered, resolve)
from .sampling import (ClutteredPair, SampleConfig, augment_dispersion,
                       cluttered_pair, quadrant_of, sample_positions,
                       substream_seed)
from .scene import (SUPPORT_MARGIN, Pose2D, Scene,
                    SceneObject, Shape, StableRegion, is_stable,
                    nearest_stable, stable_region)
from .stats import (ContingencyTable, EquivalenceResult, TestResult,
                    chi_squared_test, chi_squared_upper_tail,
                    fisher_exact_2x2, gamma_q, norm_cdf, tost_equivalence)

__version__ = "0.1.0"

__all__ = [
    "AMBIGUOUS", "CORRECT", "FARTHER", "INCORRECT", "LOCATING", "NEARER",
    "REFERENTIAL", "SUPPORT_MARGIN",
    "CandidateSet", "ClutteredPair", "ContingencyTable", "DegenerateTable",
    "DeixisError", "Ellipse", "EmptyInput", "EmptyScene", "EquivalenceResult",
    "InvalidCount", "InvalidCounts", "NoStablePlacement", "OffPlane",
    "Plane", "Point3", "PointingAct", "Pose2D", "Ray",
    "Resolution", "ResolverConfig", "SampleConfig", "Scene", "SceneObject",
    "SchemaError", "Shape", "StableRegion", "SurfacePoint", "TestResult",
    "TypeMismatch", "UnboundedSection", "UnknownSupport",
    "augment_dispersion", "candidates", "chi_squared_test",
    "chi_squared_upper_tail", "classify_outcome", "cluttered_pair",
    "cone_plane_section", "fisher_exact_2x2", "from_surface_frame", "gamma_q",
    "is_stable", "nearest_stable", "norm_cdf", "predict_cluttered",
    "quadrant_of", "ray_plane_intersect", "resolve", "sample_positions",
    "stable_region", "substream_seed", "surface_distance", "to_surface_frame",
    "tost_equivalence",
]
