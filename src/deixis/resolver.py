"""Candidate sets and the threshold-plus-tolerance interpretation rule.

A gesture aimed at surface target x* selects every candidate within
theta + epsilon of x*, where theta is the distance from x* to the closest
candidate.  Distances to objects are center-to-center in the surface frame.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyScene, NoStablePlacement, TypeMismatch
from .geometry import (Plane, Ray, SurfacePoint, ray_plane_intersect,
                       surface_distance, to_surface_frame)
from .scene import Scene, Shape, StableRegion, stable_region

REFERENTIAL = "referential"
LOCATING = "locating"

CORRECT = "correct"
INCORRECT = "incorrect"
AMBIGUOUS = "ambiguous"
NEARER = "nearer"
FARTHER = "farther"


@dataclass(frozen=True)
class PointingAct:
    """An intent-bearing gesture; `target` is the ray's surface intersection."""

    ray: Ray
    intent: str
    target: SurfacePoint

    def __post_init__(self) -> None:
        if self.intent not in (REFERENTIAL, LOCATING):
            raise ValueError(f"unknown intent {self.intent!r}")

    @classmethod
    def aim(cls, ray: Ray, plane: Plane, intent: str) -> "PointingAct":
        hit = ray_plane_intersect(ray, plane)
        if hit is None:
            raise ValueError("pointing ray does not meet the surface")
        return cls(ray, intent, to_surface_frame(hit, plane))


@dataclass(frozen=True)
class ResolverConfig:
    """epsilon: tolerance added to theta (10 cm per the simulation scale).
    ambiguity_band: extra slack separating ambiguous from incorrect for
    locating outcomes.  max_range: optional hard selection cap, off by
    default (referential selection otherwise has no maximum range)."""

    epsilon: float = 0.10
    ambiguity_band: float = 0.10
    max_range: float | None = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.ambiguity_band < 0.0:
            raise ValueError("ambiguity_band must be nonnegative")


@dataclass(frozen=True)
class CandidateSet:
    """Admissible interpretations: discrete object positions, or a region."""

    kind: str  # "discrete" | "continuous"
    items: tuple[tuple[str, SurfacePoint], ...] = ()
    region: StableRegion | None = None

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            if not self.items:
                raise EmptyScene("discrete candidate set is empty")
        elif self.kind == "continuous":
            if self.region is None:
                raise ValueError("continuous candidate set requires a region")
        else:
            raise ValueError(f"unknown candidate kind {self.kind!r}")


@dataclass(frozen=True)
class ContinuousSelection:
    region: StableRegion
    center: SurfacePoint
    radius: float

    def contains(self, p: SurfacePoint) -> bool:
        return (self.region.contains(p)
                and surface_distance(p, self.center) <= self.radius)


@dataclass(frozen=True)
class Resolution:
    theta: float
    selected_ids: frozenset[str] | None = None
    selection: ContinuousSelection | None = None
    ambiguous: bool = False

    @property
    def kind(self) -> str:
        return "discrete" if self.selected_ids is not None else "continuous"


def candidates(scene: Scene, intent: str,
               shape_for_placement: Shape | None = None) -> CandidateSet:
    """Candidate set for an intent: all object positions (referential), the
    stable region (locating with gravity), or the full surface (gravity off)."""
    if intent == REFERENTIAL:
        if not scene.objects:
            raise EmptyScene("referential pointing needs at least one object")
        return CandidateSet("discrete",
                            items=tuple((o.id, o.pose.position) for o in scene.objects))
    if intent == LOCATING:
        if shape_for_placement is None:
            raise ValueError("locating candidates require the shape being placed")
        region = stable_region(scene, shape_for_placement)
        if region.is_empty():
            raise NoStablePlacement("no stable placement for the given shape")
        return CandidateSet("continuous", region=region)
    raise ValueError(f"unknown intent {intent!r}")


def resolve(cands: CandidateSet, x_star: SurfacePoint,
            cfg: ResolverConfig = ResolverConfig()) -> Resolution:
    """Apply the theta + epsilon rule at target x*."""
    if cands.kind == "discrete":
        dists = {oid: surface_distance(pos, x_star) for oid, pos in cands.items}
        theta = min(dists.values())
        cutoff = theta + cfg.epsilon
        if cfg.max_range is not None:
            cutoff = min(cutoff, cfg.max_range)
        selected = frozenset(oid for oid, d in dists.items() if d <= cutoff)
        return Resolution(theta=theta, selected_ids=selected,
                          ambiguous=len(selected) > 1)
    region = cands.region
    assert region is not None
    theta = region.distance(x_star)  # 0.0 when x* is stable
    return Resolution(theta=theta,
                      selection=ContinuousSelection(region, x_star, theta + cfg.epsilon))


def classify_outcome(res: Resolution, shown: str | SurfacePoint,
                     x_star: SurfacePoint,
                     cfg: ResolverConfig = ResolverConfig()) -> str:
    """Three-way judgment of a shown outcome against a resolution."""
    if res.kind == "discrete":
        if not isinstance(shown, str):
            raise TypeMismatch("referential resolution expects an object id")
        assert res.selected_ids is not None
        if shown not in res.selected_ids:
            return INCORRECT
        return CORRECT if len(res.selected_ids) == 1 else AMBIGUOUS
    if not isinstance(shown, SurfacePoint):
        raise TypeMismatch("locating resolution expects a surface point")
    assert res.selection is not None
    if not res.selection.region.contains(shown):
        return INCORRECT
    d_shown = surface_distance(shown, x_star)
    if d_shown <= res.theta + cfg.epsilon:
        return CORRECT
    if d_shown <= res.theta + cfg.epsilon + cfg.ambiguity_band:
        return AMBIGUOUS
    return INCORRECT


def predict_cluttered(x_star: SurfacePoint, x1: SurfacePoint, x2: SurfacePoint,
                      cfg: ResolverConfig = ResolverConfig()) -> str:
    """`ambiguous` when the two candidates are within epsilon of equidistant
    from x*, else `nearer` (a preference for the closer candidate)."""
    d1 = surface_distance(x1, x_star)
    d2 = surface_distance(x2, x_star)
    return AMBIGUOUS if abs(d1 - d2) <= cfg.epsilon else NEARER
