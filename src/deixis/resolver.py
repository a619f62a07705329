"""Candidates and the threshold-plus-tolerance interpretation rule.

A gesture aimed at surface target x* selects every candidate within
theta + epsilon of x*, where theta is the distance from x* to the closest
candidate.  The candidates of referential pointing are the objects' (id,
position) pairs, and distances to them are center-to-center in the surface
frame; those of locating pointing are the stable region of the placed shape.
"""
from __future__ import annotations

import math
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

# the branch of `resolve` that found theta
DISCRETE = "discrete"  # distances to the objects
STABLE = "stable"  # x* lies in the stable region: theta is 0.0
ENUMERATED = "enumerated"  # the nearest stable point, found by enumeration


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
    locating outcomes."""

    epsilon: float = 0.10
    ambiguity_band: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= self.ambiguity_band < math.inf:
            raise ValueError("ambiguity_band must be nonnegative and finite")


@dataclass(frozen=True)
class Resolution:
    """theta, the branch that found it (`path`) and the selected object ids
    (referential) or the region (locating)."""

    theta: float
    path: str
    selected_ids: frozenset[str] | None = None
    region: StableRegion | None = None


def candidates(scene: Scene, intent: str, shape_for_placement: Shape | None = None
               ) -> tuple[tuple[str, SurfacePoint], ...] | StableRegion:
    """Candidates for an intent: the objects' (id, position) pairs
    (referential), or the stable region of the placed shape (locating; the
    full surface with gravity off)."""
    if intent == REFERENTIAL:
        return tuple((o.id, o.pose.position) for o in scene.objects)
    if intent == LOCATING:
        if shape_for_placement is None:
            raise ValueError("locating candidates require the shape being placed")
        region = stable_region(scene, shape_for_placement)
        if region.is_empty():
            raise NoStablePlacement("no stable placement for the given shape")
        return region
    raise ValueError(f"unknown intent {intent!r}")


def resolve(cands: tuple[tuple[str, SurfacePoint], ...] | StableRegion,
            x_star: SurfacePoint, cfg: ResolverConfig = ResolverConfig()) -> Resolution:
    """Apply the theta + epsilon rule at target x*."""
    if isinstance(cands, StableRegion):
        if cands.contains(x_star):
            return Resolution(theta=0.0, path=STABLE, region=cands)
        nearest = cands.nearest_from_outside(x_star)
        return Resolution(theta=surface_distance(nearest, x_star), path=ENUMERATED,
                          region=cands)
    if not cands:
        raise EmptyScene("referential pointing needs at least one object")
    dists = {oid: surface_distance(pos, x_star) for oid, pos in cands}
    theta = min(dists.values())
    cutoff = theta + cfg.epsilon
    selected = frozenset(oid for oid, d in dists.items() if d <= cutoff)
    return Resolution(theta=theta, path=DISCRETE, selected_ids=selected)


def classify_outcome(res: Resolution, shown: str | SurfacePoint,
                     x_star: SurfacePoint,
                     cfg: ResolverConfig = ResolverConfig()) -> str:
    """Three-way judgment of a shown outcome against a resolution; a shown
    outcome of the other kind (a point for an object, or the reverse) is a
    `TypeMismatch`."""
    if res.region is None:
        if not isinstance(shown, str):
            raise TypeMismatch("referential resolution expects an object id")
        if shown not in res.selected_ids:
            return INCORRECT
        return CORRECT if len(res.selected_ids) == 1 else AMBIGUOUS
    if not isinstance(shown, SurfacePoint):
        raise TypeMismatch("locating resolution expects a surface point")
    if not res.region.contains(shown):
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
