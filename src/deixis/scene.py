"""Workspace contents, object footprints, gravity-aware stability.

Stability criterion: the vertical projection of a placed shape's center of
mass must fall inside its supporting face (the table, or the top face of the
object directly beneath) shrunk by a 5 mm margin.  Shapes are symmetric with
uniform density, so the center of mass projects onto the placement position.

Geometry: every footprint is a convex polygon core swept by a disk (one
vertex for round shapes, four corners for boxes), and every question is a
level set of its exact signed distance.  Support coverage is sd <= 0, a
top-face island is sd <= -SUPPORT_MARGIN, and two footprints A, B overlap
when their Minkowski difference A - B = A + (-B) has sd < -COLLISION_TOL at
the origin (Ericson, Real-Time Collision Detection, 2004, ch. 4-5).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DeixisError
from .geometry import Plane, SurfacePoint

SUPPORT_MARGIN = 0.005
COLLISION_TOL = 0.001
HEIGHT_TIE_TOL = 1e-6
# absorbs rounding so boundary points found by `nearest` stay stable
_CONTAIN_EPS = 1e-12

TABLE = "table"

_ROUND_KINDS = ("mug", "saucer")
_BOX_KINDS = ("cuboid", "cube")
_ORIGIN = SurfacePoint(0.0, 0.0)

Vertex = tuple[float, float]
Line = tuple[float, float, float, float]  # point (u, v), unit direction (u, v)
Circle = tuple[float, float, float]  # center (u, v), radius


def _cross(o: Vertex, a: Vertex, b: Vertex) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list[Vertex]) -> tuple[Vertex, ...]:
    """Convex hull, counter-clockwise, without collinear vertices."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)
    chain: list[Vertex] = []
    for seq in (pts, pts[::-1]):
        start = len(chain)
        for p in seq:
            while len(chain) >= start + 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        chain.pop()
    return tuple(chain)


class Footprint(NamedTuple):
    """A convex polygon `core` (counter-clockwise vertices) swept by a disk
    of `radius`: one vertex for mugs and saucers, four corners for boxes,
    the hull of the vertex sums for a Minkowski sum."""

    core: tuple[Vertex, ...]
    radius: float = 0.0

    @classmethod
    def box(cls, center: SurfacePoint, half_u: float, half_v: float,
            yaw: float = 0.0) -> "Footprint":
        c, s = math.cos(yaw), math.sin(yaw)
        cu, cv = center.u, center.v
        xu, xv, yu, yv = c * half_u, s * half_u, -s * half_v, c * half_v
        # corners that round to one point are kept once: a box too small
        # for its center's precision is a segment or a point
        return cls(tuple(dict.fromkeys((
            (cu + xu + yu, cv + xv + yv), (cu - xu + yu, cv - xv + yv),
            (cu - xu - yu, cv - xv - yv), (cu + xu - yu, cv + xv - yv)))))

    def sd(self, p: SurfacePoint) -> float:
        """Signed distance from `p` to the boundary, negative inside."""
        core, pu, pv = self.core, p.u, p.v
        if len(core) == 1:
            (cu, cv), = core
            return math.hypot(pu - cu, pv - cv) - self.radius
        inside, best = len(core) > 2, math.inf
        au, av = core[-1]
        for bu, bv in core:
            eu, ev, wu, wv = bu - au, bv - av, pu - au, pv - av
            if eu * wv < ev * wu:
                inside = False
            ee = eu * eu + ev * ev  # 0 when the edge's length underflows
            t = (wu * eu + wv * ev) / ee if ee else 0.0
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            d = math.hypot(wu - t * eu, wv - t * ev)
            if d < best:
                best = d
            au, av = bu, bv
        return (-best if inside else best) - self.radius

    def __sub__(self, other: "Footprint") -> "Footprint":
        """Minkowski difference self + (-other): where other's reference
        point may sit so that the two sets meet.  Shifting a polygon by one
        vertex keeps it convex and counter-clockwise."""
        diffs = [(au - bu, av - bv) for au, av in self.core for bu, bv in other.core]
        one_vertex = len(self.core) == 1 or len(other.core) == 1
        return Footprint(tuple(diffs) if one_vertex else _hull(diffs),
                         self.radius + other.radius)

    def boundary(self, level: float) -> tuple[list[Line], list[Circle]]:
        """Lines and circles that contain the boundary of {sd <= level}: each
        core edge moved along its outward normal by radius + level and, when
        that offset is positive, the circle of that radius around each
        vertex."""
        r = self.radius + level
        lines: list[Line] = []
        if len(self.core) > 1:
            for (au, av), (bu, bv) in zip(self.core[-1:] + self.core, self.core):
                length = math.hypot(bu - au, bv - av)
                eu, ev = (bu - au) / length, (bv - av) / length
                lines.append((au + r * ev, av - r * eu, eu, ev))
        circles = [(u, v, r) for u, v in self.core] if r > 0.0 else []
        return lines, circles


def _overlaps(a: Footprint, b: Footprint) -> bool:
    return (a - b).sd(_ORIGIN) < -COLLISION_TOL - _CONTAIN_EPS


def _z_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Whether two height spans (low, high) share more than a face."""
    return min(a[1], b[1]) - max(a[0], b[0]) > 0.0


def _projections(x: SurfacePoint, lines: list[Line],
                 circles: list[Circle]) -> list[Vertex]:
    """The point of each line and circle closest to `x` (the leftmost point
    of a circle centered on `x`)."""
    out = []
    for au, av, eu, ev in lines:
        t = (x.u - au) * eu + (x.v - av) * ev
        out.append((au + t * eu, av + t * ev))
    for cu, cv, r in circles:
        d = math.hypot(x.u - cu, x.v - cv)
        out.append((cu + r * (x.u - cu) / d, cv + r * (x.v - cv) / d) if d
                   else (cu - r, cv))
    return out


def _crossings(lines: list[Line], circles: list[Circle]) -> list[Vertex]:
    """Every intersection point of two of the given lines and circles."""
    out = []
    for (au, av, eu, ev), (bu, bv, fu, fv) in itertools.combinations(lines, 2):
        den = eu * fv - ev * fu
        if den:
            t = ((bu - au) * fv - (bv - av) * fu) / den
            out.append((au + t * eu, av + t * ev))
    for au, av, eu, ev in lines:
        for cu, cv, r in circles:
            t = (cu - au) * eu + (cv - av) * ev
            h = (cu - au) * ev - (cv - av) * eu  # signed distance center-line
            if abs(h) <= r:
                s = math.sqrt(r * r - h * h)
                out += [(au + (t - s) * eu, av + (t - s) * ev),
                        (au + (t + s) * eu, av + (t + s) * ev)]
    for (au, av, ra), (bu, bv, rb) in itertools.combinations(circles, 2):
        d = math.hypot(bu - au, bv - av)
        if d and abs(ra - rb) <= d <= ra + rb:
            a = (d * d + ra * ra - rb * rb) / (2.0 * d)
            h = math.sqrt(max(ra * ra - a * a, 0.0))
            eu, ev = (bu - au) / d, (bv - av) / d
            out += [(au + a * eu - h * ev, av + a * ev + h * eu),
                    (au + a * eu + h * ev, av + a * ev - h * eu)]
    return out


@dataclass(frozen=True)
class Shape:
    """Footprint and height of a household object.

    Mugs and saucers have circular footprints (`radius`); cuboids and cubes
    have rectangular footprints (`half_extents`).
    """

    kind: str
    height: float
    radius: float | None = None
    half_extents: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ROUND_KINDS + _BOX_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.height <= 0.0:
            raise ValueError("height must be positive")
        if self.kind in _ROUND_KINDS:
            if self.radius is None or self.radius <= 0.0 or self.half_extents is not None:
                raise ValueError(f"{self.kind} requires a positive radius footprint")
        else:
            if (self.half_extents is None or min(self.half_extents) <= 0.0
                    or self.radius is not None):
                raise ValueError(f"{self.kind} requires positive half extents")

    @classmethod
    def mug(cls, radius: float, height: float) -> "Shape":
        return cls("mug", height, radius=radius)

    @classmethod
    def cube(cls, half: float, height: float) -> "Shape":
        return cls("cube", height, half_extents=(half, half))

    @classmethod
    def cuboid(cls, half_extents: tuple[float, float], height: float) -> "Shape":
        return cls("cuboid", height, half_extents=half_extents)

    def footprint(self, pose: "Pose2D") -> Footprint:
        p = pose.position
        if self.radius is not None:
            return Footprint(((p.u, p.v),), self.radius)
        return Footprint.box(p, *self.half_extents, pose.yaw)  # type: ignore[misc]


@dataclass(frozen=True, slots=True)
class Pose2D:
    """Planar pose on the rest surface: only (u, v) and yaw vary; the object
    rests flat with its z-axis along the surface normal."""

    position: SurfacePoint
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (-math.pi <= self.yaw < math.pi):
            object.__setattr__(self, "yaw", math.remainder(self.yaw, math.tau))
            if self.yaw >= math.pi:
                object.__setattr__(self, "yaw", self.yaw - math.tau)


@dataclass(frozen=True, slots=True)
class SceneObject:
    id: str
    shape: Shape
    pose: Pose2D
    support: str = TABLE  # TABLE or the id of the object beneath

    @property
    def footprint(self) -> Footprint:
        return self.shape.footprint(self.pose)


@dataclass(frozen=True)
class Scene:
    """Immutable workspace: a rest surface, objects, and a gravity flag."""

    surface: Plane
    objects: tuple[SceneObject, ...] = ()
    gravity: bool = True

    def __post_init__(self) -> None:
        objects = self.objects
        by_id = {o.id: o for o in objects}
        if len(by_id) != len(objects):
            raise ValueError("object ids must be unique")
        for o in objects:
            if o.support != TABLE and o.support not in by_id:
                raise ValueError(f"{o.id} is supported by unknown object {o.support}")
        # per call: the cached properties, once set, enlarge every later Scene (RSS)
        spans = [self._z_span(o, by_id) for o in objects]
        for o in objects:
            if not self.surface.contains_surface_point(o.pose.position):
                raise ValueError(f"{o.id} lies outside the surface extent")
        footprints = [o.footprint for o in objects]
        for i, j in itertools.combinations(range(len(objects)), 2):
            if (_z_overlap(spans[i], spans[j])
                    and _overlaps(footprints[i], footprints[j])):
                raise ValueError(f"objects {objects[i].id} and {objects[j].id} overlap")

    def moved(self, positions: dict[int, SurfacePoint]) -> "Scene":
        """This scene with the objects at the given indices moved to new
        positions; ids, shapes, yaws and supports are kept.  The new scene
        is checked exactly as a freshly built one."""
        objects = list(self.objects)
        for i, p in positions.items():
            o = objects[i]
            objects[i] = SceneObject(o.id, o.shape, Pose2D(p, o.pose.yaw), o.support)
        return Scene(self.surface, tuple(objects), self.gravity)

    def _z_span(self, obj: SceneObject,
                by_id: dict[str, SceneObject]) -> tuple[float, float]:
        """The object's height span (low, high) above the table; raises
        ValueError when its chain of supports runs into a cycle."""
        z, cur = 0.0, obj
        for _ in by_id:  # a chain of more supports than objects is a cycle
            if cur.support == TABLE:
                return z, z + obj.shape.height
            cur = by_id[cur.support]
            z += cur.shape.height
        raise ValueError(f"support cycle involving {obj.id}")

    def object_by_id(self, oid: str) -> SceneObject:
        for o in self.objects:
            if o.id == oid:
                return o
        raise DeixisError(f"no object {oid!r} in the scene")

    @cached_property
    def footprints(self) -> tuple[Footprint, ...]:
        """Each object's footprint, in `objects` order, built on first use."""
        return tuple(o.footprint for o in self.objects)

    @cached_property
    def z_spans(self) -> tuple[tuple[float, float], ...]:
        """Each object's height span (low, high), in `objects` order."""
        by_id = {o.id: o for o in self.objects}
        return tuple(self._z_span(o, by_id) for o in self.objects)

    @cached_property
    def _regions(self) -> dict[Shape, StableRegion]:
        """The stable regions built on this scene, by placed shape."""
        return {}

    def support_index(self, position: SurfacePoint) -> int | None:
        """Index of the object whose top face lies directly beneath
        `position` (the highest covering footprint), or None for the bare
        table.  Raises DeixisError on a height tie between distinct
        covering objects."""
        spans = self.z_spans
        covering = [i for i, fp in enumerate(self.footprints)
                    if fp.sd(position) <= _CONTAIN_EPS]
        if not covering:
            return None
        covering.sort(key=lambda i: spans[i][1], reverse=True)
        if (len(covering) > 1
                and spans[covering[0]][1] - spans[covering[1]][1] < HEIGHT_TIE_TOL):
            raise DeixisError(
                f"position ({position.u:.3f}, {position.v:.3f}) is covered by "
                f"{self.objects[covering[0]].id} and "
                f"{self.objects[covering[1]].id} at the same height")
        return covering[0]


@dataclass(frozen=True)
class StableRegion:
    """Set of stable placement positions for a shape in a scene.

    Built once per scene and shape (`stable_region`).  Membership reads the
    scene's cached footprints and the holes below, built once; under
    gravity the region is the base outside every hole, plus the islands.
    """

    scene: Scene
    shape: Shape

    @cached_property
    def base(self) -> Footprint | None:
        """The table shrunk by the support margin (the full extent with
        gravity off); None when nothing is left."""
        m = SUPPORT_MARGIN if self.scene.gravity else 0.0
        hu, hv = (e / 2.0 - m for e in self.scene.surface.extent)
        return Footprint.box(_ORIGIN, hu, hv) if hu > 0.0 and hv > 0.0 else None

    @cached_property
    def holes(self) -> tuple[Footprint, ...]:
        """Minkowski differences object - shape: placements there overlap
        the object when sd < -COLLISION_TOL."""
        placed = self.shape.footprint(Pose2D(_ORIGIN))
        return tuple(fp - placed for fp in self.scene.footprints)

    @cached_property
    def islands(self) -> tuple[Footprint, ...]:
        """Footprints of the top faces wider than the margin: stable where
        sd <= -SUPPORT_MARGIN, no higher object covers the point and the
        placed shape clears the holes of the objects at its height."""
        return tuple(fp for o, fp in zip(self.scene.objects, self.scene.footprints)
                     if fp.sd(o.pose.position) < -SUPPORT_MARGIN)

    def contains(self, p: SurfacePoint) -> bool:
        return (self.scene.surface.contains_surface_point(p)
                and self.is_stable(p))

    def is_stable(self, p: SurfacePoint) -> bool:
        """True iff gravity is off or the center of mass is over its support
        face, whatever the surface extent.

        The placed footprint must also clear the objects it would meet: on
        the table every object footprint (a shape whose center is off a
        stack but whose footprint still overlaps it cannot rest flat), on a
        top face every object whose height span overlaps the placed shape's,
        the rule the `Scene` invariant applies to its own objects.
        """
        scene = self.scene
        if not scene.gravity:
            return True
        i = scene.support_index(p)
        if i is None:
            if not scene.surface.contains_surface_point(p, shrink=SUPPORT_MARGIN):
                return False
            holes = self.holes
        else:
            if scene.footprints[i].sd(p) > -SUPPORT_MARGIN + _CONTAIN_EPS:
                return False
            lo = scene.z_spans[i][1]
            holes = [h for h, span in zip(self.holes, scene.z_spans)
                     if _z_overlap(span, (lo, lo + self.shape.height))]
        return not any(h.sd(p) < -COLLISION_TOL - _CONTAIN_EPS for h in holes)

    def is_empty(self) -> bool:
        return self.base is None and not self.islands

    def nearest(self, x: SurfacePoint) -> SurfacePoint:
        """Closest stable position to `x`; ties broken by lower u, then lower v.

        The region's boundary lies on the lines and circles bounding the
        surface, the base, the holes and the islands.  (A footprint's own
        edge adds nothing: it is covered, so unstable, and its island lies
        inside it.)  The closest point is therefore x, the projection of x
        onto one of those curves, or a crossing of two of them; the
        candidates are tried in order of distance.
        """
        return x if self.contains(x) else self.nearest_from_outside(x)

    def nearest_from_outside(self, x: SurfacePoint) -> SurfacePoint:
        """`nearest` for an `x` already known to be unstable."""
        hu, hv = (e / 2.0 for e in self.scene.surface.extent)
        levels = [(Footprint.box(_ORIGIN, hu, hv), 0.0)]
        levels += [(h, -COLLISION_TOL) for h in self.holes]
        levels += [(i, -SUPPORT_MARGIN) for i in self.islands]
        if self.base is not None:
            levels.append((self.base, 0.0))
        curves = [fp.boundary(level) for fp, level in levels]
        lines = [line for ls, _ in curves for line in ls]
        circles = [circle for _, cs in curves for circle in cs]
        ranked = sorted((math.hypot(u - x.u, v - x.v), u, v)
                        for u, v in _projections(x, lines, circles)
                        + _crossings(lines, circles))
        for i, (d, u, v) in enumerate(ranked):
            if self.contains(SurfacePoint(u, v)):
                u, v = min((cu, cv) for cd, cu, cv in ranked[i:]
                           if cd <= d + 1e-9 and self.contains(SurfacePoint(cu, cv)))
                return SurfacePoint(u, v)
        raise DeixisError("no stable placement exists for this shape")


def stable_region(scene: Scene, shape: Shape) -> StableRegion:
    """All positions where `StableRegion.is_stable` holds; the full extent
    with gravity off.  Built once per scene object and shape and kept on the
    scene."""
    regions = scene._regions
    region = regions.get(shape)
    if region is None:
        region = regions[shape] = StableRegion(scene, shape)
    return region
