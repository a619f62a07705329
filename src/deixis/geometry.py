"""Rays, planes, cone sections and surface-frame coordinates.

All geometry here works on the infinite plane; clipping to a table's
rectangular extent is the caller's job.  The cone section is closed-form in
the apex frame: the ends of its major axis are where the two generators in
the plane of axis and normal meet the surface.  Tolerances: 1e-9 for
algebraic identities, 1e-6 for fitted geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DeixisError

UNIT_TOL = 1e-9
ON_PLANE_TOL = 1e-6

Vec3 = tuple[float, float, float]


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: Vec3) -> float:
    return math.sqrt(_dot(a, a))


def unit(a: Vec3) -> Vec3:
    """`a` divided by its length; ValueError when the length is 0 (the
    squared length may underflow to 0)."""
    n = _norm(a)
    if not n:
        raise ValueError("a zero-length vector has no direction")
    return (a[0] / n, a[1] / n, a[2] / n)


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@dataclass(frozen=True)
class Point3:
    """A position in the 3D workspace, in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("point components must be finite")

    def as_tuple(self) -> Vec3:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Ray:
    """A pointing ray: origin plus unit direction."""

    origin: Point3
    direction: Vec3

    def __post_init__(self) -> None:
        if abs(_norm(self.direction) - 1.0) > UNIT_TOL:
            raise ValueError("ray direction must be a unit vector")

    def at(self, t: float) -> Point3:
        o, d = self.origin, self.direction
        return Point3(o.x + t * d[0], o.y + t * d[1], o.z + t * d[2])


@dataclass(frozen=True)
class Plane:
    """A finite rectangular rest surface with an orthonormal in-plane frame.

    `extent` holds the full widths along `axis_u` and `axis_v`; surface
    coordinates are centered on `anchor`, so u spans [-extent_u/2, extent_u/2].
    """

    anchor: Point3
    normal: Vec3
    axis_u: Vec3
    axis_v: Vec3
    extent: tuple[float, float]

    def __post_init__(self) -> None:
        for name, vec in (("normal", self.normal), ("axis_u", self.axis_u),
                          ("axis_v", self.axis_v)):
            if abs(_norm(vec) - 1.0) > UNIT_TOL:
                raise ValueError(f"{name} must be a unit vector")
        if (abs(_dot(self.axis_u, self.normal)) > UNIT_TOL
                or abs(_dot(self.axis_v, self.normal)) > UNIT_TOL
                or abs(_dot(self.axis_u, self.axis_v)) > UNIT_TOL):
            raise ValueError("plane axes must be orthonormal and perpendicular to normal")
        if self.extent[0] <= 0.0 or self.extent[1] <= 0.0:
            raise ValueError("plane extent must be positive")

    @classmethod
    def horizontal(cls, extent: tuple[float, float]) -> "Plane":
        return cls(Point3(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                   (0.0, 1.0, 0.0), extent)

    def contains_surface_point(self, p: "SurfacePoint", shrink: float = 0.0) -> bool:
        hu = self.extent[0] / 2.0 - shrink
        hv = self.extent[1] / 2.0 - shrink
        return abs(p.u) <= hu and abs(p.v) <= hv


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    """2D coordinates in a plane's (axis_u, axis_v) frame, in meters."""

    u: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("surface coordinates must be finite")


@dataclass(frozen=True)
class Ellipse:
    """An ellipse in surface coordinates; `orientation` is the angle of the
    semi-major axis, in radians, normalized to [-pi/2, pi/2).  Its own axis
    frame is centered, with x along the semi-major axis; `from_local` maps
    that frame to surface coordinates."""

    center: SurfacePoint
    semi_major: float
    semi_minor: float
    orientation: float

    def __post_init__(self) -> None:
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError("require semi_major >= semi_minor > 0")

    def from_local(self, x: float, y: float) -> SurfacePoint:
        c, s = math.cos(self.orientation), math.sin(self.orientation)
        return SurfacePoint(self.center.u + c * x - s * y,
                            self.center.v + s * x + c * y)


def ray_plane_intersect(ray: Ray, plane: Plane) -> Point3 | None:
    """Intersection of the ray with the infinite plane at parameter t > 0.

    Returns None when the ray is parallel to the plane or points away.
    """
    denom = _dot(ray.direction, plane.normal)
    if abs(denom) < 1e-12:
        return None
    t = _dot(_sub(plane.anchor.as_tuple(), ray.origin.as_tuple()), plane.normal) / denom
    if t <= 0.0:
        return None
    return ray.at(t)


def to_surface_frame(p: Point3, plane: Plane) -> SurfacePoint:
    """Express an on-plane 3D point in the plane's 2D frame."""
    w = _sub(p.as_tuple(), plane.anchor.as_tuple())
    if abs(_dot(w, plane.normal)) > ON_PLANE_TOL:
        raise DeixisError(f"point {p} is {abs(_dot(w, plane.normal)):.3g} m off the plane")
    return SurfacePoint(_dot(w, plane.axis_u), _dot(w, plane.axis_v))


def from_surface_frame(sp: SurfacePoint, plane: Plane) -> Point3:
    a, eu, ev = plane.anchor, plane.axis_u, plane.axis_v
    return Point3(a.x + sp.u * eu[0] + sp.v * ev[0],
                  a.y + sp.u * eu[1] + sp.v * ev[1],
                  a.z + sp.u * eu[2] + sp.v * ev[2])


def surface_distance(a: SurfacePoint, b: SurfacePoint) -> float:
    """Euclidean distance in the surface frame."""
    return math.hypot(a.u - b.u, a.v - b.v)


def cone_plane_section(axis: Ray, vertex_angle: float, plane: Plane) -> Ellipse:
    """Elliptical boundary of the cone/plane intersection, in surface coordinates.

    `vertex_angle` is the full aperture of the cone, twice the half-angle a
    between the axis and any boundary generator.  Raises DeixisError
    when some generator is parallel to the plane or diverges from it
    (parabolic/hyperbolic cut), or when the apex does not face the plane.

    Closed form in the apex frame: with h the apex's height above the
    plane, F its foot, b the angle between axis and normal and t the axis's
    in-plane direction, the two generators in the plane of axis and normal
    meet the surface at F + h*tan(b -+ a)*t, the ends of the major axis.
    With k = cos(b+a)*cos(b-a) = cos^2(b) - sin^2(a), the centre is
    F + h*sin(b)*cos(b)/k*t, the semi-axes h*sin(a)*cos(a)/k along t and
    h*sin(a)/sqrt(k) across it.
    """
    if not (0.0 < vertex_angle < math.pi):
        raise ValueError("vertex angle must be in (0, pi)")
    half = vertex_angle / 2.0
    sin_a, cos_a = math.sin(half), math.cos(half)
    d, n, eu, ev = axis.direction, plane.normal, plane.axis_u, plane.axis_v
    c = abs(_dot(d, n))
    # Every generator must cross the plane on the forward nappe: the angle
    # between the axis and the normal plus the half-aperture must stay acute.
    if cos_a * c - sin_a * math.sqrt(max(0.0, 1.0 - c * c)) <= 1e-12:
        raise DeixisError("a boundary generator is parallel to or diverges from the plane")
    if ray_plane_intersect(axis, plane) is None:
        raise DeixisError("cone apex does not face the plane")
    w = _sub(axis.origin.as_tuple(), plane.anchor.as_tuple())
    h, k = abs(_dot(w, n)), c * c - sin_a * sin_a  # k > 0 by the nappe check
    du, dv, shift = _dot(d, eu), _dot(d, ev), h * c / k
    # equal for a vertical axis, where floats may still differ by an ulp
    a, b = h * sin_a * cos_a / k, h * sin_a / math.sqrt(k)
    orientation = math.remainder(math.atan2(dv, du), math.pi)  # in [-pi/2, pi/2]
    if orientation >= math.pi / 2.0:
        orientation -= math.pi
    return Ellipse(SurfacePoint(_dot(w, eu) + shift * du, _dot(w, ev) + shift * dv),
                   max(a, b), min(a, b), orientation)
