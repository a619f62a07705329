"""Rays, planes, cone sections and surface-frame coordinates.

All geometry here works on the infinite plane; clipping to a table's
rectangular extent is the caller's job.  Tolerances: 1e-9 for algebraic
identities, 1e-6 for fitted geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OffPlane, UnboundedSection

UNIT_TOL = 1e-9
ON_PLANE_TOL = 1e-6

Vec3 = tuple[float, float, float]


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: Vec3) -> float:
    return math.sqrt(_dot(a, a))


def unit(a: Vec3) -> Vec3:
    """`a` divided by its length."""
    n = _norm(a)
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
    def horizontal(cls, extent: tuple[float, float],
                   anchor: Point3 = Point3(0.0, 0.0, 0.0)) -> "Plane":
        return cls(anchor, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), extent)

    def contains_surface_point(self, p: "SurfacePoint", shrink: float = 0.0) -> bool:
        hu = self.extent[0] / 2.0 - shrink
        hv = self.extent[1] / 2.0 - shrink
        return abs(p.u) <= hu and abs(p.v) <= hv


@dataclass(frozen=True)
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
    semi-major axis, in radians, normalized to [-pi/2, pi/2)."""

    center: SurfacePoint
    semi_major: float
    semi_minor: float
    orientation: float

    def __post_init__(self) -> None:
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise ValueError("require semi_major >= semi_minor > 0")

    def to_local(self, p: SurfacePoint) -> tuple[float, float]:
        """Coordinates in the ellipse's own axis frame (unrotated, centered)."""
        du = p.u - self.center.u
        dv = p.v - self.center.v
        c, s = math.cos(self.orientation), math.sin(self.orientation)
        return (c * du + s * dv, -s * du + c * dv)

    def from_local(self, x: float, y: float) -> SurfacePoint:
        c, s = math.cos(self.orientation), math.sin(self.orientation)
        return SurfacePoint(self.center.u + c * x - s * y,
                            self.center.v + s * x + c * y)

    def contains(self, p: SurfacePoint, slack: float = 0.0) -> bool:
        x, y = self.to_local(p)
        return (x / self.semi_major) ** 2 + (y / self.semi_minor) ** 2 <= 1.0 + slack

    def boundary_point(self, phi: float) -> SurfacePoint:
        return self.from_local(self.semi_major * math.cos(phi),
                               self.semi_minor * math.sin(phi))


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
        raise OffPlane(f"point {p} is {abs(_dot(w, plane.normal)):.3g} m off the plane")
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

    `vertex_angle` is the full aperture of the cone; the half-angle between
    the axis and any boundary generator is vertex_angle / 2.  Raises
    UnboundedSection when some boundary generator is parallel to the plane
    or diverges from it (parabolic/hyperbolic cut).
    """
    if not (0.0 < vertex_angle < math.pi):
        raise ValueError("vertex angle must be in (0, pi)")
    half = vertex_angle / 2.0
    d, n = axis.direction, plane.normal
    cos_axis = _dot(d, n)
    # Every generator must cross the plane on the forward nappe: the angle
    # between the axis and the normal plus the half-aperture must stay acute.
    if (math.cos(half) * abs(cos_axis)
            - math.sin(half) * math.sqrt(max(0.0, 1.0 - cos_axis * cos_axis))) <= 1e-12:
        raise UnboundedSection("a boundary generator is parallel to or diverges from the plane")
    if ray_plane_intersect(axis, plane) is None:
        raise UnboundedSection("cone apex does not face the plane")

    # Quadratic for the boundary in surface coordinates (u, v):
    # (w.d)^2 = cos^2(half) |w|^2 with w = anchor + u*eu + v*ev - apex.
    o = axis.origin.as_tuple()
    eu, ev = plane.axis_u, plane.axis_v
    w0 = _sub(plane.anchor.as_tuple(), o)
    a0, a1, a2 = _dot(w0, d), _dot(eu, d), _dot(ev, d)
    b0, b1, b2 = _dot(w0, w0), _dot(w0, eu), _dot(w0, ev)
    c2 = math.cos(half) ** 2
    qa = a1 * a1 - c2
    qb = 2.0 * a1 * a2
    qc = a2 * a2 - c2
    qd = 2.0 * (a0 * a1 - c2 * b1)
    qe = 2.0 * (a0 * a2 - c2 * b2)
    qf = a0 * a0 - c2 * b0

    det = qa * qc - (qb / 2.0) ** 2
    if det <= 0.0:
        raise UnboundedSection("section is not an ellipse")
    uc = (-(qd / 2.0) * qc + (qe / 2.0) * (qb / 2.0)) / det
    vc = (-(qe / 2.0) * qa + (qd / 2.0) * (qb / 2.0)) / det
    f_center = qf + 0.5 * (qd * uc + qe * vc)

    mean = (qa + qc) / 2.0
    rad = math.hypot((qa - qc) / 2.0, qb / 2.0)
    lam1, lam2 = mean + rad, mean - rad  # lam1 >= lam2
    k1 = -f_center / lam1
    k2 = -f_center / lam2
    if k1 <= 0.0 or k2 <= 0.0:
        raise UnboundedSection("section is not an ellipse")
    # The form's matrix is a a^T - cos^2(half) I with a = (a1, a2): its
    # eigenvalues are |a|^2 - c2 and -c2, so det > 0 makes both negative.
    # Then |lam1| <= |lam2|, k1 >= k2, and lam1 carries the major axis.
    major, minor = math.sqrt(k1), math.sqrt(k2)
    if major - minor <= UNIT_TOL:
        orientation = 0.0
        major = minor = (major + minor) / 2.0
    elif abs(qb) < 1e-15:
        orientation = 0.0 if qa == lam1 or abs(qa - lam1) < abs(qc - lam1) else math.pi / 2.0
    else:
        orientation = math.atan2(lam1 - qa, qb / 2.0)
    orientation = math.remainder(orientation, math.pi)  # in [-pi/2, pi/2]
    if orientation >= math.pi / 2.0:
        orientation -= math.pi
    return Ellipse(SurfacePoint(uc, vc), major, minor, orientation)
