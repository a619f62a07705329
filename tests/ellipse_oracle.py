"""Ellipse queries that only tests use, kept apart from the code under test.

`deixis.geometry.Ellipse` maps its own axis frame to surface coordinates
(`from_local`) and nothing more; these helpers answer the inverse and
membership questions the tests check its outputs against.
"""
import math

from deixis.geometry import Ellipse, SurfacePoint


def to_local(e: Ellipse, p: SurfacePoint) -> tuple[float, float]:
    """Coordinates of `p` in the ellipse's own axis frame (unrotated, centered)."""
    du = p.u - e.center.u
    dv = p.v - e.center.v
    c, s = math.cos(e.orientation), math.sin(e.orientation)
    return (c * du + s * dv, -s * du + c * dv)


def contains(e: Ellipse, p: SurfacePoint, slack: float = 0.0) -> bool:
    """Whether `p` lies in the closed ellipse, its implicit form allowed
    `slack` past 1."""
    x, y = to_local(e, p)
    return (x / e.semi_major) ** 2 + (y / e.semi_minor) ** 2 <= 1.0 + slack


def boundary_point(e: Ellipse, phi: float) -> SurfacePoint:
    """The boundary point at parametric angle `phi` from the semi-major axis."""
    return e.from_local(e.semi_major * math.cos(phi), e.semi_minor * math.sin(phi))
