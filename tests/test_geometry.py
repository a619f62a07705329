import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deixis.errors import DeixisError
from deixis.geometry import (Ellipse, Plane, Point3, Ray, SurfacePoint,
                             cone_plane_section, from_surface_frame,
                             ray_plane_intersect, surface_distance,
                             to_surface_frame)
from ellipse_oracle import boundary_point, to_local

PLANE = Plane.horizontal((10.0, 10.0))

coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def boundary_oracle(axis: Ray, vertex_angle: float, plane: Plane,
                    samples: int = 10_000) -> np.ndarray:
    """Section boundary points from sampled cone generators.

    Builds the boundary directly: rotate the axis direction by the
    half-aperture toward every azimuth and intersect each generator ray with
    the plane.  Independent of the closed form in the library.
    """
    d = np.array(axis.direction)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, d)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    half = vertex_angle / 2.0
    pts = []
    for phi in np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False):
        g = (math.cos(half) * d
             + math.sin(half) * (math.cos(phi) * e1 + math.sin(phi) * e2))
        hit = ray_plane_intersect(Ray(axis.origin, tuple(g / np.linalg.norm(g))), plane)
        assert hit is not None
        sp = to_surface_frame(hit, plane)
        pts.append((sp.u, sp.v))
    return np.array(pts)


def leaning_plane(tilt: float, yaw: float) -> Plane:
    """A plane whose normal leans `tilt` from +z about the x axis, with its
    (u, v) frame turned `yaw` about that normal."""
    ev0 = (0.0, math.cos(tilt), math.sin(tilt))
    c, s = math.cos(yaw), math.sin(yaw)
    return Plane(Point3(0.1, -0.2, 0.05), (0.0, -math.sin(tilt), math.cos(tilt)),
                 (c, s * ev0[1], s * ev0[2]), (-s, c * ev0[1], c * ev0[2]),
                 (10.0, 10.0))


@st.composite
def leaning_poses(draw):
    """(plane tilt, plane yaw, lean_u, lean_v, aperture), angles in degrees:
    the ray leans off the normal by up to all but 1e-5 of what leaves every
    generator crossing the plane, toward the inside of a quadrant."""
    vertex_deg = draw(st.floats(10.0, 150.0))
    beta = draw(st.floats(0.02, 1.0 - 1e-5)) * math.radians(90.0 - vertex_deg / 2.0)
    azimuth = math.radians(90.0 * draw(st.integers(0, 3)) + draw(st.floats(3.0, 87.0)))
    return (draw(st.floats(0.0, 60.0)), draw(st.floats(-180.0, 180.0)),
            math.tan(beta) * math.cos(azimuth), math.tan(beta) * math.sin(azimuth),
            vertex_deg)


def assert_boundary_at_half_angle(axis: Ray, vertex_angle: float, plane: Plane,
                                  e: Ellipse) -> None:
    """Every boundary point of `e` lies on the cone: at half the aperture from
    the axis, seen from the apex."""
    o, d = axis.origin.as_tuple(), axis.direction
    for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        p = from_surface_frame(boundary_point(e, phi), plane).as_tuple()
        w = np.subtract(p, o)
        angle = math.acos(np.dot(w, d) / np.linalg.norm(w))
        assert abs(angle - vertex_angle / 2.0) <= 1e-9


def fit_ellipse_axes(points: np.ndarray) -> tuple[float, float]:
    """Least-squares conic fit, axes via the standard closed form."""
    u, v = points[:, 0], points[:, 1]
    m = np.column_stack([u * u, u * v, v * v, u, v, np.ones_like(u)])
    _, _, vt = np.linalg.svd(m, full_matrices=False)
    a, b, c, d, e, f = vt[-1]
    det2 = a * c - b * b / 4.0
    assert det2 > 0.0
    uc = (-(d / 2.0) * c + (e / 2.0) * (b / 2.0)) / det2
    vc = (-(e / 2.0) * a + (d / 2.0) * (b / 2.0)) / det2
    fc = f + 0.5 * (d * uc + e * vc)
    lam = np.linalg.eigvalsh(np.array([[a, b / 2.0], [b / 2.0, c]]))
    axes = sorted(math.sqrt(-fc / l) for l in lam)
    return axes[1], axes[0]


class TestRayPlane:
    def test_perpendicular_drop(self):
        hit = ray_plane_intersect(Ray(Point3(0, 0, 1), (0, 0, -1)), PLANE)
        assert hit == Point3(0.0, 0.0, 0.0)

    def test_points_away(self):
        assert ray_plane_intersect(Ray(Point3(0, 0, 1), (0, 0, 1)), PLANE) is None

    def test_parallel(self):
        assert ray_plane_intersect(Ray(Point3(0, 0, 1), (1, 0, 0)), PLANE) is None

    def test_diagonal(self):
        s = 1.0 / math.sqrt(2.0)
        hit = ray_plane_intersect(Ray(Point3(0, 1, 1), (0.0, -s, -s)), PLANE)
        assert hit is not None
        assert math.isclose(hit.x, 0.0, abs_tol=1e-9)
        assert math.isclose(hit.y, 0.0, abs_tol=1e-9)
        assert math.isclose(hit.z, 0.0, abs_tol=1e-9)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5),
           st.floats(-1, 1), st.floats(-1, 1))
    def test_hit_satisfies_plane_equation(self, x, y, z, dx, dy):
        d = (dx, dy, -1.0)
        n = math.sqrt(sum(c * c for c in d))
        ray = Ray(Point3(x, y, z), tuple(c / n for c in d))
        hit = ray_plane_intersect(ray, PLANE)
        assert hit is not None
        assert abs(hit.z) <= 1e-9
        t = (z - hit.z) * n  # direction z-component is -1/n
        assert t > 0.0
        assert math.isclose(hit.x, x + t * ray.direction[0], abs_tol=1e-9)
        assert math.isclose(hit.y, y + t * ray.direction[1], abs_tol=1e-9)

    def test_ray_requires_unit_direction(self):
        with pytest.raises(ValueError):
            Ray(Point3(0, 0, 0), (0, 0, 2))


Z = (0.0, 0.0, 1.0)
U = (1.0, 0.0, 0.0)
V = (0.0, 1.0, 0.0)


class TestConstructorsRefuse:
    @pytest.mark.parametrize("make, message", [
        (lambda: Point3(0.0, math.nan, 0.0), "point components must be finite"),
        (lambda: Point3(math.inf, 0.0, 0.0), "point components must be finite"),
        (lambda: SurfacePoint(0.0, math.nan), "surface coordinates must be finite"),
        (lambda: SurfacePoint(-math.inf, 0.0), "surface coordinates must be finite"),
        (lambda: Plane(Point3(0, 0, 0), (0.0, 0.0, 2.0), U, V, (1.0, 1.0)),
         "normal must be a unit vector"),
        (lambda: Plane(Point3(0, 0, 0), Z, U, U, (1.0, 1.0)),
         "plane axes must be orthonormal and perpendicular to normal"),
        (lambda: Plane(Point3(0, 0, 0), Z, U, V, (0.0, 1.0)),
         "plane extent must be positive"),
        (lambda: Plane(Point3(0, 0, 0), Z, U, V, (1.0, -1.0)),
         "plane extent must be positive"),
    ], ids=["point-nan", "point-inf", "surface-nan", "surface-inf",
            "non-unit-normal", "repeated-axis", "zero-extent", "negative-extent"])
    def test_bad_values(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


def assert_oblique_section(tilt_deg: float, yaw_deg: float, lean_u: float,
                           lean_v: float, vertex_deg: float) -> None:
    """A ray leaning along both surface axes gives an ellipse rotated in the
    (u, v) frame, on the cone, with x* on its major axis."""
    plane = leaning_plane(math.radians(tilt_deg), math.radians(yaw_deg))
    n, eu, ev = (np.array(a) for a in (plane.normal, plane.axis_u, plane.axis_v))
    d = -n + lean_u * eu + lean_v * ev
    apex = Point3(*(np.array(plane.anchor.as_tuple()) + 1.2 * n))
    ray = Ray(apex, tuple(d / np.linalg.norm(d)))
    e = cone_plane_section(ray, math.radians(vertex_deg), plane)
    assert e.semi_major > e.semi_minor
    assert -math.pi / 2.0 < e.orientation < math.pi / 2.0 and e.orientation != 0.0
    assert_boundary_at_half_angle(ray, math.radians(vertex_deg), plane, e)
    # the axis hit x* lies on the major axis, and the boundary point
    # farthest from it is the far end of that axis
    x_star = to_surface_frame(ray_plane_intersect(ray, plane), plane)
    reach = e.semi_major + surface_distance(e.center, x_star)
    assert abs(to_local(e, x_star)[1]) <= 1e-12 * reach
    farthest = max(surface_distance(boundary_point(e, phi), x_star)
                   for phi in np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
    assert math.isclose(reach, farthest, rel_tol=1e-12)


class TestConeSection:
    @pytest.mark.parametrize("deg", [45.0, 67.5, 90.0])
    def test_vertical_closed_form(self, deg):
        ray = Ray(Point3(0, 0, 1), (0, 0, -1))
        e = cone_plane_section(ray, math.radians(deg), PLANE)
        r = math.tan(math.radians(deg) / 2.0)
        assert abs(e.semi_major - r) <= 1e-9
        assert abs(e.semi_minor - r) <= 1e-9
        assert abs(e.center.u) <= 1e-9 and abs(e.center.v) <= 1e-9

    def test_vertical_offset_center(self):
        ray = Ray(Point3(0.3, -0.2, 2.0), (0, 0, -1))
        e = cone_plane_section(ray, math.radians(45.0), PLANE)
        assert math.isclose(e.center.u, 0.3, abs_tol=1e-9)
        assert math.isclose(e.center.v, -0.2, abs_tol=1e-9)
        assert abs(e.semi_major - 2.0 * math.tan(math.radians(22.5))) <= 1e-9

    @pytest.mark.parametrize("tilt_deg,vertex_deg", [(30.0, 45.0), (20.0, 67.5),
                                                     (10.0, 90.0), (40.0, 45.0)])
    def test_tilted_matches_generator_oracle(self, tilt_deg, vertex_deg):
        t = math.radians(tilt_deg)
        ray = Ray(Point3(0, 0, 1.5), (math.sin(t), 0.0, -math.cos(t)))
        e = cone_plane_section(ray, math.radians(vertex_deg), PLANE)
        pts = boundary_oracle(ray, math.radians(vertex_deg), PLANE)
        major, minor = fit_ellipse_axes(pts)
        assert abs(e.semi_major - major) <= 1e-6
        assert abs(e.semi_minor - minor) <= 1e-6
        # every sampled boundary point is on the returned ellipse
        for u, v in pts[::100]:
            x, y = to_local(e, SurfacePoint(u, v))
            assert abs((x / e.semi_major) ** 2 + (y / e.semi_minor) ** 2 - 1.0) <= 1e-9

    @pytest.mark.parametrize("tilt_deg,yaw_deg,lean_u,lean_v,vertex_deg", [
        (0.0, 0.0, 0.3, 0.4, 45.0), (25.0, 30.0, -0.2, 0.5, 67.5),
        (40.0, -70.0, 0.6, -0.3, 90.0), (15.0, 120.0, -0.4, -0.4, 45.0)])
    def test_oblique_ray_on_leaning_plane(self, tilt_deg, yaw_deg, lean_u, lean_v,
                                          vertex_deg):
        assert_oblique_section(tilt_deg, yaw_deg, lean_u, lean_v, vertex_deg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(leaning_poses())
    def test_oblique_ray_on_leaning_plane_property(self, pose):
        # plane tilt, yaw, ray lean up to near grazing and aperture all vary
        assert_oblique_section(*pose)

    def test_ray_in_v_normal_plane_points_major_axis_along_v(self):
        t = math.radians(20.0)
        ray = Ray(Point3(0, 0, 1), (0.0, math.sin(t), -math.cos(t)))
        e = cone_plane_section(ray, math.radians(45.0), PLANE)
        assert e.orientation == -math.pi / 2.0
        assert e.semi_major - e.semi_minor > 1e-9
        assert_boundary_at_half_angle(ray, math.radians(45.0), PLANE, e)

    def test_circle_iff_vertical(self):
        vertical = cone_plane_section(Ray(Point3(0, 0, 1), (0, 0, -1)),
                                      math.radians(45.0), PLANE)
        assert abs(vertical.semi_major - vertical.semi_minor) <= 1e-9
        t = math.radians(15.0)
        tilted = cone_plane_section(Ray(Point3(0, 0, 1), (math.sin(t), 0, -math.cos(t))),
                                    math.radians(45.0), PLANE)
        assert tilted.semi_major - tilted.semi_minor > 1e-9

    def test_monotone_growth_in_aperture(self):
        ray = Ray(Point3(0, 0, 1), (0, 0, -1))
        prev = None
        for deg in (30.0, 45.0, 60.0, 75.0, 90.0):
            e = cone_plane_section(ray, math.radians(deg), PLANE)
            if prev is not None:
                assert e.semi_major > prev.semi_major
                assert e.semi_minor > prev.semi_minor
                assert surface_distance(e.center, prev.center) <= 1e-9
            prev = e

    def test_unbounded_grazing(self):
        t = math.radians(70.0)
        ray = Ray(Point3(0, 0, 1), (math.sin(t), 0, -math.cos(t)))
        with pytest.raises(DeixisError, match="parallel to or diverges from the plane"):
            cone_plane_section(ray, math.radians(45.0), PLANE)

    def test_unbounded_apex_away(self):
        with pytest.raises(DeixisError, match="^cone apex does not face the plane$"):
            cone_plane_section(Ray(Point3(0, 0, 1), (0, 0, 1)),
                               math.radians(45.0), PLANE)

    def test_invalid_aperture(self):
        ray = Ray(Point3(0, 0, 1), (0, 0, -1))
        with pytest.raises(ValueError):
            cone_plane_section(ray, 0.0, PLANE)
        with pytest.raises(ValueError):
            cone_plane_section(ray, math.pi, PLANE)


class TestSurfaceFrame:
    def test_anchor_maps_to_origin(self):
        assert to_surface_frame(PLANE.anchor, PLANE) == SurfacePoint(0.0, 0.0)

    def test_axis_alignment(self):
        assert to_surface_frame(Point3(1, 0, 0), PLANE) == SurfacePoint(1.0, 0.0)

    @given(st.floats(-4, 4), st.floats(-4, 4))
    def test_round_trip(self, u, v):
        sp = SurfacePoint(u, v)
        back = to_surface_frame(from_surface_frame(sp, PLANE), PLANE)
        assert abs(back.u - u) <= 1e-9 and abs(back.v - v) <= 1e-9

    def test_off_plane_rejected(self):
        with pytest.raises(DeixisError, match="m off the plane$"):
            to_surface_frame(Point3(0, 0, 0.01), PLANE)

    def test_tilted_plane_frame(self):
        n = (0.0, math.sin(0.3), math.cos(0.3))
        v = (0.0, math.cos(0.3), -math.sin(0.3))
        plane = Plane(Point3(0, 0, 0), n, (1.0, 0.0, 0.0), v, (4.0, 4.0))
        p = from_surface_frame(SurfacePoint(0.5, -1.5), plane)
        back = to_surface_frame(p, plane)
        assert abs(back.u - 0.5) <= 1e-9 and abs(back.v + 1.5) <= 1e-9


class TestSurfaceDistance:
    def test_zero(self):
        assert surface_distance(SurfacePoint(0, 0), SurfacePoint(0, 0)) == 0.0

    def test_three_four_five(self):
        assert surface_distance(SurfacePoint(0, 0), SurfacePoint(3, 4)) == 5.0

    @given(coord, coord, coord, coord)
    def test_matches_formula(self, a, b, c, d):
        got = surface_distance(SurfacePoint(a, b), SurfacePoint(c, d))
        assert math.isclose(got, math.sqrt((a - c) ** 2 + (b - d) ** 2),
                            rel_tol=1e-12, abs_tol=1e-12)

    @given(coord, coord, coord, coord, coord, coord)
    def test_triangle_inequality(self, a, b, c, d, e, f):
        p, q, r = SurfacePoint(a, b), SurfacePoint(c, d), SurfacePoint(e, f)
        assert (surface_distance(p, r)
                <= surface_distance(p, q) + surface_distance(q, r) + 1e-9)


class TestEllipse:
    def test_axis_ordering_enforced(self):
        with pytest.raises(ValueError):
            Ellipse(SurfacePoint(0, 0), 1.0, 2.0, 0.0)

    def test_boundary_on_ellipse(self):
        e = Ellipse(SurfacePoint(0.5, -0.25), 2.0, 1.0, 0.7)
        for phi in np.linspace(0, 2 * math.pi, 17):
            p = boundary_point(e, phi)
            x, y = to_local(e, p)
            assert abs((x / 2.0) ** 2 + (y / 1.0) ** 2 - 1.0) <= 1e-12

    def test_local_round_trip(self):
        e = Ellipse(SurfacePoint(1.0, 2.0), 3.0, 1.5, -0.4)
        p = SurfacePoint(1.7, 2.9)
        x, y = to_local(e, p)
        q = e.from_local(x, y)
        assert abs(q.u - p.u) <= 1e-12 and abs(q.v - p.v) <= 1e-12
