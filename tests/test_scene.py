import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from deixis.errors import DeixisError
from deixis.geometry import Plane, SurfacePoint, surface_distance
from deixis.resolver import ENUMERATED, resolve
from deixis.scene import (COLLISION_TOL, HEIGHT_TIE_TOL, SUPPORT_MARGIN,
                          TABLE as ON_TABLE, Footprint, Pose2D, Scene, SceneObject,
                          Shape, stable_region)

PLANE = Plane.horizontal((1.2, 0.8))
CUBE = Shape.cube(half=0.03, height=0.06)
BOX = Shape.cuboid(half_extents=(0.10, 0.10), height=0.10)


def stack_scene() -> Scene:
    return Scene(PLANE,
                 (SceneObject("base", BOX, Pose2D(SurfacePoint(0.2, 0.0))),
                  SceneObject("top", BOX, Pose2D(SurfacePoint(0.2, 0.0)),
                              support="base")))


MUG = Shape.mug(radius=0.04, height=0.10)


def small_cube_on_box() -> Scene:
    return Scene(PLANE,
                 (SceneObject("box", Shape.cube(0.1, 0.1), Pose2D(SurfacePoint(0, 0))),
                  SceneObject("cube", Shape.cube(0.03, 0.03), Pose2D(SurfacePoint(0, 0)),
                              support="box")))


class TestShape:
    def test_round_kinds_need_radius(self):
        with pytest.raises(ValueError):
            Shape("mug", height=0.1)
        with pytest.raises(ValueError):
            Shape("mug", height=0.1, radius=0.04, half_extents=(0.1, 0.1))

    def test_box_kinds_need_half_extents(self):
        with pytest.raises(ValueError):
            Shape("cube", height=0.1)
        with pytest.raises(ValueError):
            Shape("cuboid", height=0.1, half_extents=(0.0, 0.1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Shape("sphere", height=0.1, radius=0.05)

    @pytest.mark.parametrize("height", [0.0, -0.1])
    def test_height_must_be_positive(self, height):
        with pytest.raises(ValueError, match="^height must be positive$"):
            Shape("mug", height=height, radius=0.04)


class TestPose:
    def test_yaw_normalized(self):
        assert -math.pi <= Pose2D(SurfacePoint(0, 0), yaw=7.0).yaw < math.pi
        assert Pose2D(SurfacePoint(0, 0), yaw=math.pi).yaw == -math.pi


def raises_message(message: str, *objects: SceneObject) -> None:
    with pytest.raises(ValueError) as got:
        Scene(PLANE, objects)
    assert str(got.value) == message


class TestSceneValidation:
    def test_duplicate_ids(self):
        raises_message("object ids must be unique",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0, 0))),
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0.3, 0))))

    def test_unknown_support(self):
        raises_message("a is supported by unknown object ghost",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0, 0)),
                                   support="ghost"))

    def test_support_cycle(self):
        raises_message("support cycle involving a",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0, 0)), support="b"),
                       SceneObject("b", CUBE, Pose2D(SurfacePoint(0, 0)), support="a"))

    def test_outside_extent(self):
        raises_message("a lies outside the surface extent",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(5.0, 0))))

    def test_overlap_rejected(self):
        raises_message("objects a and b overlap",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0, 0))),
                       SceneObject("b", CUBE, Pose2D(SurfacePoint(0.01, 0))))

    def test_cycle_is_reported_before_an_object_off_the_surface(self):
        raises_message("support cycle involving b",
                       SceneObject("off", CUBE, Pose2D(SurfacePoint(5.0, 0))),
                       SceneObject("b", CUBE, Pose2D(SurfacePoint(0, 0)), support="c"),
                       SceneObject("c", CUBE, Pose2D(SurfacePoint(0, 0)), support="b"))

    def test_extent_is_reported_before_an_overlap(self):
        raises_message("off lies outside the surface extent",
                       SceneObject("a", CUBE, Pose2D(SurfacePoint(0, 0))),
                       SceneObject("b", CUBE, Pose2D(SurfacePoint(0.01, 0))),
                       SceneObject("off", CUBE, Pose2D(SurfacePoint(5.0, 0))))

    def test_stacked_objects_allowed(self):
        scene = stack_scene()
        assert scene.z_spans[1] == pytest.approx((0.10, 0.20))

    def test_a_replaced_scene_keeps_its_own_geometry(self):
        # `replace` builds the scene anew, so its footprints and spans are
        # those of its own objects, not the original's
        scene = stack_scene()
        lone = replace(scene, objects=(SceneObject(
            "cube", CUBE, Pose2D(SurfacePoint(-0.3, 0.1), yaw=0.5)),))
        assert lone.footprints == (lone.objects[0].footprint,)
        assert lone.z_spans == ((0.0, 0.06),)
        assert scene.footprints == tuple(o.footprint for o in scene.objects)
        assert scene.z_spans[0] == pytest.approx((0.0, 0.10))
        with pytest.raises(ValueError, match="objects a and b overlap"):
            replace(scene, objects=(
                SceneObject("a", BOX, Pose2D(SurfacePoint(0.0, 0.0))),
                SceneObject("b", BOX, Pose2D(SurfacePoint(0.1, 0.0)))))

    def test_support_tie_is_ambiguous(self):
        # footprints overlap by 0.5 mm, under the collision tolerance
        scene = Scene(PLANE,
                      (SceneObject("a", BOX, Pose2D(SurfacePoint(-0.1, 0))),
                       SceneObject("b", BOX, Pose2D(SurfacePoint(0.0995, 0)))))
        with pytest.raises(DeixisError, match="covered by a and b at the same height$"):
            scene.support_index(SurfacePoint(-0.0003, 0.0))


class TestIsStable:
    def test_centered_on_stack_top(self):
        assert stable_region(stack_scene(), CUBE).is_stable(SurfacePoint(0.2, 0.0))

    def test_com_beyond_top_face(self):
        # 1 cm past the face edge at u = 0.3
        region = stable_region(stack_scene(), CUBE)
        assert not region.is_stable(SurfacePoint(0.31, 0.0))

    def test_inside_margin_ring_unstable(self):
        # inside the face but within the 5 mm shrink margin
        region = stable_region(stack_scene(), CUBE)
        assert not region.is_stable(SurfacePoint(0.297, 0.0))

    def test_gravity_off_everything_stable(self):
        scene = stack_scene()
        on, off = stable_region(scene, CUBE), stable_region(scene, CUBE, gravity=False)
        for p in (SurfacePoint(0.31, 0.0), SurfacePoint(-0.598, 0.398)):
            assert off.is_stable(p)
            assert not on.is_stable(p)

    def test_bare_table(self):
        region = stable_region(Scene(PLANE), CUBE)
        assert region.is_stable(SurfacePoint(0, 0))
        assert not region.is_stable(SurfacePoint(0.598, 0.0))

    def test_top_face_placement_clears_objects_standing_on_it(self):
        # the mug's center is over the box top, off the small cube standing
        # on it, but its footprint would overlap the cube
        region = stable_region(small_cube_on_box(), MUG)
        assert not region.is_stable(SurfacePoint(0.0301, 0.0))
        assert region.is_stable(SurfacePoint(0.075, 0.0))
        assert region.is_stable(SurfacePoint(0.0, 0.0))  # on the cube

    def test_nearest_beside_a_stacked_cube_is_stable(self):
        region = stable_region(small_cube_on_box(), MUG)
        x = SurfacePoint(0.028, 0.0)
        got = region.nearest(x)
        assert region.contains(got)
        assert surface_distance(got, x) == pytest.approx(0.003, abs=1e-9)
        res = resolve(region, x)  # theta from the same enumeration
        assert res.path == ENUMERATED
        assert res.theta == pytest.approx(0.003, abs=1e-9)


class TestStableRegion:
    def test_empty_table_shrunk_rect(self):
        region = stable_region(Scene(PLANE), CUBE)
        assert region.base is not None
        assert region.base.sd(SurfacePoint(0.6 - SUPPORT_MARGIN, 0.0)) == pytest.approx(0.0)
        assert region.base.sd(SurfacePoint(0.0, 0.4 - SUPPORT_MARGIN)) == pytest.approx(0.0)
        assert not region.holes and not region.islands

    def test_gravity_off_full_extent(self):
        scene = stack_scene()
        on, off = stable_region(scene, CUBE), stable_region(scene, CUBE, gravity=False)
        assert off.base.sd(SurfacePoint(0.6, 0.0)) == pytest.approx(0.0)
        assert on.base.sd(SurfacePoint(0.6, 0.0)) == pytest.approx(SUPPORT_MARGIN)
        assert off.contains(SurfacePoint(0.6, 0.4))
        assert not on.contains(SurfacePoint(0.6, 0.4))

    def test_grid_agreement_with_is_stable(self):
        region = stable_region(stack_scene(), CUBE)

        def primitive_member(p):
            if any(i.sd(p) <= -SUPPORT_MARGIN for i in region.islands):
                return True
            if region.base is None or region.base.sd(p) > 0.0:
                return False
            return not any(h.sd(p) < -COLLISION_TOL for h in region.holes)

        n = 0
        for i in range(-60, 61, 2):
            for j in range(-40, 41, 2):
                p = SurfacePoint(i / 100.0, j / 100.0)
                assert primitive_member(p) == region.is_stable(p)
                assert region.contains(p) == region.is_stable(p)
                n += 1
        assert n > 1000

    def test_monotone_in_objects(self):
        with_stack = stable_region(stack_scene(), CUBE)
        bare = stable_region(Scene(PLANE), CUBE)
        for i in range(-59, 60, 3):
            for j in range(-39, 40, 3):
                p = SurfacePoint(i / 100.0, j / 100.0)
                # removing the stack never shrinks the table-level region
                if with_stack.contains(p) and not any(
                        h.sd(p) < -COLLISION_TOL for h in with_stack.holes):
                    assert bare.contains(p)

    def test_one_region_per_scene_and_shape(self):
        scene = stack_scene()
        regions = {(shape, gravity): stable_region(scene, shape, gravity)
                   for shape in (MUG, CUBE) for gravity in (True, False)}
        assert len({id(r) for r in regions.values()}) == 4
        for (shape, gravity), region in regions.items():
            assert (region.scene, region.shape, region.gravity) == (scene, shape, gravity)
            assert stable_region(scene, shape, gravity) is region
        assert stable_region(scene, MUG) is regions[MUG, True]
        assert stable_region(scene, Shape.mug(radius=0.04, height=0.10),
                             gravity=False) is regions[MUG, False]
        assert stable_region(stack_scene(), MUG) is not regions[MUG, True]

    def test_gravity_off_superset(self):
        scene = stack_scene()
        on, off = stable_region(scene, CUBE), stable_region(scene, CUBE, gravity=False)
        differ = 0
        for i in range(-59, 60, 3):
            for j in range(-39, 40, 3):
                p = SurfacePoint(i / 100.0, j / 100.0)
                assert off.contains(p)
                differ += not on.contains(p)
        assert differ


class TestNearestStable:
    def test_identity_when_stable(self):
        scene = stack_scene()
        p = SurfacePoint(0.2, 0.0)
        assert stable_region(scene, CUBE).nearest(p) == p

    def test_gravity_off_identity(self):
        scene = stack_scene()
        p = SurfacePoint(0.31, 0.0)
        assert stable_region(scene, CUBE, gravity=False).nearest(p) == p
        assert stable_region(scene, CUBE).nearest(p) != p

    def grid_oracle(self, scene, shape, x, step=0.001):
        region = stable_region(scene, shape)
        best, best_d = None, math.inf
        for i in range(-80, 81):
            for j in range(-80, 81):
                p = SurfacePoint(x.u + i * step, x.v + j * step)
                if abs(p.u) > 0.6 or abs(p.v) > 0.4:
                    continue
                if not region.is_stable(p):
                    continue
                d = surface_distance(p, x)
                if d < best_d:
                    best, best_d = p, d
        return best, best_d

    def test_stack_edge_matches_grid_oracle(self):
        scene = stack_scene()
        x = SurfacePoint(0.302, 0.0)  # just past the top face edge
        got = stable_region(scene, CUBE).nearest(x)
        oracle, oracle_d = self.grid_oracle(scene, CUBE, x)
        assert oracle is not None
        assert surface_distance(got, oracle) <= 0.002
        assert surface_distance(got, x) <= oracle_d + 1e-9

    def test_nearest_never_beaten_on_probe_grid(self):
        scene = stack_scene()
        x = SurfacePoint(0.305, 0.02)
        region = stable_region(scene, CUBE)
        d_got = surface_distance(region.nearest(x), x)
        for i in range(-60, 61):
            for j in range(-40, 41):
                p = SurfacePoint(i / 100.0, j / 100.0)
                if region.is_stable(p):
                    assert d_got <= surface_distance(p, x) + 1e-9

    def test_no_stable_placement(self):
        tiny = Plane.horizontal((0.008, 0.008))
        region = stable_region(Scene(tiny), CUBE)
        assert region.is_empty()
        with pytest.raises(DeixisError, match="^no stable placement exists for this shape$"):
            region.nearest(SurfacePoint(0, 0))

    def test_round_shape_beside_box_corner(self):
        # the exact distance from x to the mug's hole around the cube corner:
        # the rounded corner has radius 0.04 - COLLISION_TOL
        scene = Scene(PLANE, (SceneObject("cube", CUBE, Pose2D(SurfacePoint(0, 0))),))
        x = SurfacePoint(0.055, 0.055)
        got = stable_region(scene, Shape.mug(0.04, 0.10)).nearest(x)
        assert surface_distance(got, x) == pytest.approx(
            0.039 - 0.025 * math.sqrt(2), abs=1e-6)


def segment_distance(p, a, b):
    """Distance from `p` to the segment from `a` to `b`."""
    eu, ev = b[0] - a[0], b[1] - a[1]
    t = max(0.0, min(1.0, ((p.u - a[0]) * eu + (p.v - a[1]) * ev) / (eu * eu + ev * ev)))
    return math.hypot(p.u - a[0] - t * eu, p.v - a[1] - t * ev)


class TestFootprint:
    """Boxes too small for their center's precision: corners that round to
    one point are kept once."""

    PROBES = [SurfacePoint(0.3, -0.2), SurfacePoint(0.5, 0.1), SurfacePoint(0.25, -0.1),
              SurfacePoint(0.3, -0.35), SurfacePoint(-1.0, 2.0)]

    @pytest.mark.parametrize("yaw", [0.0, 0.4, -2.5])
    def test_a_collapsed_box_is_its_point(self, yaw):
        fp = Footprint.box(SurfacePoint(0.3, -0.2), 1e-20, 1e-20, yaw)
        assert fp.core == ((0.3, -0.2),)
        for p in self.PROBES:
            assert fp.sd(p) == math.hypot(p.u - 0.3, p.v + 0.2)

    @pytest.mark.parametrize("yaw", [0.0, 0.5, 2.0])
    def test_a_flat_box_is_its_segment(self, yaw):
        fp = Footprint.box(SurfacePoint(0.3, -0.2), 1e-300, 0.08, yaw)
        du, dv = -math.sin(yaw) * 0.08, math.cos(yaw) * 0.08
        ends = (0.3 + du, -0.2 + dv), (0.3 - du, -0.2 - dv)
        assert len(fp.core) == 2
        for p in self.PROBES:
            assert fp.sd(p) == pytest.approx(segment_distance(p, *ends), abs=1e-15)

    def test_a_difference_whose_vertex_sums_round_to_a_segment(self):
        # b's two ends differ by less than the precision of a's: the four
        # differences round to two points, a segment's hull
        a = Footprint.box(SurfacePoint(0.4, 0.5), 0.08, 1e-300)
        b = Footprint.box(SurfacePoint(0.3, 0.0), 1e-300, 1e-17)
        assert len(a.core) == len(b.core) == 2
        diff = a - b
        assert diff.core == tuple(sorted((au - 0.3, 0.5) for au, _ in a.core))
        for p in self.PROBES:
            assert diff.sd(p) == pytest.approx(segment_distance(p, *diff.core), abs=1e-15)

    def test_a_box_whose_edges_underflow(self):
        # distinct corners, but each edge's squared length is 0.0
        fp = Footprint.box(SurfacePoint(0.0, 0.0), 1e-200, 1e-200)
        assert len(fp.core) == 4
        for p in self.PROBES:
            assert fp.sd(p) == pytest.approx(math.hypot(p.u, p.v), rel=1e-15)
        speck = Shape.cube(half=1e-200, height=0.1)
        scene = Scene(PLANE, (SceneObject("speck", speck, Pose2D(SurfacePoint(0.0, 0.0))),
                              SceneObject("mug", MUG, Pose2D(SurfacePoint(0.2, 0.0)))))
        p = stable_region(scene, MUG).nearest(SurfacePoint(0.0, 0.0))
        assert math.hypot(p.u, p.v) == pytest.approx(MUG.radius - COLLISION_TOL)


class TestYawedBoxes:
    CUBOID = Shape.cuboid(half_extents=(0.06, 0.03), height=0.06)

    def scene(self, u):
        return Scene(PLANE, (SceneObject("cube", CUBE, Pose2D(SurfacePoint(0, 0))),
                             SceneObject("box", self.CUBOID,
                                         Pose2D(SurfacePoint(u, 0), yaw=math.radians(30)))))

    def test_apart_constructs(self):
        assert len(self.scene(0.12).objects) == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="objects cube and box overlap"):
            self.scene(0.07)


# Exactness against oracles that never call the footprint kernel.

TABLE = Plane.horizontal((0.5, 0.4))
size = st.floats(0.01, 0.06)
round_or_box = st.one_of(
    st.builds(lambda r: ("mug", r, None), size),
    st.builds(lambda r: ("saucer", r, None), size),
    st.builds(lambda h: ("cube", None, (h, h)), size),
    st.builds(lambda hu, hv: ("cuboid", None, (hu, hv)), size, size))
placement = st.tuples(round_or_box, st.floats(-0.16, 0.16), st.floats(-0.11, 0.11),
                      st.floats(-math.pi, math.pi, exclude_max=True))


def make_object(i, spec):
    (kind, radius, half_extents), u, v, yaw = spec
    # distinct heights: no two covering objects tie
    shape = Shape(kind, 0.05 + 0.01 * i, radius=radius, half_extents=half_extents)
    return SceneObject(f"o{i}", shape, Pose2D(SurfacePoint(u, v), yaw=yaw))


def boundary_samples(obj, n=20000):
    """Points on the footprint outline, in world coordinates."""
    p, s = obj.pose.position, obj.shape
    if s.radius is not None:
        phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.column_stack([p.u + s.radius * np.cos(phi), p.v + s.radius * np.sin(phi)])
    hu, hv = s.half_extents
    t = np.linspace(-1.0, 1.0, n // 4, endpoint=False)
    local = np.concatenate([np.column_stack([hu * t, np.full_like(t, hv)]),
                            np.column_stack([hu * -t, np.full_like(t, -hv)]),
                            np.column_stack([np.full_like(t, hu), hv * -t]),
                            np.column_stack([np.full_like(t, -hu), hv * t])])
    return world(obj, local)


def world(obj, local):
    c, s = math.cos(obj.pose.yaw), math.sin(obj.pose.yaw)
    p = obj.pose.position
    return local @ np.array([[c, s], [-s, c]]) + np.array([p.u, p.v])


def inside(obj, q):
    p, s = obj.pose.position, obj.shape
    if s.radius is not None:
        return math.hypot(q[0] - p.u, q[1] - p.v) <= s.radius
    c, sn = math.cos(obj.pose.yaw), math.sin(obj.pose.yaw)
    du, dv = q[0] - p.u, q[1] - p.v
    return (abs(c * du + sn * dv) <= s.half_extents[0]
            and abs(-sn * du + c * dv) <= s.half_extents[1])


def oracle_depth(a, b):
    """How deep the footprints of `a` and `b` overlap (negative when apart)."""
    if a.shape.radius is None and b.shape.radius is None:
        hulls = []
        for o in (a, b):
            hu, hv = o.shape.half_extents
            hulls.append(world(o, np.array([[hu, hv], [-hu, hv], [-hu, -hv], [hu, -hv]])))
        diffs = (hulls[0][:, None, :] - hulls[1][None, :, :]).reshape(-1, 2)
        # facets satisfy normal . x + offset <= 0 inside; the origin's depth
        # is the smallest distance to a facet
        return -ConvexHull(diffs).equations[:, 2].max()
    if a.shape.radius is None:
        a, b = b, a
    c = (a.pose.position.u, a.pose.position.v)
    dist = np.hypot(*(boundary_samples(b) - np.array(c)).T).min()
    return a.shape.radius - (-dist if inside(b, c) else dist)


class TestExactness:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(placement, placement)
    def test_overlap_matches_oracle(self, spec_a, spec_b):
        a, b = make_object(0, spec_a), make_object(1, spec_b)
        depth = oracle_depth(a, b)
        assume(abs(depth - COLLISION_TOL) > 1e-6)
        if depth > COLLISION_TOL:
            with pytest.raises(ValueError, match="overlap"):
                Scene(TABLE, (a, b))
        else:
            Scene(TABLE, (a, b))

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.lists(placement, min_size=1, max_size=4), round_or_box,
           st.floats(-0.08, 0.08), st.floats(-0.08, 0.08))
    def test_nearest_is_exact_on_grid(self, specs, placed, du, dv):
        try:
            scene = Scene(TABLE, tuple(make_object(i, s) for i, s in enumerate(specs)))
        except ValueError:
            assume(False)
        kind, radius, half_extents = placed
        shape = Shape(kind, 0.05, radius=radius, half_extents=half_extents)
        x = SurfacePoint(specs[0][1] + du, specs[0][2] + dv)  # near an object
        assert_nearest_on_grid(stable_region(scene, shape), x)

    def test_nearest_from_the_centre_of_a_round_hole(self):
        # a saucer narrower than the support margin holds no island, so its
        # centre is unstable, and every point of the hole's rim is nearest
        saucer = Shape("saucer", 0.02, radius=SUPPORT_MARGIN / 2.0)
        scene = Scene(TABLE, (SceneObject("s", saucer, Pose2D(SurfacePoint(0.05, 0.03))),))
        region = stable_region(scene, MUG)
        x = SurfacePoint(0.05, 0.03)
        assert not region.contains(x)
        got = assert_nearest_on_grid(region, x)
        # the leftmost rim point, as the tie rule picks
        assert got.v == x.v and got.u < x.u


def assert_nearest_on_grid(region, x: SurfacePoint) -> SurfacePoint:
    """`region.nearest(x)`, checked against a 1 mm grid: no grid point
    nearer `x` is stable, and a stable point lies within one grid diagonal
    of the answer."""
    got = region.nearest(x)
    assert region.contains(got)
    d = surface_distance(got, x)
    step = 0.001
    reach = int(d / step) + 2
    iu, iv = round(x.u / step), round(x.v / step)
    for i in range(iu - reach, iu + reach + 1):
        for j in range(iv - reach, iv + reach + 1):
            p = SurfacePoint(i * step, j * step)
            if surface_distance(p, x) < d - 1e-9:
                assert not region.contains(p), (p, got)
    # a finer grid finds stable points in the wedge left where two hole
    # boundaries cross
    fine = step / 10.0
    gu, gv = round(got.u / fine), round(got.v / fine)
    near = [SurfacePoint((gu + i) * fine, (gv + j) * fine)
            for i in range(-15, 16) for j in range(-15, 16)]
    assert any(region.contains(p) for p in near
               if surface_distance(p, got) <= step * math.sqrt(2))
    return got


# Membership against the rule as first written, evaluated per call: every
# footprint rebuilt at p, overlap as the Minkowski difference placed - object
# at the origin, support by the highest covering footprint.

def per_call_z_span(scene, obj):
    by_id = {o.id: o for o in scene.objects}
    z, cur = 0.0, obj
    while cur.support != ON_TABLE:
        cur = by_id[cur.support]
        z += cur.shape.height
    return z, z + obj.shape.height


def per_call_is_stable(scene, shape, p, gravity=True, eps=1e-12):
    if not gravity:
        return True
    covering = [o for o in scene.objects if o.footprint.sd(p) <= eps]
    covering.sort(key=lambda o: per_call_z_span(scene, o)[1], reverse=True)
    if (len(covering) > 1 and per_call_z_span(scene, covering[0])[1]
            - per_call_z_span(scene, covering[1])[1] < HEIGHT_TIE_TOL):
        raise DeixisError(
            f"position ({p.u:.3f}, {p.v:.3f}) is covered by "
            f"{covering[0].id} and {covering[1].id} at the same height")
    if not covering:
        if not scene.surface.contains_surface_point(p, shrink=SUPPORT_MARGIN):
            return False
        others = scene.objects
    else:
        support = covering[0]
        if support.footprint.sd(p) > -SUPPORT_MARGIN + eps:
            return False
        lo = per_call_z_span(scene, support)[1]
        others = [o for o in scene.objects
                  if min(per_call_z_span(scene, o)[1], lo + shape.height)
                  - max(per_call_z_span(scene, o)[0], lo) > 0.0]
    placed = shape.footprint(Pose2D(p))
    return not any((placed - o.footprint).sd(SurfacePoint(0.0, 0.0))
                   < -COLLISION_TOL - eps for o in others)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DeixisError as exc:
        return str(exc)


class TestMembership:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.lists(st.tuples(placement, st.integers(-1, 3)), min_size=1, max_size=5),
           round_or_box, st.sampled_from([True, True, False]),
           st.lists(st.tuples(st.floats(-0.27, 0.27), st.floats(-0.22, 0.22)),
                    min_size=20, max_size=40))
    def test_contains_matches_per_call_rule(self, specs, placed, gravity, points):
        objects = []
        for i, (spec, below) in enumerate(specs):
            obj = make_object(i, spec)
            if 0 <= below < i:  # stacked near the center of an earlier object
                c, p = objects[below].pose.position, obj.pose.position
                obj = SceneObject(obj.id, obj.shape,
                                  Pose2D(SurfacePoint(c.u + 0.2 * p.u, c.v + 0.2 * p.v),
                                         obj.pose.yaw),
                                  support=objects[below].id)
            objects.append(obj)
        try:
            scene = Scene(TABLE, tuple(objects))
        except ValueError:
            assume(False)
        kind, radius, half_extents = placed
        shape = Shape(kind, 0.05, radius=radius, half_extents=half_extents)
        region = stable_region(scene, shape, gravity)
        # points anywhere, plus points at each object's center and just past
        # its corners or rim, where support and overlap change
        probes = [SurfacePoint(u, v) for u, v in points]
        for o in objects:
            c, r = o.pose.position, o.shape.radius or max(o.shape.half_extents)
            probes += [c] + [SurfacePoint(c.u + k * r * math.cos(a), c.v + k * r * math.sin(a))
                             for k in (0.9, 1.02, 1.5) for a in (0.3, 2.0, 4.1)]
        for p in probes:
            expected = outcome(per_call_is_stable, scene, shape, p, gravity)
            assert outcome(region.is_stable, p) == expected
            assert outcome(region.contains, p) == (
                expected if scene.surface.contains_surface_point(p) else False)

    def test_support_tie_matches_per_call_rule(self):
        scene = Scene(PLANE,
                      (SceneObject("a", BOX, Pose2D(SurfacePoint(-0.1, 0))),
                       SceneObject("b", BOX, Pose2D(SurfacePoint(0.0995, 0)))))
        p = SurfacePoint(-0.0003, 0.0)
        expected = outcome(per_call_is_stable, scene, MUG, p)
        assert "covered by a and b" in expected
        assert outcome(stable_region(scene, MUG).contains, p) == expected


# `Scene.moved` against a freshly built scene of the same objects.

MOVABLE = Scene(PLANE, (
    SceneObject("mug", MUG, Pose2D(SurfacePoint(-0.3, 0.1))),
    SceneObject("red_cube", Shape.cube(0.08, 0.16), Pose2D(SurfacePoint(0.0, 0.2))),
    SceneObject("box", BOX, Pose2D(SurfacePoint(0.3, -0.15), yaw=0.4)),
    SceneObject("cube_on_box", CUBE, Pose2D(SurfacePoint(0.3, -0.15), yaw=-1.0),
                support="box"),
    SceneObject("saucer", Shape("saucer", 0.02, radius=0.06),
                Pose2D(SurfacePoint(-0.3, -0.2)))))
# a little past the 1.2 m x 0.8 m surface, so some moves leave it
surface_point = st.builds(SurfacePoint, st.floats(-0.65, 0.65), st.floats(-0.45, 0.45))


def moved_by_hand(scene, positions):
    return Scene(scene.surface,
                 tuple(SceneObject(o.id, o.shape, Pose2D(positions[i], o.pose.yaw),
                                   o.support) if i in positions else o
                       for i, o in enumerate(scene.objects)))


class TestMoved:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(st.integers(0, len(MOVABLE.objects) - 1), surface_point,
                           max_size=3))
    def test_equals_a_fresh_scene(self, positions):
        try:
            fresh = moved_by_hand(MOVABLE, positions)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                MOVABLE.moved(positions)
            assert str(got.value) == str(exc)
        else:
            scene = MOVABLE.moved(positions)
            assert scene == fresh
            assert (scene.footprints, scene.z_spans) == (fresh.footprints, fresh.z_spans)
            assert all(o is MOVABLE.objects[i] for i, o in enumerate(scene.objects)
                       if i not in positions)

    @pytest.mark.parametrize("position, message", [
        (SurfacePoint(0.7, 0.1), "mug lies outside the surface extent"),
        (SurfacePoint(0.05, 0.2), "objects mug and red_cube overlap"),
        (SurfacePoint(0.3, -0.2), "objects mug and box overlap")])
    def test_same_error_as_a_fresh_scene(self, position, message):
        for build in (moved_by_hand, Scene.moved):
            with pytest.raises(ValueError) as got:
                build(MOVABLE, {0: position})
            assert str(got.value) == message

    def test_stacked_object_moves_over_a_lower_one(self):
        # height spans of the cube on the box and the mug do not meet
        scene = MOVABLE.moved({3: SurfacePoint(-0.3, 0.1)})
        assert scene == moved_by_hand(MOVABLE, {3: SurfacePoint(-0.3, 0.1)})
        assert scene.objects[3].support == "box"
