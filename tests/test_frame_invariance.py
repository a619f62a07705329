"""Frame invariance: moving the whole world must not change an answer.

A rigid motion of the table plane and the pointing ray together keeps x*,
the cone section in the surface frame and every label.  An in-plane
rotation of a scene rotates its stable region with it: membership, and the
distance to the nearest stable placement, move with the scene.
"""
import math

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from deixis.geometry import (Plane, Point3, Ray, SurfacePoint, cone_plane_section,
                             surface_distance)
from deixis.harness import NATURAL_CONFIGS, STACK_CUBOID, STACK_POSITION
from deixis.resolver import (LOCATING, REFERENTIAL, PointingAct, ResolverConfig,
                             candidates, classify_outcome, predict_cluttered, resolve)
from deixis.scene import Pose2D, Scene, SceneObject, Shape, stable_region

CFG = ResolverConfig()
TOL = 1e-9
angle = st.floats(-math.pi, math.pi, exclude_max=True)


def rotation(yaw, pitch, roll):
    """Rows of the 3D rotation Rz(yaw) Ry(pitch) Rx(roll)."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    return ((cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
            (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
            (-sp, cp * sr, cp * cr))


def world(motion, apex, direction):
    """The table plane z = 0 and the pointing ray, both moved by the rigid
    motion (rotation rows, shift), or as they are for None."""
    table, ray = Plane.horizontal((1.2, 0.8)), Ray(Point3(*apex), direction)
    if motion is None:
        return table, ray
    rot, shift = motion

    def turn(v):
        return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in rot)

    def place(p):
        return Point3(*(a + b for a, b in zip(turn(p), shift)))

    plane = Plane(place((0.0, 0.0, 0.0)), turn(table.normal), turn(table.axis_u),
                  turn(table.axis_v), table.extent)
    return plane, Ray(place(apex), turn(direction))


def answers(plane, ray, vertex_angle, fractions, offset):
    """x*, the section, the labels of referential, cluttered and locating
    trials aimed by `ray`, and how far each label's distance lies from its
    threshold.  The referential mugs sit at `fractions` of the semi-axes in
    the section's frame; the cluttered pair is a diametric pair at `offset`
    times the semi-major axis; the locating trials are the natural stack's."""
    x_star = PointingAct.aim(ray, plane, REFERENTIAL).target
    e = cone_plane_section(ray, vertex_angle, plane)
    mugs = tuple((f"mug{i}", e.from_local(fx * e.semi_major, fy * e.semi_minor))
                 for i, (fx, fy) in enumerate(fractions))
    res = resolve(mugs, x_star, CFG)
    labels = [classify_outcome(res, oid, x_star, CFG) for oid, _ in mugs]
    margins = [surface_distance(p, x_star) - res.theta - CFG.epsilon for _, p in mugs]
    pair = [e.from_local((offset + s) * e.semi_major, 0.0) for s in (1.0, -1.0)]
    labels.append(predict_cluttered(x_star, *pair, CFG))
    margins.append(abs(surface_distance(pair[0], x_star)
                       - surface_distance(pair[1], x_star)) - CFG.epsilon)
    stack = Scene(plane, (SceneObject("base", STACK_CUBOID, Pose2D(STACK_POSITION)),
                          SceneObject("top", STACK_CUBOID, Pose2D(STACK_POSITION),
                                      support="base")))
    res = resolve(candidates(stack, LOCATING, STACK_CUBOID), x_star, CFG)
    for shown in NATURAL_CONFIGS.values():
        labels.append(classify_outcome(res, shown, x_star, CFG))
        d = surface_distance(shown, x_star) - res.theta - CFG.epsilon
        margins += [d, d - CFG.ambiguity_band]
    return x_star, e, labels, margins


@st.composite
def pointing(draw):
    """Apex over the table, aperture, and a lean that keeps the section an
    ellipse with a well-defined major axis."""
    vertex = math.radians(draw(st.sampled_from([45.0, 67.5, 90.0])))
    lean = draw(st.floats(0.05, 0.9)) * (math.pi / 2.0 - vertex / 2.0)
    azimuth = draw(angle)
    apex = (draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.3, 0.3)), draw(st.floats(0.3, 1.5)))
    d = (math.tan(lean) * math.cos(azimuth), math.tan(lean) * math.sin(azimuth), -1.0)
    norm = math.sqrt(sum(c * c for c in d))
    return apex, tuple(c / norm for c in d), vertex


motions = st.tuples(st.builds(rotation, angle, st.floats(-math.pi / 2.0, math.pi / 2.0),
                              angle),
                    st.tuples(*[st.floats(-5.0, 5.0)] * 3))
fraction = st.floats(-0.7, 0.7)


class TestRigidMotionOfTheWorld:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pointing(), motions, st.lists(st.tuples(fraction, fraction), min_size=2, max_size=4),
           st.floats(-1.0, 1.0))
    def test_keeps_x_star_section_and_labels(self, aim, motion, fractions, offset):
        apex, direction, vertex = aim
        x0, e0, labels0, margins = answers(*world(None, apex, direction), vertex,
                                           fractions, offset)
        assume(all(abs(m) > TOL for m in margins))
        x1, e1, labels1, _ = answers(*world(motion, apex, direction), vertex,
                                     fractions, offset)
        assert surface_distance(x0, x1) <= TOL
        assert surface_distance(e0.center, e1.center) <= TOL
        assert abs(e0.semi_major - e1.semi_major) <= TOL
        assert abs(e0.semi_minor - e1.semi_minor) <= TOL
        assert abs(math.remainder(e0.orientation - e1.orientation, math.pi)) <= TOL
        assert labels0 == labels1


SHAPES = {"mug": Shape.mug(radius=0.04, height=0.10),
          "cube": Shape.cube(half=0.08, height=0.16),
          "cuboid": Shape.cuboid(half_extents=(0.12, 0.06), height=0.10)}
SLOTS = ((-0.6, -0.45), (0.6, -0.45), (-0.6, 0.45), (0.6, 0.45))
objects = st.lists(st.tuples(st.sampled_from(sorted(SHAPES)), st.floats(-0.1, 0.1),
                             st.floats(-0.1, 0.1), angle, st.booleans()),
                   min_size=1, max_size=len(SLOTS))
# points near a slot, where the region has holes, islands and corners
queries = st.lists(st.tuples(st.integers(0, len(SLOTS) - 1), st.floats(-0.15, 0.15),
                             st.floats(-0.15, 0.15)), min_size=2, max_size=3)


def build(specs, extent, turn, dyaw):
    """A scene with one object per spec, each at its slot or stacked on the
    object before it, every position turned by `turn` and every yaw
    increased by `dyaw`."""
    placed = []
    for i, (kind, du, dv, yaw, stacked) in enumerate(specs):
        if stacked and placed and placed[-1].support == "table":
            below = placed[-1].pose.position
            u, v, support = below.u + du / 4.0, below.v + dv / 4.0, placed[-1].id
        else:
            u, v, support = SLOTS[i][0] + du, SLOTS[i][1] + dv, "table"
        placed.append(SceneObject(f"o{i}", SHAPES[kind], Pose2D(SurfacePoint(u, v), yaw),
                                  support))
    return Scene(Plane.horizontal(extent),
                 tuple(SceneObject(o.id, o.shape,
                                   Pose2D(turn(o.pose.position), o.pose.yaw + dyaw), o.support)
                       for o in placed))


def stable_here(region, p):
    """Whether `p` is stable, or None when a step of 1e-7 changes that."""
    inside = region.contains(p)
    steps = ((1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7))
    if any(region.contains(SurfacePoint(p.u + du, p.v + dv)) != inside for du, dv in steps):
        return None
    return inside


def assert_region_turns_with_the_scene(specs, extent, turned_extent, phi, turn, shape,
                                       turned_shape, points):
    region = stable_region(build(specs, extent, lambda p: p, 0.0), shape)
    turned = stable_region(build(specs, turned_extent, turn, phi), turned_shape)
    for slot, du, dv in points:
        q = SurfacePoint(SLOTS[slot][0] + du, SLOTS[slot][1] + dv)
        inside = stable_here(region, q)
        if inside is None:
            continue
        assert turned.contains(turn(q)) == inside, q
        d = surface_distance(region.nearest(q), q)
        assert abs(surface_distance(turned.nearest(turn(q)), turn(q)) - d) <= TOL, q


class TestInPlaneRotationOfTheScene:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(objects, angle, queries)
    def test_round_placed_shape_any_angle(self, specs, phi, points):
        c, s = math.cos(phi), math.sin(phi)

        def turn(p):
            return SurfacePoint(c * p.u - s * p.v, s * p.u + c * p.v)

        # a table wide enough that no turned object or query nears its edge
        assert_region_turns_with_the_scene(specs, (6.0, 6.0), (6.0, 6.0), phi, turn,
                                           SHAPES["mug"], SHAPES["mug"], points)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(objects, st.integers(0, 3), st.sampled_from(["cube", "cuboid"]), queries)
    def test_box_placed_shape_quarter_turns(self, specs, quarters, kind, points):
        # the placed box keeps yaw 0, so a quarter turn of the scene swaps
        # the placed box's half extents, and the table's extent with them
        c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarters]

        def turn(p):
            return SurfacePoint(c * p.u - s * p.v, s * p.u + c * p.v)

        shape = SHAPES[kind]
        turned_shape, extent = shape, (6.0, 4.0)
        if quarters % 2:
            turned_shape = Shape(kind, shape.height, half_extents=shape.half_extents[::-1])
            extent = extent[::-1]
        assert_region_turns_with_the_scene(specs, (6.0, 4.0), extent, quarters * math.pi / 2.0,
                                           turn, shape, turned_shape, points)
