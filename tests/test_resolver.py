import math
import random

import pytest

from deixis.errors import DeixisError
from deixis.geometry import Plane, Point3, Ray, SurfacePoint, surface_distance
from deixis.resolver import (AMBIGUOUS, CORRECT, INCORRECT, LOCATING, NEARER,
                             REFERENTIAL, PointingAct, ResolverConfig,
                             candidates, classify_outcome, predict_cluttered,
                             resolve)
from deixis.scene import Pose2D, Scene, SceneObject, Shape, StableRegion

PLANE = Plane.horizontal((1.2, 0.8))
MUG = Shape.mug(radius=0.04, height=0.10)
BOX = Shape.cuboid(half_extents=(0.10, 0.10), height=0.10)
CFG = ResolverConfig()


def discrete(*positions):
    return tuple((f"o{i}", SurfacePoint(*p)) for i, p in enumerate(positions))


def stack_scene(gravity=True):
    return Scene(PLANE,
                 (SceneObject("base", BOX, Pose2D(SurfacePoint(0.0, 0.0))),
                  SceneObject("top", BOX, Pose2D(SurfacePoint(0.0, 0.0)),
                              support="base")),
                 gravity=gravity)


class TestPointingAct:
    def test_aim_target_matches_intersection(self):
        ray = Ray(Point3(0.2, -0.1, 0.5), (0.0, 0.0, -1.0))
        act = PointingAct.aim(ray, PLANE, REFERENTIAL)
        assert abs(act.target.u - 0.2) <= 1e-9
        assert abs(act.target.v + 0.1) <= 1e-9

    def test_aim_misses(self):
        with pytest.raises(ValueError):
            PointingAct.aim(Ray(Point3(0, 0, 0.5), (0, 0, 1)), PLANE, LOCATING)

    def test_bad_intent(self):
        with pytest.raises(ValueError):
            PointingAct(Ray(Point3(0, 0, 1), (0, 0, -1)), "waving",
                        SurfacePoint(0, 0))


class TestCandidates:
    def test_unknown_intent(self):
        scene = Scene(PLANE, (SceneObject("mug", MUG, Pose2D(SurfacePoint(0, 0))),))
        with pytest.raises(ValueError, match="^unknown intent 'waving'$"):
            candidates(scene, "waving")

    def test_referential_lists_objects(self):
        scene = Scene(PLANE, (SceneObject("mug", MUG, Pose2D(SurfacePoint(0.1, 0))),))
        cs = candidates(scene, REFERENTIAL)
        assert cs == (("mug", SurfacePoint(0.1, 0)),)

    def test_referential_empty_scene(self):
        with pytest.raises(DeixisError, match="needs at least one object"):
            resolve(candidates(Scene(PLANE), REFERENTIAL), SurfacePoint(0, 0))

    def test_locating_gravity_off_full_surface(self):
        cs = candidates(stack_scene(gravity=False), LOCATING, MUG)
        assert isinstance(cs, StableRegion)
        assert cs.contains(SurfacePoint(0.6, 0.4))

    def test_locating_requires_shape(self):
        with pytest.raises(ValueError):
            candidates(stack_scene(), LOCATING)

    def test_locating_no_stable_placement(self):
        tiny = Scene(Plane.horizontal((0.008, 0.008)))
        with pytest.raises(DeixisError, match="^no stable placement for the given shape$"):
            candidates(tiny, LOCATING, MUG)


class TestResolve:
    def test_far_second_object_excluded(self):
        cs = discrete((0.05, 0.0), (0.25, 0.0))
        res = resolve(cs, SurfacePoint(0, 0), CFG)
        assert res.theta == pytest.approx(0.05)
        assert res.selected_ids == frozenset({"o0"})
        assert len(res.selected_ids) == 1

    def test_near_second_object_ambiguous(self):
        cs = discrete((0.05, 0.0), (0.12, 0.0))
        res = resolve(cs, SurfacePoint(0, 0), CFG)
        assert res.selected_ids == frozenset({"o0", "o1"})
        assert len(res.selected_ids) > 1

    def test_continuous_theta_zero_inside(self):
        cs = candidates(stack_scene(gravity=False), LOCATING, MUG)
        x = SurfacePoint(0.3, 0.1)
        res = resolve(cs, x, CFG)
        assert res.theta == 0.0
        # x* itself lies in the region and within theta + epsilon of x*
        assert classify_outcome(res, x, x, CFG) == CORRECT

    def test_continuous_theta_outside(self):
        # x* on the stack but off the shrunk top face: nearest stable is the
        # face boundary at u = 0.095
        cs = candidates(stack_scene(), LOCATING, BOX)
        res = resolve(cs, SurfacePoint(0.098, 0.0), CFG)
        assert res.theta == pytest.approx(0.003, abs=1e-9)


class TestClassify:
    def test_single_mug_always_correct(self):
        for u, v in [(0.0, 0.0), (0.5, 0.3), (-0.55, -0.35)]:
            scene = Scene(PLANE, (SceneObject("mug", MUG, Pose2D(SurfacePoint(u, v))),))
            res = resolve(candidates(scene, REFERENTIAL), SurfacePoint(0.1, 0.1), CFG)
            assert classify_outcome(res, "mug", SurfacePoint(0.1, 0.1), CFG) == CORRECT

    def test_referential_three_way(self):
        cs = discrete((0.05, 0.0), (0.12, 0.0), (0.5, 0.0))
        res = resolve(cs, SurfacePoint(0, 0), CFG)
        x = SurfacePoint(0, 0)
        assert classify_outcome(res, "o0", x, CFG) == AMBIGUOUS
        assert classify_outcome(res, "o1", x, CFG) == AMBIGUOUS
        assert classify_outcome(res, "o2", x, CFG) == INCORRECT

    def test_locating_distance_bands(self):
        cs = candidates(stack_scene(gravity=False), LOCATING, MUG)
        x = SurfacePoint(0.3, 0.0)
        res = resolve(cs, x, CFG)
        assert classify_outcome(res, SurfacePoint(0.38, 0.0), x, CFG) == CORRECT
        assert classify_outcome(res, SurfacePoint(0.45, 0.0), x, CFG) == AMBIGUOUS
        assert classify_outcome(res, SurfacePoint(0.0, 0.0), x, CFG) == INCORRECT

    def test_locating_unstable_shown_incorrect(self):
        scene = stack_scene()
        cs = candidates(scene, LOCATING, BOX)
        x = SurfacePoint(0.098, 0.0)
        res = resolve(cs, x, CFG)
        # top-of-stack placement is stable and near -> correct
        assert classify_outcome(res, SurfacePoint(0.0, 0.0), x, CFG) == CORRECT
        # the aimed edge position itself is unstable -> incorrect
        assert classify_outcome(res, x, x, CFG) == INCORRECT

    def test_type_mismatch(self):
        res = resolve(discrete((0.0, 0.0)), SurfacePoint(0, 0), CFG)
        with pytest.raises(DeixisError, match="^referential resolution expects an object id$"):
            classify_outcome(res, SurfacePoint(0, 0), SurfacePoint(0, 0), CFG)
        res2 = resolve(candidates(stack_scene(gravity=False), LOCATING, MUG),
                       SurfacePoint(0, 0), CFG)
        with pytest.raises(DeixisError, match="^locating resolution expects a surface point$"):
            classify_outcome(res2, "mug", SurfacePoint(0, 0), CFG)


class TestPredictCluttered:
    def test_clear_preference(self):
        x = SurfacePoint(0, 0)
        assert predict_cluttered(x, SurfacePoint(0.05, 0), SurfacePoint(0.25, 0),
                                 CFG) == NEARER

    def test_close_distances_ambiguous(self):
        x = SurfacePoint(0, 0)
        assert predict_cluttered(x, SurfacePoint(0.12, 0), SurfacePoint(0, 0.15),
                                 CFG) == AMBIGUOUS

    def test_equidistant_ambiguous(self):
        x = SurfacePoint(0, 0)
        assert predict_cluttered(x, SurfacePoint(0.2, 0), SurfacePoint(-0.2, 0),
                                 CFG) == AMBIGUOUS

    def test_symmetric_in_arguments(self):
        x = SurfacePoint(0.1, -0.2)
        a, b = SurfacePoint(0.3, 0.0), SurfacePoint(-0.2, 0.25)
        assert predict_cluttered(x, a, b, CFG) == predict_cluttered(x, b, a, CFG)


class TestProperties:
    def test_randomized_discrete_scenes(self):
        rng = random.Random(12345)
        for _ in range(2000):
            n = rng.randint(1, 6)
            pts = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.35, 0.35))
                   for _ in range(n)]
            cs = discrete(*pts)
            x = SurfacePoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.35, 0.35))
            res = resolve(cs, x, CFG)
            dists = {oid: surface_distance(p, x) for oid, p in cs}
            nearest = min(dists, key=dists.get)
            assert nearest in res.selected_ids
            assert res.theta == pytest.approx(dists[nearest])
            # epsilon monotonicity
            small = resolve(cs, x, ResolverConfig(epsilon=0.05))
            assert small.selected_ids <= res.selected_ids
            # rigid motion invariance
            du, dv, ang = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 6.28)
            c, s = math.cos(ang), math.sin(ang)

            def move(p):
                return SurfacePoint(c * p[0] - s * p[1] + du,
                                    s * p[0] + c * p[1] + dv)

            moved = tuple((oid, move((p.u, p.v))) for oid, p in cs)
            res_moved = resolve(moved, move((x.u, x.v)), CFG)
            assert res_moved.selected_ids == res.selected_ids
