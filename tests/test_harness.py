import math
from dataclasses import replace

import pytest

from deixis import corpus, harness
from deixis.errors import DeixisError
from deixis.geometry import Plane, SurfacePoint, cone_plane_section, surface_distance
from deixis.harness import (CLUTTERED, NATURAL, REF_VS_LOC, Condition,
                            ResponseRecord, generate_trials,
                            pointer_ray, run)
from deixis.resolver import (CORRECT, LOCATING, NEARER, REFERENTIAL, ResolverConfig,
                             candidates, classify_outcome, resolve)
from deixis.sampling import cluttered_pair, sample_positions, substreams
from ellipse_oracle import contains


def cond(kind=REF_VS_LOC, deg=45.0, **kw):
    angle = None if kind == NATURAL else math.radians(deg)
    return Condition(kind=kind, cone_vertex_angle=angle, **kw)


def dump(tset):
    return "".join(corpus._ENCODER.encode(
        {**corpus._context(tset.condition, tset.act, t.scene),
         "id": t.id, "shown": corpus._shown_to_json(t.shown)}) for t in tset.trials)


class TestCondition:
    def test_angle_required_for_sampled_kinds(self):
        with pytest.raises(ValueError):
            Condition(kind=REF_VS_LOC)
        with pytest.raises(ValueError):
            Condition(kind=CLUTTERED, cone_vertex_angle=math.radians(50.0))

    def test_natural_needs_no_angle(self):
        Condition(kind=NATURAL)
        with pytest.raises(ValueError, match="takes no cone"):
            Condition(kind=NATURAL, cone_vertex_angle=math.radians(45.0))

    def test_unknown_fields(self):
        with pytest.raises(ValueError):
            cond(robot="pr2")
        with pytest.raises(ValueError):
            cond(verb="yeet")
        with pytest.raises(ValueError, match="unknown condition kind 'verb_variant'"):
            cond(kind="verb_variant")
        with pytest.raises(ValueError, match="unknown variant 'pointing'"):
            cond(variant="pointing")

    @pytest.mark.parametrize("kind, field, value, message", [
        (CLUTTERED, "variant", LOCATING, "takes no variant"),
        (NATURAL, "variant", LOCATING, "takes no variant"),
        (CLUTTERED, "verb", "move", "takes no verb"),
        (NATURAL, "verb", "place", "takes no verb"),
        (REF_VS_LOC, "gravity", False, "takes no gravity off"),
        (CLUTTERED, "gravity", False, "takes no gravity off"),
        (CLUTTERED, "reverse", True, "takes no reverse"),
        (NATURAL, "reverse", True, "takes no reverse"),
        (CLUTTERED, "speech", False, "takes no speech"),
        (NATURAL, "speech", False, "takes no speech")])
    def test_fields_the_kind_ignores_keep_defaults(self, kind, field, value, message):
        # the descriptor and trial ids leave these fields out
        with pytest.raises(ValueError, match=message):
            cond(kind=kind, **{field: value})

    def test_fields_the_kind_reads(self):
        cond(kind=REF_VS_LOC, variant=LOCATING)
        cond(kind=REF_VS_LOC, variant=LOCATING, verb="push", speech=False,
             reverse=True)
        cond(kind=NATURAL, gravity=False)

    def test_ref_vs_loc_reads_the_verb(self):
        # ref-vs-loc once refused any verb but "place"; the verb is now its tag
        c = cond(kind=REF_VS_LOC, verb="push")
        assert c.verb == "push"
        assert c.descriptor().endswith("/push")

    def test_the_matched_cone_angle_is_held(self):
        # an angle within 1e-9 degrees of an allowed one is held as that one
        c = Condition(kind=REF_VS_LOC, cone_vertex_angle=math.radians(67.5) + 1e-12)
        assert c.cone_vertex_angle == math.radians(67.5)

    def test_descriptor_round_trips_flags(self):
        c = cond(deg=67.5, variant=LOCATING, verb="push", reverse=True,
                 speech=False, robot="kuka")
        assert c.descriptor() == "ref_vs_loc/locating/67.5deg/kuka/nospeech/reverse/push"


class TestGenerate:
    def test_counts_and_determinism(self):
        c = cond(deg=45.0)
        a = generate_trials(c, 8, 7)
        b = generate_trials(c, 8, 7)
        assert len(a.trials) == 8
        assert dump(a) == dump(b)
        assert dump(a) != dump(generate_trials(c, 8, 8))

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="^n must be a positive multiple of 4, got 6$"):
            generate_trials(cond(), 6, 0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_natural_rejects_non_positive_count(self, n):
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            generate_trials(cond(kind=NATURAL), n, 0)

    @pytest.mark.parametrize("n", [3, 8])
    def test_natural_ignores_positive_count(self, n):
        assert len(generate_trials(cond(kind=NATURAL), n, 0).trials) == 3

    def test_mug_positions_inside_section(self):
        for deg in (45.0, 67.5, 90.0):
            c = cond(deg=deg)
            tset = generate_trials(c, 8, 3)
            trials, ray = tset.trials, tset.act.ray
            ellipse = cone_plane_section(ray, math.radians(deg),
                                         tuple(trials)[0].scene.surface)
            for t in trials:
                mug = t.scene.object_by_id("mug")
                assert contains(ellipse, mug.pose.position, slack=1e-9)

    def test_referential_scene_has_guide_cube(self):
        t = tuple(generate_trials(cond(), 8, 0).trials)[0]
        ids = {o.id for o in t.scene.objects}
        assert ids == {"mug", "red_cube"}
        assert t.shown == "mug"

    def test_locating_shown_is_point(self):
        t = tuple(generate_trials(cond(variant=LOCATING), 8, 0).trials)[0]
        assert isinstance(t.shown, SurfacePoint)

    def test_reverse_swaps_target(self):
        fwd = generate_trials(cond(), 8, 0)
        rev = generate_trials(cond(reverse=True), 8, 0)
        assert fwd.act.target != rev.act.target

    def test_cluttered_nearer_labeling(self):
        trials = generate_trials(cond(kind=CLUTTERED, deg=67.5), 16, 11)
        x_star = trials.act.target
        for t in trials.trials:
            obj = t.scene.object_by_id("mug_object").pose.position
            dis = t.scene.object_by_id("mug_distractor").pose.position
            near_id = ("mug_object"
                       if surface_distance(obj, x_star) <= surface_distance(dis, x_star)
                       else "mug_distractor")
            assert t.shown == near_id

    @pytest.mark.parametrize("robot", sorted(harness.ROBOTS))
    @pytest.mark.parametrize("deg", [45.0, 67.5, 90.0])
    def test_cluttered_extent_covers_every_pair(self, deg, robot):
        # the extent is fitted without the pairs, yet equals the one fitted
        # over every pair point as well
        n = 400
        for seed in (0, 1, 7, 123456789, 2**64 + 1):
            tset = generate_trials(cond(kind=CLUTTERED, deg=deg, robot=robot), n, seed)
            ellipse = cone_plane_section(tset.act.ray, tset.condition.cone_vertex_angle,
                                         Plane.horizontal(harness.TABLE_EXTENT))
            d_full = 2.0 * ellipse.semi_major
            far = [ellipse.from_local(s * 1.5 * d_full, 0.0) for s in (-1.0, 1.0)]
            pairs = [cluttered_pair(ellipse, rng) for rng in substreams(seed, n)]
            points = [p for pair in pairs for p in (pair.x_object, pair.x_distractor)]
            assert tset.scene.surface.extent == harness._fit_extent(
                harness._ellipse_bbox(ellipse) + far + points + [tset.act.target])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("variant", [REFERENTIAL, LOCATING])
    @pytest.mark.parametrize("robot", sorted(harness.ROBOTS))
    @pytest.mark.parametrize("deg", [45.0, 67.5, 90.0])
    def test_ref_vs_loc_extent_covers_every_position(self, deg, robot, variant, reverse):
        # the extent is fitted from the largest drawn |u| and |v|, quantized
        # once, yet equals the one fitted over every quantized position
        n = 400
        for seed in (0, 1, 7, 2**64 + 1):
            tset = generate_trials(cond(deg=deg, robot=robot, variant=variant,
                                        reverse=reverse), n, seed)
            ellipse = cone_plane_section(tset.act.ray, tset.condition.cone_vertex_angle,
                                         Plane.horizontal(harness.TABLE_EXTENT))
            positions = [harness._qp(p) for p in sample_positions(ellipse, n, seed)]
            cube = tset.scene.object_by_id("red_cube").pose.position
            assert tset.scene.surface.extent == harness._fit_extent(
                harness._ellipse_bbox(ellipse) + positions
                + [harness.X_INIT, harness.X_FINAL, cube, tset.act.target])

    def test_natural_three_distinct_configs(self):
        # a natural trial shows the point of its configuration, whose label
        # ends the trial's id
        trials = tuple(generate_trials(cond(kind=NATURAL), 3, 0).trials)
        assert [t.id.rpartition("-")[2] for t in trials] == ["top", "edge", "table"]
        assert [t.shown for t in trials] == list(harness.NATURAL_CONFIGS.values())
        assert all(type(t.shown) is SurfacePoint for t in trials)

    def test_a_set_holds_at_least_one_trial(self, tmp_path):
        # an empty set is refused by the writer, so no trials file is
        # written that the reader refuses
        tset = generate_trials(cond(), 4, 0)
        out = tmp_path / "t.jsonl"
        with pytest.raises(DeixisError, match="^a trial set holds at least one trial$"):
            corpus.save_trials(replace(tset, trials=()), str(out), seed=0)
        assert not out.exists()

    def test_robot_changes_ray(self):
        plane = tuple(generate_trials(cond(), 8, 0).trials)[0].scene.surface
        rb = pointer_ray(SurfacePoint(0, 0), plane, "baxter")
        rk = pointer_ray(SurfacePoint(0, 0), plane, "kuka")
        assert rb != rk


class TestRun:
    def test_preserves_count_and_order(self):
        trials = generate_trials(cond(deg=67.5), 8, 2)
        records = run(trials)
        assert [r.trial_id for r in records] == [t.id for t in trials.trials]

    def test_referential_all_correct(self):
        for deg in (45.0, 67.5, 90.0):
            records = run(generate_trials(cond(deg=deg), 8, 5))
            assert all(r.predicted == "correct" for r in records)

    @pytest.mark.parametrize("variant", [REFERENTIAL, LOCATING])
    def test_the_verb_and_speech_change_no_prediction(self, variant):
        # they are ref-vs-loc tags: only the descriptor, and so the ids and
        # `meta.condition`, tell a tagged set from an untagged one
        plain = cond(deg=67.5, variant=variant)
        tagged = replace(plain, verb="push", speech=False)
        a, b = (run(generate_trials(c, 8, 3)) for c in (plain, tagged))
        assert [r.predicted for r in a] == [r.predicted for r in b]
        assert ([{**r.meta, "condition": None} for r in a]
                == [{**r.meta, "condition": None} for r in b])
        assert b[0].meta["condition"] == tagged.descriptor()

    def test_locating_rule(self):
        cfg = ResolverConfig()
        trials = generate_trials(cond(variant=LOCATING, deg=90.0), 16, 5)
        for t, r in zip(trials.trials, run(trials, cfg)):
            d = surface_distance(t.shown, trials.act.target)
            if r.predicted == "correct":
                assert d <= r.meta["theta"] + cfg.epsilon + 1e-9

    @pytest.mark.parametrize("robot", sorted(harness.ROBOTS))
    @pytest.mark.parametrize("deg", [45.0, 67.5, 90.0])
    def test_cluttered_labels_follow_the_theta_epsilon_rule(self, deg, robot):
        # candidates -> resolve -> classify_outcome on the two mugs gives the
        # cluttered label on every trial of a sweep set at the byte-stability
        # seed, `correct` read as `nearer`
        cfg = ResolverConfig()
        tset = generate_trials(cond(kind=CLUTTERED, deg=deg, robot=robot), 4000, 1)
        x_star, labels = tset.act.target, []
        for t in tset.trials:
            res = resolve(candidates(t.scene, REFERENTIAL), x_star, cfg)
            label = classify_outcome(res, t.shown, x_star, cfg)
            labels.append(NEARER if label == CORRECT else label)
        assert labels == [r.predicted for r in run(tset, cfg)]

    def test_natural_gravity_contrast(self):
        # each record is labelled by its configuration, the end of its id
        on = {r.trial_id.rpartition("-")[2]: r.predicted
              for r in run(generate_trials(cond(kind=NATURAL), 3, 0))}
        off = {r.trial_id.rpartition("-")[2]: r.predicted
               for r in run(generate_trials(cond(kind=NATURAL, gravity=False), 3, 0))}
        assert on["top"] == "correct"
        assert on["edge"] != "correct" and on["table"] != "correct"
        assert off["edge"] == "correct"
        assert off["top"] != "correct" and off["table"] != "correct"


class TestAggregate:
    def test_all_correct_single_group(self):
        records = run(generate_trials(cond(), 8, 1))
        agg = harness.aggregate(records, group_by="condition")
        assert len(agg.rows) == 1
        (_, counts), = agg.rows
        assert counts[agg.labels.index("correct")] == sum(counts) == len(records)

    def test_hand_count(self):
        records = [ResponseRecord("t0", "correct"), ResponseRecord("t1", "correct"),
                   ResponseRecord("t2", "ambiguous")]
        agg = harness.aggregate(records, group_by="condition")
        (_, counts), = agg.rows
        assert counts[agg.labels.index("correct")] == 2
        assert counts[agg.labels.index("ambiguous")] == 1

    def test_empty_input(self):
        with pytest.raises(DeixisError, match="^no records to aggregate$"):
            harness.aggregate([])
        with pytest.raises(DeixisError, match="^no records to aggregate$"):
            harness.aggregate(iter([]))
        with pytest.raises(ValueError):
            harness.aggregate([ResponseRecord("t", "correct")], group_by="verb")


class TestToContingency:
    def test_table1_edge_rows(self):
        natural, unnatural = corpus.load_table1_fixture()
        i = natural.row_labels.index("edge")
        assert unnatural.counts[i] == (24, 2, 4)
        assert natural.counts[i] == (9, 11, 10)
