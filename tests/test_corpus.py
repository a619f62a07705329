import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from deixis import corpus, harness
from deixis.errors import SchemaError
from deixis.harness import Condition, ResponseRecord
from deixis.resolver import LOCATING
from deixis.scene import Pose2D, Scene, SceneObject


FIXTURES = Path(__file__).parent / "fixtures"


def make_trials(n=8, seed=7, variant="referential", cone=67.5):
    cond = Condition(kind=harness.REF_VS_LOC, variant=variant,
                     cone_vertex_angle=math.radians(cone))
    return harness.generate_trials(cond, n, seed)


class TestTrialRoundTrip:
    def test_load_save_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trials = make_trials()
        corpus.save_trials(trials, str(p1), seed=7)
        loaded = corpus.load_trials(str(p1))
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()
        assert corpus.load_trials(str(p2)) == loaded

    def test_round_trip_preserves_semantics(self, tmp_path):
        p = tmp_path / "t.jsonl"
        trials = make_trials(variant=LOCATING)
        corpus.save_trials(trials, str(p), seed=7)
        loaded = corpus.load_trials(str(p))
        assert len(loaded) == len(trials)
        for a, b in zip(trials, loaded):
            assert a.id == b.id
            assert a.condition == b.condition
            assert a.scene == b.scene
            assert a.shown == b.shown
            assert a.point_act.target == b.point_act.target
        # predictions are identical either way
        assert [r.predicted for r in harness.run(trials)] == \
               [r.predicted for r in harness.run(loaded)]

    def test_natural_shown_config_round_trip(self, tmp_path):
        p = tmp_path / "n.jsonl"
        trials = harness.generate_trials(Condition(kind=harness.NATURAL), 3, 0)
        corpus.save_trials(trials, str(p), seed=0)
        assert corpus.load_trials(str(p)) == trials


def cluttered_trials(n=8, seed=7):
    cond = Condition(kind=harness.CLUTTERED, cone_vertex_angle=math.radians(67.5))
    return harness.generate_trials(cond, n, seed)


def records_of(path):
    return [json.loads(line) for line in path.read_text().splitlines()[1:]]


class TestTrialsV2:
    def test_locating_records_carry_no_scene(self, tmp_path):
        p = tmp_path / "l.jsonl"
        corpus.save_trials(make_trials(variant=LOCATING), str(p), seed=7)
        header = json.loads(p.read_text().splitlines()[0])
        assert header["schema"] == "deixis-trials-2"
        assert set(header["context"]) == {"condition", "act", "surface",
                                          "gravity", "objects"}
        assert all(set(rec) == {"id", "shown"} for rec in records_of(p))

    @pytest.mark.parametrize("trials, moved", [
        (make_trials(), [["position"], []]),
        (cluttered_trials(), [["position"], ["position"]])])
    def test_discrete_records_carry_only_mug_positions(self, tmp_path, trials, moved):
        p = tmp_path / "d.jsonl"
        corpus.save_trials(trials, str(p), seed=7)
        for rec in records_of(p)[1:]:
            assert set(rec) == {"id", "shown", "objects"}
            assert [sorted(od) for od in rec["objects"]] == moved

    @pytest.mark.parametrize("trials", [make_trials(variant=LOCATING),
                                        cluttered_trials()])
    def test_round_trip_is_equal_and_byte_stable(self, tmp_path, trials):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_trials(trials, str(p1), seed=7)
        loaded = corpus.load_trials(str(p1))
        assert loaded == trials
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_trials_share_the_context(self, tmp_path):
        p = tmp_path / "s.jsonl"
        corpus.save_trials(make_trials(variant=LOCATING), str(p), seed=7)
        loaded = corpus.load_trials(str(p))
        assert all(t.scene is loaded[0].scene and t.point_act is loaded[0].point_act
                   and t.condition is loaded[0].condition for t in loaded)
        p_ref = tmp_path / "r.jsonl"
        corpus.save_trials(make_trials(), str(p_ref), seed=7)
        ref = corpus.load_trials(str(p_ref))
        assert ref[1].scene is not ref[0].scene
        assert ref[1].scene.objects[1] is ref[0].scene.objects[1]  # the cube

    def test_every_part_may_differ_from_the_context(self, tmp_path):
        loc = make_trials(n=4, variant=LOCATING)
        natural = harness.generate_trials(
            Condition(kind=harness.NATURAL, gravity=False), 3, 0)
        first = loc[0]
        extra = SceneObject("extra_mug", harness.MUG, Pose2D(harness.X_FINAL))
        mixed = (loc + natural + cluttered_trials(n=4)
                 + [replace(first, id="one-object",
                            scene=Scene(first.scene.surface, first.scene.objects[:1])),
                    replace(first, id="three-objects",
                            scene=Scene(first.scene.surface,
                                        first.scene.objects + (extra,)))])
        p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        corpus.save_trials(mixed, str(p1), seed=1)
        loaded = corpus.load_trials(str(p1))
        assert loaded == mixed
        corpus.save_trials(loaded, str(p2), seed=1)
        assert p1.read_bytes() == p2.read_bytes()
        recs = {rec["id"]: rec for rec in records_of(p1)}
        assert recs["one-object"]["objects"] == [{}]
        assert recs["three-objects"]["objects"][:2] == [{}, {}]
        assert recs["three-objects"]["objects"][2]["id"] == "extra_mug"

    def test_v1_fixture_loads_equal_to_v2(self, tmp_path):
        p = tmp_path / "v2.jsonl"
        corpus.save_trials(make_trials(variant=LOCATING, cone=45.0), str(p), seed=7)
        v1 = corpus.load_trials(str(FIXTURES / "locating-45-n8-seed7.v1.jsonl"))
        assert v1 == corpus.load_trials(str(p))
        p_again = tmp_path / "again.jsonl"
        corpus.save_trials(v1, str(p_again), seed=7)
        assert p_again.read_bytes() == p.read_bytes()


class TestResponsesRoundTrip:
    def test_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        records = harness.run(make_trials())
        corpus.save_responses(records, str(p1))
        corpus.save_responses(corpus.load_responses(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()



def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _path_id(param):
    return "/".join(map(str, param)) if isinstance(param, tuple) else repr(param)

class TestSchemaErrors:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        with pytest.raises(SchemaError):
            corpus.load_trials(str(p))

    def test_unknown_schema(self, tmp_path):
        p = tmp_path / "u.jsonl"
        p.write_text('{"schema":"mystery-9","count":0}\n')
        with pytest.raises(SchemaError, match="schema"):
            corpus.load_trials(str(p))

    def test_malformed_record_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        trials = make_trials(n=4)
        corpus.save_trials(trials, str(p), seed=7)
        lines = p.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate one record
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=":3"):
            corpus.load_trials(str(p))

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "c.jsonl"
        trials = make_trials(n=4)
        corpus.save_trials(trials, str(p), seed=7)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError, match="count|declares"):
            corpus.load_trials(str(p))

    @pytest.mark.parametrize("context", [None, [], "scene", 3])
    def test_missing_or_non_object_context(self, tmp_path, context):
        p = tmp_path / "c.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        if context is None:
            del header["context"]
        else:
            header["context"] = context
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match=r"c\.jsonl:1: .*context"):
            corpus.load_trials(str(p))

    def test_incomplete_context(self, tmp_path):
        p = tmp_path / "i.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        del header["context"]["surface"]
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match=r"i\.jsonl:1: bad context"):
            corpus.load_trials(str(p))

    def test_object_past_the_context_needs_every_field(self, tmp_path):
        p = tmp_path / "o.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["objects"] = [{}, {}, {"position": [0.3, 0.2]}]
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"o\.jsonl:3: bad trial record"):
            corpus.load_trials(str(p))

    @pytest.mark.parametrize("line", ['["objects"]', '"id"', "7", "null"])
    def test_non_object_record(self, tmp_path, line):
        p = tmp_path / "n.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        lines[3] = line
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"n\.jsonl:4: "):
            corpus.load_trials(str(p))

    @pytest.mark.parametrize("path, value", [
        (("gravity",), "no"), (("condition", "speech"), "yes"),
        (("condition", "reverse"), 0), (("condition", "robot"), ["baxter"]),
        (("condition", "cone_deg"), True), (("act", "intent"), 1),
        (("act", "target"), [0.1, None]),
        (("surface", "extent"), [1.2, float("inf")]),
        (("objects", 1, "kind"), 7), (("objects", 1, "height"), "0.16"),
        (("objects", 1, "support"), None),
        (("objects", 1, "half_extents"), [0.08, False])], ids=_path_id)
    def test_wrongly_typed_context_field(self, tmp_path, path, value):
        p = tmp_path / "c.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        _set(header["context"], path, value)
        lines[0] = json.dumps(header)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"c\.jsonl:1: bad context"):
            corpus.load_trials(str(p))

    @pytest.mark.parametrize("path, value", [
        (("id",), 3), (("gravity",), 1), (("shown", "type"), ["object"]),
        (("shown", "id"), False), (("shown", "type"), "nowhere"),
        (("objects", 0, "position"), [True, 0.0]),
        (("objects", 0, "position"), [float("nan"), 0.0]),
        (("objects", 0, "position"), [0.1, 0.0, 0.0]),
        (("objects", 0, "id"), None), (("objects", 0, "yaw_deg"), "0")],
        ids=_path_id)
    def test_wrongly_typed_record_field(self, tmp_path, path, value):
        p = tmp_path / "r.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        rec = json.loads(lines[2])
        _set(rec, path, value)
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"r\.jsonl:3: bad trial record"):
            corpus.load_trials(str(p))

    def test_responses_wrong_schema(self, tmp_path):
        p = tmp_path / "w.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        with pytest.raises(SchemaError):
            corpus.load_responses(str(p))


class TestTable1Fixture:
    def test_rows(self):
        natural, unnatural = corpus.load_table1_fixture()
        assert natural.row_labels == ("top", "edge", "table")
        assert natural.counts[0] == (26, 3, 1)
        assert unnatural.counts == ((12, 9, 9), (24, 2, 4), (2, 2, 26))

    def test_row_sums_match_published_counts(self):
        natural, unnatural = corpus.load_table1_fixture()
        assert unnatural.row_sums == (30, 30, 30)
        # the published natural "table" row sums to 32 despite the table's
        # out-of-30 caption; the fixture keeps the printed counts
        assert natural.row_sums == (30, 30, 32)
