import gc
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from deixis import corpus, harness
from deixis.errors import DeixisError
from deixis.geometry import SurfacePoint
from deixis.harness import Condition, ResponseRecord
from deixis.resolver import LOCATING


FIXTURES = Path(__file__).parent / "fixtures"


def held(loaded):
    """A loaded trial set or responses, read to the end: the set with its
    trials in a tuple, or the records in a list."""
    if isinstance(loaded, harness.TrialSet):
        return replace(loaded, trials=tuple(loaded.trials))
    return list(loaded)


def make_trials(n=8, seed=7, variant="referential", cone=67.5):
    cond = Condition(kind=harness.REF_VS_LOC, variant=variant,
                     cone_vertex_angle=math.radians(cone))
    return harness.generate_trials(cond, n, seed)


class TestTrialRoundTrip:
    def test_load_save_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trials = make_trials()
        corpus.save_trials(trials, str(p1), seed=7)
        loaded = held(corpus.load_trials(str(p1)))
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()
        reloaded = held(corpus.load_trials(str(p2)))
        assert reloaded == loaded
        assert tuple(reloaded.trials) == tuple(loaded.trials)

    def test_round_trip_preserves_semantics(self, tmp_path):
        p = tmp_path / "t.jsonl"
        trials = make_trials(variant=LOCATING)
        corpus.save_trials(trials, str(p), seed=7)
        loaded = held(corpus.load_trials(str(p)))
        assert len(loaded.trials) == len(trials.trials)
        assert loaded.condition == trials.condition
        assert loaded.act.target == trials.act.target
        for a, b in zip(trials.trials, loaded.trials):
            assert a.id == b.id
            assert a.scene == b.scene
            assert a.shown == b.shown
        # predictions are identical either way
        assert [r.predicted for r in harness.run(trials)] == \
               [r.predicted for r in harness.run(loaded)]

    def test_natural_shown_config_round_trip(self, tmp_path):
        p = tmp_path / "n.jsonl"
        trials = harness.generate_trials(Condition(kind=harness.NATURAL), 3, 0)
        corpus.save_trials(trials, str(p), seed=0)
        loaded = held(corpus.load_trials(str(p)))
        assert loaded == trials
        assert tuple(loaded.trials) == tuple(trials.trials)


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
        loaded = held(corpus.load_trials(str(p1)))
        assert loaded == trials
        assert tuple(loaded.trials) == tuple(trials.trials)
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        p = tmp_path / "b.jsonl"
        trials = make_trials()
        corpus.save_trials(trials, str(p), seed=7)
        lines = p.read_text().splitlines()
        p.write_text("\n".join([*lines[:3], "", *lines[3:5], " \t", *lines[5:]]) + "\n")
        loaded = held(corpus.load_trials(str(p)))
        assert loaded == trials
        assert tuple(loaded.trials) == tuple(trials.trials)

    def test_loaded_trials_share_the_context(self, tmp_path):
        p = tmp_path / "s.jsonl"
        corpus.save_trials(make_trials(variant=LOCATING), str(p), seed=7)
        loaded = held(corpus.load_trials(str(p)))
        assert all(t.scene is loaded.scene for t in loaded.trials)
        p_ref = tmp_path / "r.jsonl"
        corpus.save_trials(make_trials(), str(p_ref), seed=7)
        ref = held(corpus.load_trials(str(p_ref))).trials
        assert ref[1].scene is not ref[0].scene
        assert ref[1].scene.objects[1] is ref[0].scene.objects[1]  # the cube

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(condition={"robot": "kuka"}), "unexpected field 'condition'"),
        (lambda r: r.update(act={"intent": "referential"}), "unexpected field 'act'"),
        (lambda r: r.update(surface={"extent": [2.0, 2.5]}), "unexpected field 'surface'"),
        (lambda r: r.update(gravity=False), "unexpected field 'gravity'"),
        (lambda r: r.update(gravty=True), "unexpected field 'gravty'"),
        (lambda r: r.update(objects=[{}]), r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=[{}, {}, {"position": [0.3, 0.2]}]),
         r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=None), r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=[{"id": "cup"}, {}]),
         r"objects\[0\] must be \{\} or hold only a position"),
        (lambda r: r.update(objects=[{}, {"position": [0.3, 0.2], "yaw_deg": 30}]),
         r"objects\[1\] must be \{\} or hold only a position"),
        (lambda r: r.update(objects=[[0.3, 0.2], {}]),
         r"objects\[0\] must be \{\} or hold only a position"),
    ], ids=["condition", "act", "surface", "gravity", "misspelled", "one-object",
            "three-objects", "null-objects", "renamed", "yawed", "bare-position"])
    def test_a_record_holds_only_id_shown_and_positions(self, tmp_path, edit, message):
        p = tmp_path / "o.jsonl"
        corpus.save_trials(make_trials(n=4, variant=LOCATING), str(p), seed=7)
        lines = p.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=rf"^{re.escape(str(p))}:3: "
                                              rf"bad trial record: {message}"):
            held(corpus.load_trials(str(p)))


class TestResponsesRoundTrip:
    def test_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        records = harness.run(make_trials())
        corpus.save_responses(records, str(p1))
        corpus.save_responses(corpus.load_responses(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_long_positions_are_written_quantized(self, tmp_path):
        # every position and x* carries more than 9 significant digits
        def nudge(p):
            return SurfacePoint(p.u + 1.23456789012e-4, p.v - 9.87654321098e-5)

        records = []
        for tset in (make_trials(n=4), make_trials(n=4, variant=LOCATING),
                     cluttered_trials(n=4),
                     harness.generate_trials(Condition(kind=harness.NATURAL), 3, 0)):
            cases = []
            for t in tset.trials:
                shown = t.shown
                if isinstance(shown, SurfacePoint):
                    shown = nudge(shown)
                elif isinstance(shown, harness.ShownConfig):
                    shown = replace(shown, position=nudge(shown.position))
                moves = None
                if tset.condition.kind in (harness.REF_VS_LOC, harness.CLUTTERED):
                    moves = {i: nudge(o.pose.position)
                             for i, o in enumerate(t.scene.objects)}
                cases.append((t.id, moves, shown))
            act = replace(tset.act, target=nudge(tset.act.target))
            assert harness._q(act.target.u) != act.target.u
            records += harness.run(harness.TrialSet(
                tset.condition, act, tset.scene,
                tuple(harness.make_trials(tset.scene, cases))))
        p, q = tmp_path / "r.jsonl", tmp_path / "q.jsonl"
        corpus.save_responses(records, str(p))
        corpus.save_responses([replace(r, meta=corpus._quantize(r.meta))
                               for r in records], str(q))
        assert p.read_bytes() == q.read_bytes()


def locating_records(n=8, seed=7):
    return harness.run(make_trials(n=n, seed=seed, variant=LOCATING, cone=45.0))


def natural_records():
    return harness.run(harness.generate_trials(Condition(kind=harness.NATURAL), 3, 0))


def with_human(records, labels):
    return [replace(r, human=h) for r, h in zip(records, labels)]


def same_records(a, b):
    """Records equal in id, labels and meta; `ResponseRecord` equality
    leaves `meta` out."""
    return ([(r.trial_id, r.predicted, r.human, r.meta) for r in a]
            == [(r.trial_id, r.predicted, r.human, r.meta) for r in b])


class TestResponsesV2:
    @pytest.mark.parametrize("records", [
        [], locating_records()[:1], locating_records(n=4000, seed=1),
        harness.run(make_trials(n=4)) + locating_records(n=4) + natural_records()
        + harness.run(cluttered_trials(n=4)),
        with_human(locating_records(), ["correct", None, "ambiguous", "correct",
                                        "incorrect", None, None, "correct"]),
        harness.run(make_trials())],
        ids=["empty", "one", "n4000", "mixed-conditions", "varying-human",
             "all-correct"])
    def test_round_trip_is_equal_and_byte_stable(self, tmp_path, records):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_responses(records, str(p1))
        loaded = held(corpus.load_responses(str(p1)))
        assert same_records(loaded, records)
        corpus.save_responses(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_context_holds_what_every_record_shares(self, tmp_path):
        p = tmp_path / "l.jsonl"
        records = locating_records()
        corpus.save_responses(records, str(p))
        header = json.loads(p.read_text().splitlines()[0])
        assert header["schema"] == "deixis-responses-2"
        assert header["id_prefix"] == "ref_vs_loc-locating-45deg-baxter-00"
        assert header["context"] == {
            "human": None, "meta": {"condition": "ref_vs_loc/locating/45deg/baxter",
                                    "path": "stable", "theta": 0.0,
                                    "x_star": [-0.2, -0.15]}}
        recs = records_of(p)
        assert [r["trial_id"] for r in recs] == [str(i) for i in range(8)]
        assert all(set(r) == {"trial_id", "predicted", "meta"}
                   and set(r["meta"]) == {"distance", "probe"} for r in recs)

    def test_all_equal_label_and_varying_human(self, tmp_path):
        p = tmp_path / "h.jsonl"
        records = with_human(harness.run(make_trials(n=4)), ["a", None, "a", "a"])
        assert {r.predicted for r in records} == {"correct"}
        corpus.save_responses(records, str(p))
        context = json.loads(p.read_text().splitlines()[0])["context"]
        assert context["predicted"] == "correct" and "human" not in context
        assert [r.get("human", "absent") for r in records_of(p)] == ["a", None, "a", "a"]

    def test_loaded_records_share_the_context_values(self, tmp_path):
        p = tmp_path / "s.jsonl"
        corpus.save_responses(locating_records(), str(p))
        loaded = held(corpus.load_responses(str(p)))
        assert all(r.meta["x_star"] is loaded[0].meta["x_star"] for r in loaded)
        assert loaded[0].meta is not loaded[1].meta

    def test_signed_zero_and_int_stay_out_of_the_context(self, tmp_path):
        records = locating_records(n=4)
        records[1].meta["theta"] = -0.0
        records[2].meta["theta"] = 0
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_responses(records, str(p1))
        assert "theta" not in json.loads(p1.read_text().splitlines()[0])["context"]["meta"]
        loaded = held(corpus.load_responses(str(p1)))
        assert [corpus._ENCODER.encode(r.meta["theta"]) for r in loaded] == \
               ["0.0", "-0.0", "0", "0.0"]
        corpus.save_responses(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_mixed_fixture_is_a_fresh_run(self, tmp_path):
        # the one file of two trial sets: it saves back to its own bytes, and
        # the same trials run today give the same records plus `meta.path`
        fixture = FIXTURES / "natural-and-locating-45-n8-seed7.responses.jsonl"
        mixed = held(corpus.load_responses(str(fixture)))
        p = tmp_path / "again.jsonl"
        corpus.save_responses(mixed, str(p))
        assert p.read_bytes() == fixture.read_bytes()
        fresh = natural_records() + locating_records()
        assert [r.meta.pop("path") for r in fresh] == ["enumerated"] * 3 + ["stable"] * 8
        assert same_records(fresh, mixed)


class TestSame:
    @pytest.mark.parametrize("a, b", [
        (0.0, -0.0), (1, 1.0), (True, 1), (False, 0), ([0.0, 1.0], [-0.0, 1.0]),
        ({"u": 1}, {"u": 1.0}), ([1, 2], (1, 2)), (None, 0), ("1", 1)])
    def test_values_written_differently(self, a, b):
        assert not corpus._same(a, b) and not corpus._same(b, a)

    @pytest.mark.parametrize("a, b", [
        (0.0, 0.0), (-0.0, -0.0), (0.1, float("0.1")), (3, 3), (True, True),
        (None, None), ("s", "s"), ([0.5, [1, None]], [0.5, [1, None]]),
        ((0.25, -0.0), (0.25, -0.0)), ({"a": [1.5], "b": "x"}, {"b": "x", "a": [1.5]})])
    def test_values_written_alike(self, a, b):
        assert corpus._same(a, b)
        assert corpus._ENCODER.encode(a) == corpus._ENCODER.encode(b)


class TestTrialsExactValues:
    """A field whose value equals the context's by `==` but is written
    differently (-0.0 against 0.0, 1 against 1.0) survives the round trip."""

    def mug_at(self, u, v):
        """A two-trial referential set whose context mug stands at (0.0,
        0.0): the first trial moves it there, the second to (u, v)."""
        t = make_trials(n=4)
        cases = [(trial.id, {0: SurfacePoint(*position)}, trial.shown)
                 for trial, position in zip(t.trials, [(0.0, 0.0), (u, v)])]
        scene = t.scene.moved({0: SurfacePoint(0.0, 0.0)})
        return harness.TrialSet(t.condition, t.act, scene,
                                tuple(harness.make_trials(scene, cases)))

    @pytest.mark.parametrize("u, v", [(-0.0, 0.0), (0, 0)], ids=["signed-zero", "int"])
    def test_round_trip_keeps_the_value(self, tmp_path, u, v):
        trials = self.mug_at(u, v)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_trials(trials, str(p1), seed=7)
        loaded = held(corpus.load_trials(str(p1)))
        position = loaded.trials[1].scene.objects[0].pose.position
        assert corpus._ENCODER.encode([position.u, position.v]) == \
               corpus._ENCODER.encode([u, v])
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_signed_zero_probe_matches_a_direct_run(self, tmp_path):
        trials = self.mug_at(-0.0, 0.0)
        p = tmp_path / "t.jsonl"
        corpus.save_trials(trials, str(p), seed=7)
        direct, from_file = tmp_path / "d.jsonl", tmp_path / "f.jsonl"
        corpus.save_responses(harness.run(trials), str(direct))
        corpus.save_responses(harness.run(corpus.load_trials(str(p))), str(from_file))
        assert direct.read_bytes() == from_file.read_bytes()
        probe = held(corpus.load_responses(str(direct)))[1].meta["probe"]
        assert corpus._ENCODER.encode(probe) == "[-0.0,0.0]"


def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _path_id(param):
    return "/".join(map(str, param)) if isinstance(param, tuple) else repr(param)

class TestSchemaErrors:
    # a responses header for one record whose context shares nothing
    HEADER = ('{"schema":"deixis-responses-2","count":1,"id_prefix":"",'
              '"context":{"meta":{}}}\n')

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        with pytest.raises(DeixisError, match=r"e\.jsonl:1: empty corpus file$"):
            corpus.load_trials(str(p))

    def test_unknown_schema(self, tmp_path):
        p = tmp_path / "u.jsonl"
        p.write_text('{"schema":"mystery-9","count":0}\n')
        with pytest.raises(DeixisError, match=r"u\.jsonl:1: unknown schema 'mystery-9'$"):
            corpus.load_trials(str(p))

    def test_malformed_record_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        trials = make_trials(n=4)
        corpus.save_trials(trials, str(p), seed=7)
        lines = p.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate one record
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=r"m\.jsonl:3: malformed record: "):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("line", ['{"a":' * 100_000, "[" * 100_000],
                             ids=["deep-object", "deep-array"])
    def test_a_deep_line_leaves_the_collector_room(self, tmp_path, line):
        # the collector runs finalizers and its callbacks at whatever depth
        # an allocation triggers it, so decoding a line must never take the
        # stack near the interpreter's recursion limit
        p = tmp_path / "d.jsonl"
        p.write_text(self.HEADER + line + "\n")
        short = []

        def room(phase, info):
            def down(n):
                return n and down(n - 1)
            try:
                down(100)
            except RecursionError:
                short.append(phase)

        threshold = gc.get_threshold()
        gc.callbacks.append(room)
        gc.set_threshold(1)  # collect on every allocation
        try:
            with pytest.raises(DeixisError, match=r"d\.jsonl:2: malformed record: "):
                held(corpus.load_responses(str(p)))
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(room)
        assert not short

    @pytest.mark.parametrize("lists", [30, 31])
    def test_nesting_up_to_the_limit_loads(self, tmp_path, lists):
        # the record and its meta are two levels
        p = tmp_path / "n.jsonl"
        p.write_text(self.HEADER + '{"trial_id":"x","predicted":"correct","human":null,'
                     '"meta":{"k":%s}}\n' % ("[" * lists + "]" * lists))
        if lists + 2 <= corpus.MAX_NESTING:
            [record] = corpus.load_responses(str(p))
            assert record.meta["k"] == json.loads("[" * lists + "]" * lists)
        else:
            with pytest.raises(DeixisError, match=r"n\.jsonl:2: malformed record: "
                                                  r"nested deeper than 32 levels$"):
                held(corpus.load_responses(str(p)))

    def test_brackets_inside_strings_do_not_nest(self, tmp_path):
        p = tmp_path / "s.jsonl"
        trial_id = "[{" * 100 + '\\"' + "}]" * 100
        p.write_text(self.HEADER + json.dumps(
            {"trial_id": trial_id, "predicted": "correct", "human": None}) + "\n")
        [record] = corpus.load_responses(str(p))
        assert record.trial_id == trial_id

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "c.jsonl"
        trials = make_trials(n=4)
        corpus.save_trials(trials, str(p), seed=7)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DeixisError, match=r"c\.jsonl:1: header declares 4 records, found 3$"):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("count, message", [
        ("3", "header count must be a non-negative integer, got '3'"),
        (3.0, "header count must be a non-negative integer, got 3.0"),
        (None, "header count must be a non-negative integer, got None"),
        (True, "header count must be a non-negative integer, got True"),
        (-1, "header count must be a non-negative integer, got -1"),
        (4, "header declares 4 records, found 3"),
        ("missing", "header count must be a non-negative integer, got None")],
        ids=["string", "float", "null", "true", "negative", "too-many", "missing"])
    @pytest.mark.parametrize("kind", ["trials", "responses"])
    def test_header_count_is_the_record_count(self, tmp_path, kind, count, message):
        p = tmp_path / "c.jsonl"
        trials = harness.generate_trials(Condition(kind=harness.NATURAL), 3, 0)
        if kind == "trials":
            corpus.save_trials(trials, str(p), seed=0)
        else:
            corpus.save_responses(harness.run(trials), str(p))
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        if count == "missing":
            del header["count"]
        else:
            header["count"] = count
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        load = corpus.load_trials if kind == "trials" else corpus.load_responses
        with pytest.raises(DeixisError, match=rf"^{re.escape(str(p))}:1: {message}$"):
            held(load(str(p)))

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
        with pytest.raises(DeixisError, match=r"c\.jsonl:1: .*context"):
            corpus.load_trials(str(p))

    def test_incomplete_context(self, tmp_path):
        p = tmp_path / "i.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        del header["context"]["surface"]
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(DeixisError, match=r"i\.jsonl:1: bad context"):
            corpus.load_trials(str(p))

    def test_object_past_the_context_needs_every_field(self, tmp_path):
        p = tmp_path / "o.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["objects"] = [{}, {}, {"position": [0.3, 0.2]}]
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=r"o\.jsonl:3: bad trial record"):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("line", ['["objects"]', '"id"', "7", "null"])
    def test_non_object_record(self, tmp_path, line):
        p = tmp_path / "n.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        lines[3] = line
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=r"n\.jsonl:4: "):
            held(corpus.load_trials(str(p)))

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
        with pytest.raises(DeixisError, match=r"c\.jsonl:1: bad context"):
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
        with pytest.raises(DeixisError, match=r"r\.jsonl:3: bad trial record"):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("position, message", [
        ([0.0, 5.0], "mug lies outside the surface extent"),
        (None, "objects mug and red_cube overlap")])
    def test_moved_mug_off_the_table_or_on_the_cube(self, tmp_path, position, message):
        p = tmp_path / "r.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header, rec = json.loads(lines[0]), json.loads(lines[2])
        assert rec["objects"][1] == {}
        rec["objects"][0]["position"] = (position or
                                         header["context"]["objects"][1]["position"])
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=rf"r\.jsonl:3: bad trial record: {message}"):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("field, value", [
        ("trial_id", [1]), ("trial_id", None), ("predicted", "farther"),
        ("predicted", None), ("human", 3), ("human", ["a"]), ("meta", []),
        ("meta", "probe")] + [
        ("meta", {key: value}) for key in ("theta", "distance", "d_near", "d_far",
                                           "delta", "separation")
        for value in ("0.1", True, math.nan)], ids=_path_id)
    def test_wrongly_typed_response_field(self, tmp_path, field, value):
        p = tmp_path / "w.jsonl"
        corpus.save_responses(harness.run(make_trials(n=4)), str(p))
        lines = p.read_text().splitlines()
        rec = json.loads(lines[3])
        rec[field] = value
        lines[3] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=r"w\.jsonl:4: bad response record"):
            held(corpus.load_responses(str(p)))

    @pytest.mark.parametrize("kind", ["trials", "responses"])
    def test_errors_name_the_physical_line_past_blank_ones(self, tmp_path, kind):
        # two blank lines after the header put the third record on line 6
        p = tmp_path / "b.jsonl"
        trials = make_trials(n=4, variant=LOCATING, cone=45.0)
        if kind == "trials":
            corpus.save_trials(trials, str(p), seed=7)
            edit, message = {"shown": {"type": "bogus"}}, "bad trial record: unknown shown type 'bogus'"
        else:
            corpus.save_responses(harness.run(trials), str(p))
            edit, message = {"predicted": "bogus"}, "bad response record: unknown label 'bogus'"
        lines = p.read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), **edit})
        p.write_text("\n".join([lines[0], "", " \t", *lines[1:]]) + "\n")
        load = corpus.load_trials if kind == "trials" else corpus.load_responses
        with pytest.raises(DeixisError, match=rf"^{re.escape(str(p))}:6: {re.escape(message)}$"):
            held(load(str(p)))

    def test_human_label_may_be_a_string(self, tmp_path):
        p = tmp_path / "h.jsonl"
        corpus.save_responses([ResponseRecord("t", "correct", human="ambiguous",
                                              meta={"condition": "c"})], str(p))
        assert held(corpus.load_responses(str(p)))[0].human == "ambiguous"

    def test_responses_wrong_schema(self, tmp_path):
        p = tmp_path / "w.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        with pytest.raises(DeixisError, match=r"w\.jsonl:1: unknown schema 'deixis-trials-2'$"):
            corpus.load_responses(str(p))


class TestLineEnds:
    r"""Records end at `\n`, and the `\r` of a `\r\n` end is JSON whitespace;
    `TestRun.test_another_break_between_records_exits_1` in test_cli.py
    refuses any other break."""

    def test_crlf_files_load_like_lf_files(self, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        trials = cluttered_trials()
        records = harness.run(trials)
        corpus.save_trials(trials, str(lf), seed=7)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        from_crlf, from_lf = held(corpus.load_trials(str(crlf))), held(corpus.load_trials(str(lf)))
        assert from_crlf == from_lf == trials
        assert tuple(from_crlf.trials) == tuple(from_lf.trials) == tuple(trials.trials)
        corpus.save_responses(records, str(lf))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert same_records(held(corpus.load_responses(str(crlf))), records)


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """A generated n=4000 cluttered 67.5 deg trials file and its responses."""
    work = tmp_path_factory.mktemp("sweep")
    trials = cluttered_trials(n=4000, seed=1)
    corpus.save_trials(trials, str(work / "trials.jsonl"), seed=1)
    corpus.save_responses(harness.run(trials), str(work / "responses.jsonl"))
    return {"trials": work / "trials.jsonl", "responses": work / "responses.jsonl"}


class TestStreamedReads:
    """The loaders read, check and build one record at a time, so a sweep
    file is never held whole, as bytes, text, lines or parsed records."""

    @pytest.mark.parametrize("kind", ["trials", "responses"])
    def test_a_load_holds_little_beyond_what_it_returns(self, sweep_files, kind):
        load = corpus.load_trials if kind == "trials" else corpus.load_responses
        tracemalloc.start()
        try:
            loaded = held(load(str(sweep_files[kind])))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.trials if kind == "trials" else loaded) == 4000
        # the whole n=4000 file, parsed, is about 5 MB of trials or 2.4 MB of
        # responses
        assert peak - retained < 500_000

    @pytest.mark.parametrize("kind", ["trials", "responses"])
    def test_a_stream_checks_its_header_at_once(self, tmp_path, sweep_files, kind):
        load = corpus.load_trials if kind == "trials" else corpus.load_responses
        lines = sweep_files[kind].read_bytes().split(b"\n", 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(lines[0].replace(b'"context":{', b'"context":[{', 1) + b"\n" + lines[1])
        with pytest.raises(DeixisError, match=f"^{re.escape(str(bad))}:1: "):
            load(str(bad))

    def test_per_trial_types_hold_no_dict(self, sweep_files):
        trial = next(iter(corpus.load_trials(str(sweep_files["trials"])).trials))
        record = next(corpus.load_responses(str(sweep_files["responses"])))
        mug = trial.scene.objects[0]
        for value in (trial, mug, mug.pose, mug.pose.position, record):
            assert not hasattr(value, "__dict__"), type(value).__name__


class TestTrialSetEquality:
    def test_sets_compare_on_condition_act_and_scene(self, tmp_path):
        p = tmp_path / "t.jsonl"
        trials = cluttered_trials()
        assert trials == cluttered_trials()
        corpus.save_trials(trials, str(p), seed=7)
        assert corpus.load_trials(str(p)) == corpus.load_trials(str(p)) == trials
        assert corpus.load_trials(str(p)) != make_trials()


class TestStreamedWrites:
    """`save_trials` writes each trial as it is made and `save_responses`
    spools each record beside its output: an error part way leaves neither
    a partial file nor the spool."""

    def test_generated_trials_are_made_again_on_each_pass(self):
        trials = cluttered_trials(n=400)
        assert len(trials.trials) == 400
        assert tuple(trials.trials) == tuple(trials.trials)

    def test_a_set_that_gives_fewer_trials_than_its_count(self, tmp_path):
        tset = cluttered_trials()
        short = replace(tset, trials=harness.Trials(9, tset.trials.make))
        out = tmp_path / "t.jsonl"
        with pytest.raises(DeixisError, match="^a set of 9 trials gave 8$"):
            corpus.save_trials(short, str(out), seed=7)
        assert list(tmp_path.iterdir()) == []

    def test_a_loaded_count_mismatch_leaves_no_copy(self, tmp_path):
        p, out = tmp_path / "t.jsonl", tmp_path / "copy.jsonl"
        corpus.save_trials(cluttered_trials(), str(p), seed=7)
        p.write_bytes(p.read_bytes().replace(b'"count":8', b'"count":9', 1))
        loaded = corpus.load_trials(str(p))
        assert len(loaded.trials) == 9
        with pytest.raises(DeixisError, match=r"t\.jsonl:1: header declares 9 records, found 8$"):
            corpus.save_trials(loaded, str(out), seed=7)
        assert not out.exists()

    @pytest.mark.parametrize("k", [5, 300], ids=["first-batch", "second-batch"])
    def test_a_record_error_leaves_no_responses_and_no_spool(self, tmp_path, k):
        records = harness.run(cluttered_trials(n=400))

        def failing():
            yield from records[:k]
            raise DeixisError(f"record {k} fails")

        out = tmp_path / "r.jsonl"
        with pytest.raises(DeixisError, match=f"^record {k} fails$"):
            corpus.save_responses(failing(), str(out))
        assert list(tmp_path.iterdir()) == []
        corpus.save_responses(records, str(out))
        assert list(tmp_path.iterdir()) == [out]

    def test_responses_of_any_length_write_as_listed(self, tmp_path):
        # batches of the spool fill, cross and end on a boundary
        records = harness.run(cluttered_trials(n=2 * corpus.SPOOL_BATCH + 4))
        for n in (0, 1, corpus.SPOOL_BATCH, corpus.SPOOL_BATCH + 1, len(records)):
            out = tmp_path / f"r{n}.jsonl"
            corpus.save_responses(iter(records[:n]), str(out))
            assert same_records(held(corpus.load_responses(str(out))), records[:n]), n


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
