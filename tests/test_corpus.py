import errno
import gc
import json
import marshal
import math
import os
import re
import stat
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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


def renamed(tset, ids):
    """`tset` with its first `len(ids)` trials, held in a list, given `ids`."""
    return replace(tset, trials=[replace(t, id=i) for t, i in zip(tset.trials, ids)])


class TestTrialsV2:
    def test_locating_records_carry_no_scene(self, tmp_path):
        p = tmp_path / "l.jsonl"
        tset = make_trials(variant=LOCATING)
        corpus.save_trials(tset, str(p), seed=7)
        header = json.loads(p.read_text().splitlines()[0])
        assert header["schema"] == "deixis-trials-6"
        assert set(header["context"]) == {"condition", "act", "surface",
                                          "gravity", "objects"}
        # each locating trial shows its own point, as a bare [u, v]
        assert header["shared"] == {}
        assert all(set(rec) == {"id", "shown"} and type(rec["shown"]) is list
                   and len(rec["shown"]) == 2 for rec in records_of(p))
        # the ids' common prefix is written once, and each record holds the rest
        ids = [t.id for t in tset.trials]
        assert header["id_prefix"] == os.path.commonprefix(ids) == \
               "ref_vs_loc-locating-67.5deg-baxter-00"
        assert [rec["id"] for rec in records_of(p)] == [str(i) for i in range(8)]

    @pytest.mark.parametrize("trials, moved", [
        (make_trials(), [True, False]),
        (cluttered_trials(), [True, True])])
    def test_discrete_records_carry_only_mug_positions(self, tmp_path, trials, moved):
        # every trial shows an object id, in the header or the record; a
        # moved object's entry is its [u, v], an unmoved one's null
        p = tmp_path / "d.jsonl"
        corpus.save_trials(trials, str(p), seed=7)
        shared = json.loads(p.read_text().splitlines()[0])["shared"]
        assert all(type({**shared, **rec}["shown"]) is str for rec in records_of(p))
        for rec in records_of(p)[1:]:
            assert set(rec) - {"shown"} == {"id", "objects"}
            assert [od is not None for od in rec["objects"]] == moved
            assert all(od is None or len(od) == 2 for od in rec["objects"])

    @pytest.mark.parametrize("tset, shared, line, text", [
        (make_trials(n=4, seed=1, variant=LOCATING), {}, 3,
         '{"id":"1","shown":[0.0549682306,0.27876332]}'),
        (cluttered_trials(), {}, 3,
         '{"id":"1","objects":[[0.513283397,0.0],[-0.808984873,0.0]],"shown":"mug_object"}'),
        (make_trials(n=4, seed=1), {"shown": "mug"}, 3,
         '{"id":"1","objects":[[0.0549682306,0.57876332],null]}'),
        (harness.generate_trials(Condition(kind=harness.NATURAL), 3, 1), {}, 3,
         '{"id":"edge","shown":{"label":"edge","position":[0.102,0.0]}}')],
        ids=["locating", "cluttered", "referential", "natural"])
    def test_the_record_text_of_each_kind(self, tmp_path, tset, shared, line, text):
        # a shown point is [u, v], a shown object its id, a moved object's
        # entry its [u, v] and an unmoved one's null
        p = tmp_path / "t.jsonl"
        corpus.save_trials(tset, str(p), seed=1)
        lines = p.read_text().splitlines()
        assert json.loads(lines[0])["shared"] == shared
        assert lines[line - 1] == text

    @pytest.mark.parametrize("trials", [
        make_trials(variant=LOCATING), cluttered_trials(),
        pytest.param(renamed(make_trials(n=4), ["mug-left", "near", "0", "z"]),
                     id="no-shared-prefix"),
        pytest.param(renamed(make_trials(n=4), ["the-only-trial"]), id="one-trial"),
        *(pytest.param(cluttered_trials(n=n), id=f"cluttered-{n}")
          for n in (corpus.SPOOL_BATCH, corpus.SPOOL_BATCH + 4, 2 * corpus.SPOOL_BATCH + 4))])
    def test_round_trip_is_equal_and_byte_stable(self, tmp_path, trials):
        # spool batches fill, cross and end on a boundary
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_trials(trials, str(p1), seed=7)
        prefix = json.loads(p1.read_text().splitlines()[0])["id_prefix"]
        ids = [t.id for t in trials.trials]
        assert prefix == os.path.commonprefix(ids)
        assert [rec["id"] for rec in records_of(p1)] == [i[len(prefix):] for i in ids]
        loaded = held(corpus.load_trials(str(p1)))
        assert loaded == trials
        assert tuple(loaded.trials) == tuple(trials.trials)
        corpus.save_trials(loaded, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_loaded_long_position_is_written_at_9_digits(self, tmp_path):
        # the loader keeps every digit it reads; the writer quantizes again,
        # a moved object's position, a locating shown point and a natural
        # shown config's position alike
        natural = harness.generate_trials(Condition(kind=harness.NATURAL), 3, 7)
        for tset, position_of, loaded_u in (
                (make_trials(n=4), lambda r: r.get("objects", [None])[0],
                 lambda t: t.scene.objects[0].pose.position.u),
                (make_trials(n=4, variant=LOCATING), lambda r: r["shown"],
                 lambda t: t.shown.u),
                (natural, lambda r: r["shown"]["position"], lambda t: t.shown.position.u)):
            p, q = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
            corpus.save_trials(tset, str(p), seed=7)
            lines = p.read_text().splitlines()
            i = next(i for i, line in enumerate(lines[1:], start=1)
                     if (position_of(json.loads(line)) or [0])[0])
            written, rec = lines[i], json.loads(lines[i])
            position = position_of(rec)
            position[0] += 1e-12
            assert harness._q(position[0]) != position[0]
            lines[i] = json.dumps(rec)
            p.write_text("\n".join(lines) + "\n")
            loaded = held(corpus.load_trials(str(p)))
            assert loaded_u(loaded.trials[i - 1]) == position[0]
            corpus.save_trials(loaded, str(q), seed=7)
            assert q.read_text().splitlines()[i] == written

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
        (lambda r: r.update(objects=[None]), r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=[None, None, [0.3, 0.2]]),
         r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=None), r"objects must be a list of 2 entries"),
        (lambda r: r.update(objects=["cup", None]),
         r"objects\[0\] must be null or 2 finite numbers, got 'cup'"),
        (lambda r: r.update(objects=[None, [0.3, 0.2, 30]]),
         r"objects\[1\] must be null or 2 finite numbers"),
        # the wrapped position of schema deixis-trials-5, and its unmoved entry
        (lambda r: r.update(objects=[{"position": [0.3, 0.2]}, None]),
         r"objects\[0\] must be null or 2 finite numbers, got \{'position'"),
        (lambda r: r.update(objects=[[0.3, 0.2], {}]),
         r"objects\[1\] must be null or 2 finite numbers, got \{\}"),
    ], ids=["condition", "act", "surface", "gravity", "misspelled", "one-object",
            "three-objects", "null-objects", "renamed", "yawed", "wrapped-position",
            "bare-position"])
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
                tuple(harness.make_trial(tset.scene, *case) for case in cases)))
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
        assert header["schema"] == "deixis-responses-3"
        assert header["id_prefix"] == "ref_vs_loc-locating-45deg-baxter-00"
        assert header["shared"] == {
            "condition": "ref_vs_loc/locating/45deg/baxter", "human": None,
            "path": "stable", "theta": 0.0, "x_star": [-0.2, -0.15]}
        recs = records_of(p)
        assert [r["trial_id"] for r in recs] == [str(i) for i in range(8)]
        assert all(set(r) == {"trial_id", "predicted", "distance", "probe"} for r in recs)

    @pytest.mark.parametrize("records, header, text", [
        (harness.run(make_trials(n=4, seed=1, variant=LOCATING)),
         '{"count":4,"id_prefix":"ref_vs_loc-locating-67.5deg-baxter-00",'
         '"schema":"deixis-responses-3","shared":{"condition":'
         '"ref_vs_loc/locating/67.5deg/baxter","human":null,"path":"stable",'
         '"predicted":"incorrect","theta":0.0,"x_star":[-0.2,-0.15]}}',
         '{"distance":0.49884545,"probe":[0.0549682306,0.27876332],"trial_id":"1"}'),
        (harness.run(make_trials(n=4, seed=1)),
         '{"count":4,"id_prefix":"ref_vs_loc-referential-67.5deg-baxter-00",'
         '"schema":"deixis-responses-3","shared":{"condition":'
         '"ref_vs_loc/referential/67.5deg/baxter","human":null,"path":"discrete",'
         '"predicted":"correct","x_star":[-0.2,0.15]}}',
         '{"distance":0.49884545,"probe":[0.0549682306,0.57876332],'
         '"theta":0.49884545,"trial_id":"1"}'),
        (harness.run(cluttered_trials()),
         '{"count":8,"id_prefix":"cluttered-67.5deg-baxter-00",'
         '"schema":"deixis-responses-3","shared":{"condition":"cluttered/67.5deg/baxter",'
         '"human":null,"path":"cluttered","separation":1.32226827,'
         '"x_star":[4.43401538e-10,0.0]}}',
         '{"d_far":0.808984873,"d_near":0.513283397,"delta":0.295701477,'
         '"predicted":"nearer","probe":[0.513283397,0.0],"trial_id":"1"}'),
        (harness.run(harness.generate_trials(Condition(kind=harness.NATURAL), 3, 1)),
         '{"count":3,"id_prefix":"natural_vs_unnatural-baxter-gravity-on-",'
         '"schema":"deixis-responses-3","shared":{"condition":'
         '"natural_vs_unnatural/baxter/gravity-on","human":null,"path":"enumerated",'
         '"theta":0.0025,"x_star":[0.102,0.0]}}',
         '{"config":"edge","predicted":"incorrect","probe":[0.102,0.0],"trial_id":"edge"}')],
        ids=["locating", "referential", "cluttered", "natural"])
    def test_the_header_and_record_text_of_each_kind(self, tmp_path, records, header, text):
        # each meta entry is a field of the record's own, shared as a whole
        # value when its JSON text is the same in every record
        p = tmp_path / "r.jsonl"
        corpus.save_responses(records, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == header
        assert lines[2] == text

    def test_a_meta_entry_named_as_a_record_field_is_refused(self, tmp_path, monkeypatch):
        # it would be written beside the record's own field of that name;
        # the writer refuses it before the output or the spool holds anything
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the spool's directory
        out = tmp_path / "r.jsonl"
        for name in ("trial_id", "predicted", "human"):
            records = locating_records(n=4)
            records[2].meta[name] = "x"
            with pytest.raises(ValueError, match=rf"^trial {records[2].trial_id}: meta "
                                                 rf"entry '{name}' has the name of a "
                                                 "record field$"):
                corpus.save_responses(records, str(out))
            assert list(tmp_path.iterdir()) == []

    def test_all_equal_label_and_varying_human(self, tmp_path):
        p = tmp_path / "h.jsonl"
        records = with_human(harness.run(make_trials(n=4)), ["a", None, "a", "a"])
        assert {r.predicted for r in records} == {"correct"}
        corpus.save_responses(records, str(p))
        shared = json.loads(p.read_text().splitlines()[0])["shared"]
        assert shared["predicted"] == "correct" and "human" not in shared
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
        assert "theta" not in json.loads(p1.read_text().splitlines()[0])["shared"]
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


class TestSharedFields:
    """One rule for both kinds: a field whose JSON text is the same in every
    record is written once in the header, as a whole value, and left out of
    the records; the reader merges it back, and a record may not hold it
    too."""

    @pytest.mark.parametrize("tset, shared, own", [
        (make_trials(), {"shown": "mug"}, None),
        (make_trials(variant=LOCATING), {}, list),
        (cluttered_trials(), {}, str),
        (harness.generate_trials(Condition(kind=harness.NATURAL), 3, 7), {}, dict)],
        ids=["referential", "locating", "cluttered", "natural"])
    def test_a_record_holds_only_its_own_shown_entries(self, tmp_path, tset, shared, own):
        # an object id, a point or a natural configuration is shared only as
        # a whole value: no two natural trials show the same configuration
        p = tmp_path / "t.jsonl"
        corpus.save_trials(tset, str(p), seed=7)
        assert json.loads(p.read_text().splitlines()[0])["shared"] == shared
        for rec in records_of(p):
            assert (type(rec["shown"]) if "shown" in rec else None) is own
            assert own is not dict or rec["shown"].keys() == {"label", "position"}
            assert set(rec) - {"shown", "objects"} == {"id"}
        assert tuple(held(corpus.load_trials(str(p))).trials) == tuple(tset.trials)

    @pytest.mark.parametrize("tset, edit, shown", [
        (make_trials(n=4), lambda old: "red_cube", lambda old: "red_cube"),
        (make_trials(n=4, variant=LOCATING), lambda old: {"label": "top", "position": old},
         lambda old: harness.ShownConfig("top", old)),
        (cluttered_trials(n=4), lambda old: [0.25, -0.5],
         lambda old: SurfacePoint(0.25, -0.5)),
        (harness.generate_trials(Condition(kind=harness.NATURAL), 3, 7),
         lambda old: old["position"], lambda old: old.position)],
        ids=["referential", "locating", "cluttered", "natural"])
    def test_a_records_shown_entry_wins_over_the_headers(self, tmp_path, tset, edit,
                                                         shown):
        # the second record's `shown` becomes `edit` of the one it showed,
        # of another JSON type or, in a referential set, another id.  Where
        # the header shares `shown`, the edited record is refused until the
        # shared value is written into every other record; what loads then
        # writes and loads again byte for byte
        p1, p2, p3 = (tmp_path / f"{n}.jsonl" for n in "abc")
        corpus.save_trials(tset, str(p1), seed=7)
        shared = json.loads(p1.read_text().splitlines()[0])["shared"]
        rewrite_line(p1, 3, lambda rec: rec.update(shown=edit({**shared, **rec}["shown"])))
        if "shown" in shared:
            with pytest.raises(DeixisError, match=rf"^{re.escape(str(p1))}:3: bad trial "
                                                  "record: a record may not hold 'shown', "
                                                  "which the header shares$"):
                held(corpus.load_trials(str(p1)))
            unshare(p1, "shown")
        loaded = held(corpus.load_trials(str(p1)))
        expected = [t.shown for t in tset.trials]
        expected[1] = shown(expected[1])
        assert [t.shown for t in loaded.trials] == expected
        corpus.save_trials(loaded, str(p2), seed=7)
        again = held(corpus.load_trials(str(p2)))
        assert again.trials == loaded.trials
        corpus.save_trials(again, str(p3), seed=7)
        assert p2.read_bytes() == p3.read_bytes()

    def test_a_referential_set_writes_its_shown_once(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trials = make_trials(n=400, seed=4)
        corpus.save_trials(trials, str(p1), seed=4)
        header = json.loads(p1.read_text().splitlines()[0])
        assert header["shared"] == {"shown": "mug"}
        assert all("shown" not in rec for rec in records_of(p1))
        loaded = held(corpus.load_trials(str(p1)))
        assert tuple(loaded.trials) == tuple(trials.trials)
        assert {t.shown for t in loaded.trials} == {"mug"}
        corpus.save_trials(loaded, str(p2), seed=4)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_trial_lifts_every_field(self, tmp_path):
        # the second trial of a referential set, which moves the mug
        tset = make_trials(n=4)
        trials = replace(tset, trials=[replace(tuple(tset.trials)[1], id="the-only-trial")])
        records = harness.run(trials)
        t, r = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
        corpus.save_trials(trials, str(t), seed=7)
        corpus.save_responses(records, str(r))
        assert records_of(t) == [{"id": ""}] and records_of(r) == [{"trial_id": ""}]
        header = json.loads(t.read_text().splitlines()[0])
        assert set(header["shared"]) == {"shown", "objects"}
        shared = json.loads(r.read_text().splitlines()[0])["shared"]
        assert shared.keys() == {"predicted", "human", *records[0].meta}
        assert held(corpus.load_trials(str(t))).trials == tuple(trials.trials)
        assert same_records(held(corpus.load_responses(str(r))), records)

    def test_a_record_that_repeats_a_shared_field_is_refused(self, tmp_path):
        # a field is in the header or in the record, never both, so a
        # re-save never drops a value; the edited value loads once the
        # shared one is written into every other record instead
        t, r = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
        corpus.save_trials(make_trials(n=4), str(t), seed=7)
        rewrite_line(t, 3, lambda rec: rec.update(shown="red_cube"))
        with pytest.raises(DeixisError, match=rf"^{re.escape(str(t))}:3: bad trial record: "
                                              "a record may not hold 'shown', which the "
                                              "header shares$"):
            held(corpus.load_trials(str(t)))
        unshare(t, "shown")
        assert [tr.shown for tr in corpus.load_trials(str(t)).trials] == \
               ["mug", "red_cube", "mug", "mug"]
        records = locating_records(n=4)
        corpus.save_responses(records, str(r))
        shared = json.loads(r.read_text().splitlines()[0])["shared"]
        assert shared["human"] is None and "x_star" in shared
        rewrite_line(r, 3, lambda rec: rec.update(human="a", x_star=[0.5, 0.25]))
        with pytest.raises(DeixisError, match=rf"^{re.escape(str(r))}:3: bad response "
                                              "record: a record may not hold 'human', "
                                              "'x_star', which the header shares$"):
            held(corpus.load_responses(str(r)))
        unshare(r, "human", "x_star")
        loaded = held(corpus.load_responses(str(r)))
        assert [rec.human for rec in loaded] == [None, "a", None, None]
        assert [rec.meta["x_star"] for rec in loaded] == \
               [(-0.2, -0.15), (0.5, 0.25), (-0.2, -0.15), (-0.2, -0.15)]
        assert loaded[1].meta.keys() == records[1].meta.keys()

    @pytest.mark.parametrize("shared", [
        [], "shown", None, "missing", {"bogus": 1},
        {"shown": "mug", "gravity": False},
        {"id": "0"}], ids=["list", "string", "null", "missing", "unknown-field",
                           "context-field", "id"])
    def test_a_bad_shared_object_is_a_bad_header(self, tmp_path, shared):
        p = tmp_path / "s.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        if shared == "missing":
            del header["shared"]
        else:
            header["shared"] = shared
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(DeixisError) as info:
            corpus.load_trials(str(p))
        got = None if shared == "missing" else shared
        assert str(info.value) == (f"{p}:1: bad header: shared must be an object holding "
                                   f"only shown and objects, got {got!r}")

    def test_a_shared_response_id_is_a_bad_header(self, tmp_path):
        # as in a trials file, every record holds its own id: a shared
        # `trial_id` would give each record that lacks one the same id
        p = tmp_path / "r.jsonl"
        p.write_text('{"schema":"deixis-responses-3","count":2,"id_prefix":"t",'
                     '"shared":{"trial_id":"7","predicted":"correct","human":null}}'
                     '\n{}\n{}\n')
        with pytest.raises(DeixisError) as info:
            corpus.load_responses(str(p))
        assert str(info.value) == (f"{p}:1: bad header: shared holds trial_id; "
                                   "each record holds its own")

    def test_a_trials_3_file_is_an_unknown_schema(self, tmp_path):
        # the retired schema wrote every record's `shown`; a file of it is
        # refused, not read under today's rule
        p = tmp_path / "v3.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        shown = header.pop("shared")["shown"]
        header["schema"] = "deixis-trials-3"
        p.write_text("\n".join([json.dumps(header)] + [
            json.dumps({**json.loads(line), "shown": shown}) for line in lines[1:]]) + "\n")
        with pytest.raises(DeixisError,
                           match=rf"^{re.escape(str(p))}:1: unknown schema 'deixis-trials-3'$"):
            corpus.load_trials(str(p))


def test_odd_meta_keys_and_values_round_trip(tmp_path):
    # meta keys and values holding % and NUL, each a field of the record's
    # own: each line is written as the encoder writes it, and the file
    # round-trips byte for byte
    records = [ResponseRecord(f"r{i}", "correct", meta={
        "100%": float(i), "a\0b": f"x%s\0{i}", "%(k)s": [i, "%%"], "same%": "%"})
        for i in range(3)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    corpus.save_responses(records, str(p1))
    lines = p1.read_text().splitlines()
    assert json.loads(lines[0])["shared"] == {"human": None, "predicted": "correct",
                                              "same%": "%"}
    assert [json.loads(line) for line in lines[1:]] == [
        {"trial_id": str(i), "100%": float(i), "a\0b": f"x%s\0{i}", "%(k)s": [i, "%%"]}
        for i in range(3)]
    assert lines[1] == corpus._ENCODER.encode(json.loads(lines[1]))
    loaded = held(corpus.load_responses(str(p1)))
    assert same_records(loaded, records)
    corpus.save_responses(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def rewrite_line(path, number, edit):
    """Apply `edit` to the JSON object on line `number` of `path`."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[number - 1])
    edit(obj)
    lines[number - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def unshare(path, *fields):
    """Move those of `fields` (every shared field when none are named) that
    the header of `path` shares into each of its records that does not hold
    its own, as the writer writes a field whose value differs in one record."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    moved = {k: header["shared"].pop(k) for k in fields or list(header["shared"])
             if k in header["shared"]}
    path.write_text("\n".join([json.dumps(header)] + [
        json.dumps({**moved, **json.loads(line)}) for line in lines[1:]]) + "\n")


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
                                tuple(harness.make_trial(scene, *case) for case in cases))

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
    # a responses header for one record that shares nothing
    HEADER = ('{"schema":"deixis-responses-3","count":1,"id_prefix":"",'
              '"shared":{}}\n')

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
        # the record and its object entry `k` are two levels
        p = tmp_path / "n.jsonl"
        p.write_text(self.HEADER + '{"trial_id":"x","predicted":"correct","human":null,'
                     '"k":{"k":%s}}\n' % ("[" * lists + "]" * lists))
        if lists + 2 <= corpus.MAX_NESTING:
            [record] = corpus.load_responses(str(p))
            assert record.meta["k"] == {"k": json.loads("[" * lists + "]" * lists)}
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

    @pytest.mark.parametrize("field, value, why", [
        ("condition", "bogus", "condition 'bogus' is not the context's {}"),
        ("condition", "ref_vs_loc/locating/67.5deg/baxter",
         "condition 'ref_vs_loc/locating/67.5deg/baxter' is not the context's {}"),
        ("condition", None, "condition None is not the context's {}"),
        ("condition", "missing", "condition None is not the context's {}"),
        ("seed", "missing", "no seed; it must be null or a non-negative integer"),
        ("seed", "7", "seed must be null or a non-negative integer, got '7'"),
        ("seed", 7.0, "seed must be null or a non-negative integer, got 7.0"),
        ("seed", True, "seed must be null or a non-negative integer, got True"),
        ("seed", -1, "seed must be null or a non-negative integer, got -1"),
        ("id_prefix", "missing", "id_prefix must be a string, got None"),
        ("id_prefix", 3, "id_prefix must be a string, got 3"),
        ("id_prefix", None, "id_prefix must be a string, got None")],
        ids=["bogus-condition", "another-condition", "null-condition", "no-condition",
             "no-seed", "string-seed", "float-seed", "true-seed", "negative-seed",
             "no-id-prefix", "numeric-id-prefix", "null-id-prefix"])
    def test_header_condition_and_seed(self, tmp_path, field, value, why):
        # checked once the context parses: the descriptor must be the
        # context condition's
        p = tmp_path / "h.jsonl"
        tset = make_trials(n=4)
        corpus.save_trials(tset, str(p), seed=7)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        if value == "missing":
            del header[field]
        else:
            header[field] = value
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        message = why.format(repr(tset.condition.descriptor()))
        with pytest.raises(DeixisError,
                           match=rf"^{re.escape(str(p))}:1: bad header: {re.escape(message)}$"):
            corpus.load_trials(str(p))

    @pytest.mark.parametrize("seed", [None, 0, 7, 2 ** 70])
    def test_header_seed_may_be_null_or_any_non_negative_integer(self, tmp_path, seed):
        p = tmp_path / "s.jsonl"
        tset = make_trials(n=4)
        corpus.save_trials(tset, str(p), seed=seed)
        assert json.loads(p.read_text().splitlines()[0])["seed"] == seed
        assert held(corpus.load_trials(str(p))) == tset

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
        (("id",), 3), (("gravity",), 1),
        # a natural configuration holding another entry
        (("shown", "type"), ["object"]), (("shown", "id"), False),
        (("shown", "type"), "nowhere"),
        # a shown that is no object id, no [u, v] and no configuration
        (("shown",), ["object"]), (("shown",), False), (("shown",), None),
        (("shown",), 7), (("shown",), [True, 0.0]), (("shown",), [0.1, 0.0, 0.0]),
        (("shown",), {"type": "object", "id": "mug"}),
        (("shown",), {"color": "red", "label": "top", "position": [0.0, 0.0]}),
        (("shown",), {"label": "top"}), (("shown",), {"position": [0.0, 0.0]}),
        (("shown",), {"label": 1, "position": [0.0, 0.0]}),
        (("shown",), {"label": "top", "position": [0.0]}),
        (("shown",), {"label": "top", "position": [0.0, math.inf]}),
        # an objects entry that is neither null nor [u, v]
        (("objects", 0), [True, 0.0]), (("objects", 0), [float("nan"), 0.0]),
        (("objects", 0), [0.1, 0.0, 0.0]), (("objects", 0), {}), (("objects", 0), "0")],
        ids=_path_id)
    def test_wrongly_typed_record_field(self, tmp_path, path, value):
        # the second record of a referential set, or of a natural one for an
        # entry of `shown`; the set's shared `shown` is written into every
        # record first, so the edit replaces the record's own value
        p = tmp_path / "r.jsonl"
        natural = len(path) == 2 and path[0] == "shown"
        corpus.save_trials(harness.generate_trials(Condition(kind=harness.NATURAL), 3, 7)
                           if natural else make_trials(n=4), str(p), seed=7)
        unshare(p)
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
        assert rec["objects"][1] is None
        rec["objects"][0] = position or header["context"]["objects"][1]["position"]
        lines[2] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=rf"r\.jsonl:3: bad trial record: {message}"):
            held(corpus.load_trials(str(p)))

    def test_the_first_record_names_its_line(self, tmp_path):
        # the first record is read before the set is returned, and made into
        # a trial with the others; its error still names its own line
        p = tmp_path / "b.jsonl"
        corpus.save_trials(make_trials(n=4), str(p), seed=7)
        lines = p.read_text().splitlines()
        header, rec = json.loads(lines[0]), json.loads(lines[1])
        assert "objects" not in rec  # trial 0 leaves the mug where the scene has it
        rec["objects"] = [header["context"]["objects"][1]["position"], None]
        lines[1] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DeixisError, match=r"b\.jsonl:2: bad trial record: "
                                              r"objects mug and red_cube overlap$"):
            held(corpus.load_trials(str(p)))

    @pytest.mark.parametrize("field, value", [
        ("trial_id", [1]), ("trial_id", None), ("predicted", "farther"),
        ("predicted", None), ("human", 3), ("human", ["a"]),
        ("meta", {"probe": [0.1]}), ("meta", {"x_star": "x"})] + [
        ("meta", {key: value}) for key in ("theta", "distance", "d_near", "d_far",
                                           "delta", "separation")
        for value in ("0.1", True, math.nan)], ids=_path_id)
    def test_wrongly_typed_response_field(self, tmp_path, field, value):
        # a `meta` entry is a field of the record's own; every field is
        # written into the records first, so an edit replaces a record's value
        p = tmp_path / "w.jsonl"
        corpus.save_responses(harness.run(make_trials(n=4)), str(p))
        unshare(p)
        lines = p.read_text().splitlines()
        rec = json.loads(lines[3])
        if field == "meta":
            rec.update(value)
        else:
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
            edit = {"shown": {"type": "bogus"}}
            message = ("bad trial record: shown must be an object id, 2 finite numbers or "
                       "an object holding only label and position, got {'type': 'bogus'}")
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
        with pytest.raises(DeixisError, match=r"w\.jsonl:1: unknown schema 'deixis-trials-6'$"):
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
        bad.write_bytes(lines[0].replace(b'"shared":{', b'"shared":[{', 1) + b"\n" + lines[1])
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


def _write_svg(path):
    with corpus.writing(path) as fh:
        fh.write("<svg/>\n")


# name -> a write of a small output to a path, through each writer
PIPE_WRITERS = {
    "writing": _write_svg,
    "save_trials": lambda path: corpus.save_trials(make_trials(n=4), path, seed=7),
    "save_responses": lambda path: corpus.save_responses(harness.run(make_trials(n=4)),
                                                         path),
}


class TestStreamedWrites:
    """`save_trials` and `save_responses` spool each record as it is made
    and open the output only after the last: an error before then leaves
    neither a partial file nor the spool."""

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

    @pytest.mark.parametrize("change", [
        "surface", "gravity", "count", "id", "shape", "yaw", "support"])
    def test_a_trial_from_another_scene_is_refused(self, tmp_path, change):
        # a record holds only positions, so a trial whose scene differs from
        # the set's in anything more would load back with the set's scene
        tset = make_trials(n=4)
        scene = tset.scene
        mug, cube = scene.objects
        other = {
            "surface": replace(scene, surface=replace(scene.surface, extent=(3.0, 3.0))),
            "gravity": replace(scene, gravity=False),
            "count": replace(scene, objects=(cube,)),
            "id": replace(scene, objects=(mug, replace(cube, id="blue_cube"))),
            "shape": replace(scene, objects=(mug, replace(
                cube, shape=replace(cube.shape, half_extents=(0.05, 0.05))))),
            "yaw": replace(scene, objects=(mug, replace(cube, pose=replace(cube.pose, yaw=0.5)))),
            "support": replace(scene, objects=(replace(mug, support="red_cube", pose=cube.pose),
                                               cube)),
        }[change]
        trials = list(tset.trials)
        trials[2] = replace(trials[2], scene=other)
        out = tmp_path / "t.jsonl"
        with pytest.raises(DeixisError, match=rf"^trial {re.escape(trials[2].id)}: its "
                                              "scene differs from the set's in more "
                                              "than its objects' positions$"):
            corpus.save_trials(replace(tset, trials=trials), str(out), seed=7)
        assert not out.exists()

    def test_a_trial_whose_objects_only_moved_is_saved(self, tmp_path):
        # a scene built afresh, not by `Scene.moved`, passes on equal parts
        tset = make_trials(n=4)
        trials = list(tset.trials)
        scene = trials[1].scene
        copy = replace(scene, surface=replace(scene.surface), objects=tuple(
            replace(o, shape=replace(o.shape), pose=replace(o.pose)) for o in scene.objects))
        assert copy.objects[1].shape is not scene.objects[1].shape and copy == scene
        trials[1] = replace(trials[1], scene=copy)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus.save_trials(tset, str(p1), seed=7)
        corpus.save_trials(replace(tset, trials=trials), str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

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
    def test_a_record_error_leaves_no_responses_and_no_spool(self, tmp_path, k,
                                                             monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the spool's directory
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

    @staticmethod
    def failing_set():
        """A cluttered set whose trials raise after one trial."""
        tset = cluttered_trials()

        def trials():
            yield next(iter(tset.trials))
            raise DeixisError("trial 1 fails")

        return replace(tset, trials=harness.Trials(8, trials))

    def test_a_failed_write_through_a_symlink_leaves_the_link(self, tmp_path):
        # the link `--out` names stays, and since the error comes before the
        # last trial, the output is never opened: the target keeps its bytes
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_bytes(b"known bytes\n")
        link.symlink_to(target)
        with pytest.raises(DeixisError, match="^trial 1 fails$"):
            corpus.save_trials(self.failing_set(), str(link), seed=7)
        assert link.is_symlink()
        assert target.is_file()
        assert target.read_bytes() == b"known bytes\n"

    def test_a_failed_write_into_a_fifo_leaves_the_fifo(self, tmp_path):
        # the reader takes 100 bytes of a set larger than the 64 KiB pipe
        # buffer and closes, so the write fails part way: a FIFO is written
        # in place and left, and the spool has no name
        fifo, read = tmp_path / "fifo", []

        def reader():
            with fifo.open("rb") as fh:
                read.append(fh.read(100))

        os.mkfifo(fifo)
        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        with pytest.raises(BrokenPipeError):
            corpus.save_trials(cluttered_trials(n=1000), str(fifo), seed=7)
        thread.join(timeout=10)
        assert read and read[0].startswith(b'{"condition":')
        assert fifo.is_fifo()
        assert list(tmp_path.iterdir()) == [fifo]

    @staticmethod
    def failing_final_write(monkeypatch):
        """Make the final write fail part way: the spool's second batch fails
        to load, as a full disk would fail a write, once the output holds
        its header and the first batch."""
        loads, calls = marshal.loads, []

        def failing(data):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return loads(data)

        monkeypatch.setattr(corpus, "marshal", SimpleNamespace(dumps=marshal.dumps,
                                                               loads=failing))

    def test_a_failed_final_write_leaves_a_regular_output_as_it_was(self, tmp_path,
                                                                    monkeypatch):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"known bytes\n")
        self.failing_final_write(monkeypatch)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the spool's directory
        with pytest.raises(OSError, match="No space left on device"):
            corpus.save_responses(harness.run(cluttered_trials(n=400)), str(out))
        assert out.read_bytes() == b"known bytes\n"
        assert list(tmp_path.iterdir()) == [out]  # nor a spool or a part-written file

    def test_a_failed_final_write_through_a_symlink_leaves_its_target(self, tmp_path,
                                                                     monkeypatch):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_bytes(b"known bytes\n")
        link.symlink_to(target)
        self.failing_final_write(monkeypatch)
        with pytest.raises(OSError, match="No space left on device"):
            corpus.save_trials(cluttered_trials(n=400), str(link), seed=7)
        assert link.is_symlink() and target.read_bytes() == b"known bytes\n"
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_a_replaced_output_keeps_its_link_and_mode(self, tmp_path):
        # the link stays a link to the same path, whose file is new; a file
        # `writing` makes takes its mode from the umask, as `open` would
        target, link, fresh = (tmp_path / n for n in ("target.jsonl", "link.jsonl",
                                                      "fresh.jsonl"))
        target.write_bytes(b"known bytes\n")
        target.chmod(0o640)
        link.symlink_to(target)
        corpus.save_trials(make_trials(n=4), str(link), seed=7)
        corpus.save_trials(make_trials(n=4), str(fresh), seed=7)
        assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        umask = os.umask(0o022)
        os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == \
               ["fresh.jsonl", "link.jsonl", "target.jsonl"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("name", sorted(PIPE_WRITERS))
    def test_a_pipe_named_through_dev_fd_is_written_in_place(self, tmp_path, name):
        # /dev/fd/N of a pipe resolves to no file, so only the pipe's own
        # mode says to write it in place, as `--out /dev/stdout` does, and
        # the spool is made in the default temporary directory, not beside it
        write, regular = PIPE_WRITERS[name], tmp_path / "out"
        write(str(regular))
        r, w = os.pipe()
        try:
            write(f"/dev/fd/{w}")
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            assert fh.read() == regular.read_bytes()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write to any file")
    def test_a_read_only_output_is_refused(self, tmp_path):
        # a rename needs write access to the directory alone, so the writer
        # asks first, as `open` would
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"known bytes\n")
        out.chmod(0o444)
        with pytest.raises(PermissionError, match=re.escape(str(out))):
            corpus.save_trials(make_trials(n=4), str(out), seed=7)
        assert out.read_bytes() == b"known bytes\n"
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
