import errno
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import pytest
from click.testing import CliRunner

from deixis import corpus, harness, svgplot
from deixis.cli import MAX_N, main
from deixis.errors import DeixisError

HUGE = "1" + "0" * 400  # a count no float can hold
# a responses header that shares nothing: a record holds every field
RESPONSES_HEADER = '{"schema":"deixis-responses-3","count":%d,"id_prefix":"","shared":{}}\n'


@pytest.fixture
def runner():
    return CliRunner()


def rewrite(path, line, edit):
    """Rewrite line `line` (from 1) of `path`: a string replaces it, a
    function edits its parsed JSON in place."""
    lines = path.read_text().splitlines()
    if isinstance(edit, str):
        lines[line - 1] = edit
    else:
        obj = json.loads(lines[line - 1])
        edit(obj)
        lines[line - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def unshare(path, *fields):
    """Move those of `fields` (every shared field when none are named) that
    the header of `path` shares into each of its records, so that an edit
    of a record replaces its own value: a record may not hold a shared
    field."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    moved = {k: header["shared"].pop(k) for k in fields or list(header["shared"])
             if k in header["shared"]}
    path.write_text("\n".join([json.dumps(header)] + [
        json.dumps({**moved, **json.loads(line)}) for line in lines[1:]]) + "\n")


def gen(runner, tmp_path, *extra):
    out = tmp_path / "trials.jsonl"
    args = ["gen", "--condition", "ref-vs-loc", "--cone", "45", "--n", "8",
            "--seed", "7", "--out", str(out), *extra]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return out


class TestGen:
    def test_writes_corpus(self, runner, tmp_path):
        out = gen(runner, tmp_path)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["count"] == 8 and len(lines) == 9

    def test_natural_three_trials(self, runner, tmp_path):
        out = tmp_path / "n.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "natural",
                                   "--gravity", "off", "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text().splitlines()[0])["count"] == 3

    def test_missing_out_is_usage_error(self, runner):
        res = runner.invoke(main, ["gen", "--condition", "natural"])
        assert res.exit_code == 2

    def test_missing_cone_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--condition", "cluttered",
                                   "--out", str(tmp_path / "x.jsonl")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags, message", [
        (("--condition", "natural", "--seed", "-1"), "x>=0"),
        (("--condition", "cluttered", "--cone", "45", "--seed", "-1"), "x>=0"),
        (("--condition", "natural", "--cone", "30"), "takes no cone"),
        (("--condition", "natural", "--cone", "45"), "takes no cone"),
        (("--condition", "ref-vs-loc", "--cone", "30"), "45, 67.5 or 90"),
        (("--condition", "cluttered", "--cone", "45", "--variant", "locating"),
         "takes no variant"),
        (("--condition", "natural", "--variant", "locating"), "takes no variant"),
        (("--condition", "ref-vs-loc", "--cone", "45", "--gravity", "off"),
         "takes no gravity off"),
        (("--condition", "cluttered", "--cone", "45", "--reverse"), "takes no reverse"),
        (("--condition", "natural", "--reverse"), "takes no reverse"),
        # the retired verbs condition: its sets are ref-vs-loc sets with a verb
        (("--condition", "verbs", "--cone", "45"), "'verbs' is not one of"),
    ], ids=["natural-seed", "cluttered-seed", "natural-cone-30",
            "natural-cone-45", "cone-30", "cluttered-variant", "natural-variant",
            "ref-vs-loc-gravity", "cluttered-reverse",
            "natural-reverse", "retired-verbs"])
    def test_bad_flags_exit_2(self, runner, tmp_path, flags, message):
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", *flags, "--out", str(out)])
        assert res.exit_code == 2
        assert message in res.output
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--condition", "cluttered", "--cone", "45", "--gravity", "on"),
        ("--condition", "natural", "--gravity", "off")])
    def test_paper_grid_flags_still_work(self, runner, tmp_path, flags):
        res = runner.invoke(main, ["gen", *flags, "--variant", "referential",
                                   "--out", str(tmp_path / "x.jsonl")])
        assert res.exit_code == 0, res.output

    def test_ref_vs_loc_tags_are_accepted(self, runner, tmp_path):
        # the verb and speech label a ref-vs-loc set; its descriptor names them
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "ref-vs-loc", "--cone", "45",
                                   "--verb", "push", "--no-speech", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "condition=ref_vs_loc/referential/45deg/baxter/nospeech/push " in res.output
        assert json.loads(out.read_text().splitlines()[0])["context"]["condition"][
            "verb"] == "push"

    def test_n_at_the_maximum(self, runner, tmp_path):
        # natural yields its 3 trials for any positive n
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "natural",
                                   "--n", str(MAX_N), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text().splitlines()[0])["count"] == 3

    @pytest.mark.parametrize("flags", [
        ("--condition", "ref-vs-loc", "--cone", "45"),
        ("--condition", "ref-vs-loc", "--variant", "locating", "--cone", "90"),
        ("--condition", "cluttered", "--cone", "67.5"),
        ("--condition", "natural"),
        ("--condition", "ref-vs-loc", "--cone", "45", "--verb", "push")],
        ids=["referential", "locating", "cluttered", "natural", "verbs"])
    def test_n_past_the_maximum_exits_2(self, runner, tmp_path, flags):
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", *flags, "--n", str(MAX_N + 1),
                                   "--out", str(out)])
        assert res.exit_code == 2
        errors = [line for line in res.output.splitlines() if line.startswith("Error: ")]
        assert errors == [f"Error: Invalid value for '--n': {MAX_N + 1} "
                          f"is not in the range x<={MAX_N}."]
        assert not out.exists()

    def test_byte_identical_reruns(self, runner, tmp_path):
        a = gen(runner, tmp_path)
        data = a.read_bytes()
        b = gen(runner, tmp_path)
        assert b.read_bytes() == data


class TestRun:
    def test_referential_all_correct(self, runner, tmp_path):
        trials = gen(runner, tmp_path)
        out = tmp_path / "resp.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 0
        assert "correct=8" in res.output
        # the label every record shares is written once, in the header
        assert json.loads(out.read_text().splitlines()[0])["shared"]["predicted"] == "correct"
        assert [r.predicted for r in corpus.load_responses(str(out))] == ["correct"] * 8

    def test_referential_pointing_beats_locating_at_every_cone(self, runner, tmp_path):
        # the paper's main contrast, read from `gen` and `run` output at n=400,
        # seed 0: referential pointing is judged correct at every cone (400 of
        # 400), locating pointing less often as the cone widens (59, 18 and 1)
        def correct_rate(variant, cone):
            trials, out = tmp_path / f"{variant}-{cone}.jsonl", tmp_path / "r.jsonl"
            res = runner.invoke(main, ["gen", "--condition", "ref-vs-loc", "--variant",
                                       variant, "--cone", cone, "--n", "400", "--seed", "0",
                                       "--out", str(trials)])
            assert res.exit_code == 0, res.output
            res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
            assert res.exit_code == 0, res.output
            summary = re.fullmatch(r"\S+: 400 responses \((.*)\)\n", res.output)
            assert summary, res.output
            counts = dict(part.split("=") for part in summary[1].split())
            return int(counts.get("correct", 0)) / 400

        cones = ("45", "67.5", "90")
        referential = [correct_rate("referential", c) for c in cones]
        locating = [correct_rate("locating", c) for c in cones]
        assert all(r > loc for r, loc in zip(referential, locating)), (referential, locating)
        assert locating[0] > locating[1] > locating[2], locating

    def test_corrupt_input_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        res = runner.invoke(main, ["run", "--in", str(bad),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 1
        assert "schema" in res.output.lower()

    @pytest.mark.parametrize("half", ["[1e-20,1e-20]", "[1e-300,0.08]"],
                             ids=["collapsed", "flat"])
    def test_a_cube_below_its_position_precision_runs(self, runner, tmp_path, half):
        # the red cube's corners round to one point, or to two
        trials = gen(runner, tmp_path, "--variant", "locating")
        text = trials.read_text()
        trials.write_text(text.replace('"half_extents":[0.08,0.08]', f'"half_extents":{half}'))
        assert trials.read_text() != text
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert len(list(corpus.load_responses(str(out)))) == 8

    @pytest.mark.parametrize("line, edit, message", [
        (2, lambda r: r.update(shown=[int(HUGE), 0]), "bad trial record"),
        (1, lambda h: h["context"]["condition"].update(cone_deg=int(HUGE)),
         "bad context"),
        (2, "[" * 100_000, "malformed record"),
        (1, "[" * 100_000, "malformed header"),
        (1, lambda h: h["context"]["surface"].update(normal=[0, 0, 2]),
         "bad context: normal must be a unit vector"),
        (1, lambda h: h["context"]["surface"].update(axis_v=h["context"]["surface"]["axis_u"]),
         "bad context: plane axes must be orthonormal"),
        (1, lambda h: h["context"]["surface"].update(extent=[0, 1]),
         "bad context: plane extent must be positive"),
        # the retired verbs kind: its sets are ref-vs-loc sets with a verb
        (1, lambda h: h["context"]["condition"].update(kind="verb_variant", verb="push"),
         "bad context: unknown condition kind 'verb_variant'"),
        # the header holds no condition: the context's is the file's one
        (1, lambda h: h.update(condition="bogus"),
         "bad header: unexpected field 'condition'; a trials header holds only "
         "schema, count, seed, id_prefix, context and shared"),
    ], ids=["huge-shown-position", "huge-cone", "deep-record", "deep-header",
            "non-unit-normal", "repeated-axis", "zero-extent", "verb-variant-kind",
            "bogus-condition"])
    def test_malformed_trials_exit_1(self, runner, tmp_path, line, edit, message):
        trials = gen(runner, tmp_path, "--variant", "locating")
        rewrite(trials, line, edit)
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: {trials}:{line}: {message}")
        assert res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, line, bad, reason", [
        ("trials", 2, b"\xff\xfe", "invalid start byte 0xff"),
        ("responses", 3, b"\xe9", "invalid continuation byte 0xe9")],
        ids=["trials", "responses"])
    def test_non_utf8_corpus_exits_1(self, runner, tmp_path, kind, line, bad, reason):
        path, out = tmp_path / f"{kind}.jsonl", tmp_path / "out"
        trials = harness.generate_trials(harness.Condition(kind=harness.NATURAL), 3, 0)
        if kind == "trials":
            corpus.save_trials(trials, str(path), seed=0)
            args = ["run", "--in", str(path), "--out", str(out)]
        else:
            corpus.save_responses(harness.run(trials), str(path))
            args = ["plot", "--in", str(path), "--out", str(out)]
        lines = path.read_bytes().splitlines()
        lines[line - 1] = lines[line - 1][:5] + bad + lines[line - 1][5:]
        path.write_bytes(b"\n".join(lines) + b"\n")
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"Error: {path}:{line}: not UTF-8 text: {reason}\n"
        assert not out.exists()

    def test_crlf_trials_run_like_lf(self, runner, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "cluttered", "--cone", "67.5",
                                   "--n", "8", "--seed", "7", "--out", str(lf)])
        assert res.exit_code == 0, res.output
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for trials, out in ((lf, tmp_path / "r1.jsonl"), (crlf, tmp_path / "r2.jsonl")):
            res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append((res.output, out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_a_cut_record_names_its_column(self, runner, tmp_path, end):
        # the last record lost its closing brace: the message names its line
        # and the column just past its last character, and no line inside it
        trials = tmp_path / "trials.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "cluttered", "--cone", "45",
                                   "--n", "8", "--out", str(trials)])
        assert res.exit_code == 0, res.output
        lines = trials.read_bytes().splitlines()
        lines[-1] = lines[-1].removesuffix(b"}")
        cut, out = tmp_path / "cut.jsonl", tmp_path / "o.jsonl"
        cut.write_bytes(end.join(lines) + end)
        res = runner.invoke(main, ["run", "--in", str(cut), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"Error: {cut}:9: malformed record: Expecting ',' "
                              f"delimiter: column {len(lines[-1]) + 1}\n")
        assert not out.exists()

    @pytest.mark.parametrize("end", [b"\r", b"\x0c", "\u2028".encode()],
                             ids=["cr", "form-feed", "line-separator"])
    @pytest.mark.parametrize("kind", ["trials", "responses"])
    def test_another_break_between_records_exits_1(self, runner, tmp_path, kind, end):
        path, out = tmp_path / f"{kind}.jsonl", tmp_path / "out"
        trials = harness.generate_trials(harness.Condition(kind=harness.NATURAL), 3, 0)
        if kind == "trials":
            corpus.save_trials(trials, str(path), seed=0)
            args = ["run", "--in", str(path), "--out", str(out)]
        else:
            corpus.save_responses(harness.run(trials), str(path))
            args = ["plot", "--in", str(path), "--out", str(out)]
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join([lines[0], lines[1] + end + lines[2], *lines[3:]]) + b"\n")
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: {path}:2: malformed record: Extra data")
        assert res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, line, edit", [
        (("ref-vs-loc", "--cone", "45"), 2, lambda r: r.update(shown=[0.1, 0.2])),
        (("natural",), 2, lambda r: r.update(shown="stack_top")),
        (("cluttered", "--cone", "45"), 1,
         lambda h: h["context"]["objects"][0].update(id="cup")),
        (("ref-vs-loc", "--cone", "45"), 2, lambda r: r.update(shown="cup")),
    ], ids=["referential-point", "natural-object", "cluttered-renamed-mug",
            "referential-absent-id"])
    def test_shown_that_does_not_fit_exits_1(self, runner, tmp_path, flags, line, edit):
        trials = tmp_path / "t.jsonl"
        assert runner.invoke(main, ["gen", "--condition", *flags,
                                    "--out", str(trials)]).exit_code == 0
        unshare(trials, "shown")  # a referential set shares its shown mug
        rewrite(trials, line, edit)
        header, record = map(json.loads, trials.read_text().splitlines()[:2])
        first = header["id_prefix"] + record["id"]
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: trial {first}: ")
        assert res.output.count("\n") == 1
        assert not out.exists()

    def test_a_header_sharing_what_a_record_holds_exits_1(self, runner, tmp_path):
        # each locating record holds its own `shown`; a header that shares
        # one too is refused at the first record, not dropped by a re-save
        trials, out = gen(runner, tmp_path, "--variant", "locating"), tmp_path / "o.jsonl"
        rewrite(trials, 1, lambda h: h.update(shared={"shown": 7}))
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == (f"Error: {trials}:2: bad trial record: a record may not "
                              "hold 'shown', which the header shares\n")
        assert not out.exists()

    def test_a_shown_entry_the_record_does_not_hold_exits_1(self, runner, tmp_path):
        # a natural trial shows a point: the retired configuration object,
        # its label and position, is refused, and so is one with more entries
        trials, out = tmp_path / "t.jsonl", tmp_path / "o.jsonl"
        assert runner.invoke(main, ["gen", "--condition", "natural",
                                    "--out", str(trials)]).exit_code == 0
        for shown in ({"label": "top", "position": [0.0, 0.0]},
                      {"color": "red", "label": "top", "position": [0.0, 0.0]}):
            rewrite(trials, 2, lambda r: r.update(shown=shown))
            res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
            assert res.exit_code == 1
            assert isinstance(res.exception, SystemExit)
            assert res.output == (f"Error: {trials}:2: bad trial record: shown must be "
                                  f"an object id or 2 finite numbers, got {shown!r}\n")
        assert not out.exists()

    def test_yawed_box_beside_stack(self, runner, tmp_path):
        trials = tmp_path / "nat.jsonl"
        assert runner.invoke(main, ["gen", "--condition", "natural",
                                    "--out", str(trials)]).exit_code == 0
        lines = trials.read_text().splitlines()
        header = json.loads(lines[0])
        top = header["context"]["objects"][1]
        assert top["id"] == "stack_top"
        top.update(support="table", position=[0.4, 0], yaw_deg=30)
        assert all("objects" not in json.loads(line) for line in lines[1:])
        lines[0] = json.dumps(header)
        trials.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["run", "--in", str(trials),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 0, res.output


    @pytest.mark.parametrize("part, field, value", [
        (("condition",), "gravity", "no"), (("condition",), "speech", "yes")])
    def test_wrongly_typed_flag_exits_1(self, runner, tmp_path, part, field, value):
        # a truthy string must not pass for a boolean: "no" would turn
        # gravity on and change the labels
        trials = tmp_path / "nat.jsonl"
        assert runner.invoke(main, ["gen", "--condition", "natural", "--gravity",
                                    "off", "--out", str(trials)]).exit_code == 0
        lines = trials.read_text().splitlines()
        header = json.loads(lines[0])
        target = header["context"]
        for key in part:
            target = target[key]
        assert type(target[field]) is bool
        target[field] = value
        lines[0] = json.dumps(header)
        trials.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{trials}:1: bad context" in res.output
        assert res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where, field, value", [
        ("context", "variant", "locating"), ("context", "gravity", False),
        ("context", "verb", "push"), ("context", "reverse", True),
        ("context", "speech", False), ("record", "verb", "place")])
    def test_recorded_flag_the_kind_ignores_exits_1(self, runner, tmp_path,
                                                    where, field, value):
        trials = tmp_path / "clut.jsonl"
        assert runner.invoke(main, ["gen", "--condition", "cluttered", "--cone", "45",
                                    "--out", str(trials)]).exit_code == 0
        lines = trials.read_text().splitlines()
        line = 0 if where == "context" else 2
        obj = json.loads(lines[line])
        if where == "context":
            obj["context"]["condition"][field] = value
        else:
            obj["condition"] = {field: value}
        lines[line] = json.dumps(obj)
        trials.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["run", "--in", str(trials),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 1
        assert f"{trials}:{line + 1}: " in res.output
        # a record holds no condition: the file's one condition is the context's
        assert ("takes no" if where == "context" else
                "bad trial record: unexpected field 'condition'") in res.output

    def test_a_context_that_holds_gravity_exits_1(self, runner, tmp_path):
        # gravity is the condition's alone: a context that holds it too, as
        # the retired schema's did, is refused rather than read past, so an
        # edited copy can no longer label one gravity's labels as the other's
        trials, out = tmp_path / "nat.jsonl", tmp_path / "o.jsonl"
        assert runner.invoke(main, ["gen", "--condition", "natural",
                                    "--out", str(trials)]).exit_code == 0
        rewrite(trials, 1, lambda h: h["context"].update(gravity=False))
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"Error: {trials}:1: bad context: unexpected field "
                              "'gravity'; a context holds only condition, act, "
                              "surface and objects\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--condition", "ref-vs-loc", "--variant", "locating", "--cone", "90"],
        ["--condition", "ref-vs-loc", "--cone", "67.5"],
        ["--condition", "cluttered", "--cone", "67.5"],
        ["--condition", "natural"]], ids=["locating", "referential", "cluttered", "natural"])
    def test_a_zero_length_direction_exits_1(self, runner, tmp_path, flags):
        # the loader renormalizes the act's direction, and a vector of
        # length 0 has none
        trials, out = tmp_path / "t.jsonl", tmp_path / "o.jsonl"
        assert runner.invoke(main, ["gen", *flags, "--out", str(trials)]).exit_code == 0
        rewrite(trials, 1, lambda h: h["context"]["act"].update(direction=[0, 0, 0]))
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"Error: {trials}:1: bad context: a zero-length "
                              "vector has no direction\n")
        assert not out.exists()

    OBJECT = ("an object holds only id, kind, height, radius, half_extents, "
              "position, yaw_deg and support")

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(note="x"),
         "bad header: unexpected field 'note'; a trials header holds only schema, "
         "count, seed, id_prefix, context and shared"),
        (lambda h: h.pop("seed"),
         "bad header: missing field 'seed'; a trials header holds only schema, "
         "count, seed, id_prefix, context and shared"),
        (lambda h: h["context"].update(note="x"),
         "bad context: unexpected field 'note'; a context holds only condition, "
         "act, surface and objects"),
        (lambda h: h["context"]["objects"][0].update(color="white"),
         f"bad context: unexpected field 'color'; {OBJECT}"),
        (lambda h: h["context"]["objects"][1].pop("support"),
         f"bad context: missing field 'support'; {OBJECT}"),
        (lambda h: h["context"]["condition"].update(note="x"),
         "bad context: unexpected field 'note'; a condition holds only kind, "
         "variant, robot, speech, reverse, cone_deg, gravity and verb"),
        (lambda h: h["context"]["act"].update(note="x"),
         "bad context: unexpected field 'note'; an act holds only origin, "
         "direction, intent and target"),
        (lambda h: h["context"]["surface"].pop("extent"),
         "bad context: missing field 'extent'; a surface holds only anchor, "
         "normal, axis_u, axis_v and extent"),
    ], ids=["header-extra", "header-no-seed", "context-extra", "object-extra",
            "object-no-support", "condition-extra", "act-extra", "surface-missing"])
    def test_a_trials_header_holds_exactly_its_fields(self, runner, tmp_path,
                                                      edit, message):
        # each edit to a locating 90 deg file once ran with exit 0: an
        # extra field was ignored and a missing support read as the table
        trials = gen(runner, tmp_path, "--variant", "locating", "--cone", "90")
        rewrite(trials, 1, edit)
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"Error: {trials}:1: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.update(note="x"), "unexpected field 'note'"),
        (lambda h: h.update(context={}), "unexpected field 'context'"),
        (lambda h: h.pop("id_prefix"), "missing field 'id_prefix'")],
        ids=["extra", "retired-context", "no-id-prefix"])
    def test_a_responses_header_holds_exactly_its_fields(self, runner, tmp_path,
                                                         edit, field):
        trials = gen(runner, tmp_path, "--variant", "locating", "--cone", "90")
        responses, svg = tmp_path / "r.jsonl", tmp_path / "p.svg"
        assert runner.invoke(main, ["run", "--in", str(trials),
                                    "--out", str(responses)]).exit_code == 0
        rewrite(responses, 1, edit)
        res = runner.invoke(main, ["plot", "--in", str(responses), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"Error: {responses}:1: bad header: {field}; a responses "
                              "header holds only schema, count, id_prefix and shared\n")
        assert not svg.exists()


class TestStats:
    def test_fisher_table(self, runner):
        res = runner.invoke(main, ["stats", "--test", "fisher",
                                   "--table", "3,1,1,3"])
        assert res.exit_code == 0
        assert "p=0.485714" in res.output

    def test_chi2_fixture_rows(self, runner):
        res = runner.invoke(main, ["stats", "--test", "chi2",
                                   "--fixture", "table1",
                                   "--rows", "natural-top,unnatural-top"])
        assert res.exit_code == 0
        assert "dof=2" in res.output

    def test_fisher_fixture_collapse(self, runner):
        res = runner.invoke(main, ["stats", "--test", "fisher",
                                   "--fixture", "table1",
                                   "--rows", "natural-top,unnatural-top",
                                   "--collapse", "correct"])
        assert res.exit_code == 0

    def test_fisher_collapse_report(self, runner):
        res = runner.invoke(main, ["stats", "--test", "fisher",
                                   "--fixture", "table1"])
        assert res.exit_code == 0
        assert res.output.count("fisher[") == 9

    def test_tost(self, runner):
        res = runner.invoke(main, ["stats", "--test", "tost", "--a", "500/1000",
                                   "--b", "500/1000", "--margin", "0.05"])
        assert res.exit_code == 0
        assert "equivalent=True" in res.output

    def test_csv_output(self, runner):
        res = runner.invoke(main, ["stats", "--test", "chi2",
                                   "--table", "10,20,20,10", "--csv"])
        assert res.exit_code == 0
        name, stat, dof, p = res.output.strip().split(",")
        assert name == "chi2" and dof == "1"
        assert float(p) == pytest.approx(0.009823, abs=1e-6)

    @pytest.mark.parametrize("flags, line", [
        (("--test", "tost", "--a", "500/1000", "--b", "500/1000", "--margin", "0.2"),
         "tost: z_lower=8.94427 z_upper=-8.94427 p_lower=1.87205e-19 "
         "p_upper=1.87205e-19 equivalent=True"),
        (("--test", "tost", "--a", "500/1000", "--b", "500/1000", "--margin", "0.2",
          "--csv"), "tost,8.94427,-8.94427,1.87205e-19,1.87205e-19,True"),
        (("--test", "chi2", "--table", "1000000,0,0,1000000"),
         "chi2: statistic=2e+06 dof=1 p=0"),
    ], ids=["tost-far-tails", "tost-csv", "chi2-underflowing-tail"])
    def test_far_tail_prints_its_line(self, runner, flags, line):
        # the symmetric TOST prints equal one-sided p-values
        res = runner.invoke(main, ["stats", *flags])
        assert res.exit_code == 0, res.output
        assert res.output == line + "\n"

    def test_degenerate_table_exits_1(self, runner):
        res = runner.invoke(main, ["stats", "--test", "chi2",
                                   "--table", "0,0,3,4"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("flags", [
        ("--test", "chi2", "--table", f"{HUGE},1,1,1"),
        ("--test", "chi2", "--table", f"1,0,0,{HUGE}"),
        ("--test", "fisher", "--table", f"{HUGE},1,1,1"),
        ("--test", "tost", "--a", f"{HUGE}/{HUGE}", "--b", "1/2"),
    ], ids=["chi2-huge-count", "chi2-underflowing-expected-count", "fisher-huge-count",
            "tost-huge-count"])
    def test_unusable_count_or_parameter_exits_1(self, runner, flags):
        # a count too large for a float: a failed computation on valid input
        res = runner.invoke(main, ["stats", *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error:") and res.output.count("\n") == 1

    def test_bad_flags_exit_2(self, runner):
        assert runner.invoke(main, ["stats", "--test", "chi2"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "tost"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "fisher",
                                    "--table", "1,2,3"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "fisher",
                                    "--table", "3,x,1,3"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "tost",
                                    "--a", "3/x", "--b", "1/2"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "chi2", "--table",
                                    "1,2,3,4,5,6", "--cols", "0"]).exit_code == 2

    @pytest.mark.parametrize("flags, unread", [
        (("--test", "chi2", "--table", "3,1,1,3", "--margin", "nan"), "--margin"),
        (("--test", "fisher", "--table", "3,1,1,3", "--alpha", "7"), "--alpha"),
        (("--test", "chi2", "--table", "3,1,1,3", "--collapse", "correct"), "--collapse"),
        (("--test", "tost", "--a", "3/4", "--b", "1/2", "--fixture", "table1"),
         "--fixture"),
    ], ids=["chi2-margin", "fisher-alpha", "chi2-collapse", "tost-fixture"])
    def test_flag_the_test_does_not_read_exits_2(self, runner, flags, unread):
        res = runner.invoke(main, ["stats", *flags])
        assert res.exit_code == 2
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: --test {flags[1]} does not read {unread}"]


    @pytest.mark.parametrize("flags, message", [
        (("--test", "fisher", "--fixture", "table1", "--collapse", "correct"),
         "--collapse is read only with --rows"),
        (("--test", "chi2", "--table", "3,1,1,3", "--fixture", "table1",
          "--rows", "natural-top,unnatural-top"),
         "--table and --fixture exclude each other"),
        (("--test", "chi2", "--fixture", "table1", "--rows",
          "natural-top,unnatural-top", "--cols", "5"),
         "--cols is read only with --table"),
        (("--test", "chi2", "--fixture", "table1"),
         "--rows is required with --fixture table1"),
        # fixture rows or a table the test cannot use
        (("--test", "chi2", "--fixture", "table1", "--rows", "natural-top"),
         "--rows needs at least two fixture rows"),
        (("--test", "chi2", "--fixture", "table1", "--rows", "natural-top,natural-lid"),
         "unknown fixture row 'natural-lid'; use e.g. natural-top"),
        (("--test", "fisher", "--table", "1,2,3,4,5,6", "--cols", "3"),
         "fisher needs a 2x2 table; use --collapse with fixture rows"),
    ], ids=["fisher-collapse-without-rows", "chi2-table-and-fixture",
            "chi2-cols-without-table", "chi2-fixture-without-rows", "one-fixture-row",
            "unknown-fixture-row", "fisher-not-2x2"])
    def test_flag_read_only_with_another_exits_2(self, runner, flags, message):
        res = runner.invoke(main, ["stats", *flags])
        assert res.exit_code == 2
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {message}"]


class TestPlot:
    def test_pipeline_and_epsilon_monotonicity(self, runner, tmp_path):
        trials = gen(runner, tmp_path)
        resp = tmp_path / "resp.jsonl"
        assert runner.invoke(main, ["run", "--in", str(trials),
                                    "--out", str(resp)]).exit_code == 0
        svg = tmp_path / "plot.svg"
        res = runner.invoke(main, ["plot", "--in", str(resp),
                                   "--kind", "scatter-pies", "--out", str(svg)])
        assert res.exit_code == 0
        assert svg.read_text().startswith("<svg")

    def test_a_failed_write_leaves_no_svg(self, runner, tmp_path, monkeypatch):
        # the second pie fails after the first is written, as a full disk would
        trials, resp, svg = gen(runner, tmp_path), tmp_path / "r.jsonl", tmp_path / "p.svg"
        assert runner.invoke(main, ["run", "--in", str(trials),
                                    "--out", str(resp)]).exit_code == 0
        pie, calls = svgplot._pie, []

        def failing_pie(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return pie(*args)

        monkeypatch.setattr(svgplot, "_pie", failing_pie)
        res = runner.invoke(main, ["plot", "--in", str(resp), "--out", str(svg)])
        assert res.exit_code == 1
        assert res.output == "Error: [Errno 28] No space left on device\n"
        assert len(calls) == 2
        assert not svg.exists()

    def test_a_failed_write_leaves_an_older_svg_unchanged(self, runner, tmp_path,
                                                          monkeypatch):
        # the output is replaced only once the whole plot is written
        trials, resp, svg = gen(runner, tmp_path), tmp_path / "r.jsonl", tmp_path / "p.svg"
        assert runner.invoke(main, ["run", "--in", str(trials),
                                    "--out", str(resp)]).exit_code == 0
        assert runner.invoke(main, ["plot", "--in", str(resp),
                                    "--out", str(svg)]).exit_code == 0
        old = svg.read_bytes()
        pie, calls = svgplot._pie, []

        def failing_pie(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return pie(*args)

        monkeypatch.setattr(svgplot, "_pie", failing_pie)
        res = runner.invoke(main, ["plot", "--in", str(resp), "--out", str(svg)])
        assert res.exit_code == 1
        assert res.output == "Error: [Errno 28] No space left on device\n"
        assert len(calls) == 2
        assert svg.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.svg", "r.jsonl",
                                                             "trials.jsonl"]

    def test_empty_responses_exit_1(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(RESPONSES_HEADER % 0)
        res = runner.invoke(main, ["plot", "--in", str(empty),
                                   "--out", str(tmp_path / "p.svg")])
        assert res.exit_code == 1

    def test_empty_trials_run_exit_1(self, runner, tmp_path):
        # an empty set has no condition, act or scene: the file is refused
        # before any output is written
        empty, out = tmp_path / "empty.jsonl", tmp_path / "o.jsonl"
        empty.write_text('{"schema":"deixis-trials-7","count":0,"context":{}}\n')
        res = runner.invoke(main, ["run", "--in", str(empty), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: {empty}:1: no trial records")
        assert res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, header", [
        ("run", '{"condition":"ref_vs_loc/locating/45deg/baxter","count":8,'
                '"schema":"deixis-trials-1","seed":7}'),
        ("run", '{"condition":"ref_vs_loc/locating/45deg/baxter","context":{},'
                '"count":8,"schema":"deixis-trials-2","seed":7}'),
        ("run", '{"condition":"ref_vs_loc/locating/45deg/baxter","context":{},'
                '"count":8,"id_prefix":"","schema":"deixis-trials-3","seed":7}'),
        ("run", '{"condition":"ref_vs_loc/locating/45deg/baxter","context":{},'
                '"count":8,"id_prefix":"","schema":"deixis-trials-4","seed":7,'
                '"shared":{}}'),
        ("run", '{"condition":"ref_vs_loc/locating/45deg/baxter","context":{},'
                '"count":8,"id_prefix":"","schema":"deixis-trials-5","seed":7,'
                '"shared":{"shown":{"type":"point"}}}'),
        ("run", '{"condition":"natural_vs_unnatural/baxter/gravity-on","context":{},'
                '"count":3,"id_prefix":"","schema":"deixis-trials-6","seed":7,'
                '"shared":{}}'),
        ("plot", '{"count":11,"schema":"deixis-responses-1"}'),
        ("plot", '{"context":{"human":null,"meta":{}},"count":11,"id_prefix":"",'
                 '"schema":"deixis-responses-2"}')],
        ids=["trials-1", "trials-2", "trials-3", "trials-4", "trials-5", "trials-6",
             "responses-1", "responses-2"])
    def test_a_v1_file_is_an_unknown_schema(self, runner, tmp_path, command, header):
        # a retired schema of either file kind, which no code writes or reads:
        # the first of each, the trials schema whose ids held their prefix,
        # the one whose records each held their `shown`, the one that
        # shared an object field only as a whole value, the one that
        # wrapped each point in an object and tagged each `shown` with a
        # type, the one whose header wrote the condition's descriptor and
        # the scene's gravity beside the condition that holds them and
        # whose natural trials showed a labelled configuration, and the
        # responses schema that nested each record's explanation in a
        # `meta` object, shared entry by entry
        old, out = tmp_path / "old.jsonl", tmp_path / "out"
        old.write_text(header + "\n")
        res = runner.invoke(main, [command, "--in", str(old), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        schema = json.loads(header)["schema"]
        assert res.output == f"Error: {old}:1: unknown schema '{schema}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("trial_id", "[1]"), ("predicted", '"bogus"'), ("human", "3"), ("probe", "[]")])
    def test_wrongly_typed_response_exit_1(self, runner, tmp_path, field, value):
        record = {"trial_id": '"t"', "predicted": '"correct"', "human": "null",
                  "condition": '"c"', "probe": "[0.1,0.2]"}
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text(RESPONSES_HEADER % 1 + "{"
                       + ",".join(f'"{k}":{v}' for k, v in record.items()) + "}\n")
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{bad}:2: bad response record" in res.output
        assert res.output.count("\n") == 1
        assert not svg.exists()

    def test_non_numeric_delta_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(RESPONSES_HEADER % 2 + "".join(
            '{"trial_id":"t%d","predicted":"correct","human":null,'
            '"condition":"c","probe":[0.1,0.2],"delta":%s,"separation":0.3}\n'
            % (i, delta) for i, delta in enumerate(("0.05", '"x"'))))
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--kind",
                                   "distance-pies", "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{bad}:3: bad response record" in res.output
        assert res.output.count("\n") == 1
        assert not svg.exists()

    @pytest.mark.parametrize("probe", ['"ab"', "[1e400,0]"])
    def test_bad_probe_exit_1(self, runner, tmp_path, probe):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(RESPONSES_HEADER % 1
                       + '{"trial_id":"t","predicted":"correct","human":null,'
                       f'"condition":"c","probe":{probe}}}\n')
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{bad}:2:" in res.output
        assert not svg.exists()

    @pytest.mark.parametrize("probes", [
        ("[1e308,0]", "[-1e308,0]"), ("[0,0]", "[1e-320,0]"), ("[0,1e308]", "[0,-1e308]")],
        ids=["u-span-overflows", "u-scale-overflows", "v-span-overflows"])
    def test_positions_the_plot_cannot_scale_exit_1(self, runner, tmp_path, probes):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(RESPONSES_HEADER % 2 + "".join(
            '{"trial_id":"t%d","predicted":"correct","human":null,'
            '"probe":%s}\n' % (i, probe) for i, probe in enumerate(probes)))
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: cannot scale the plot: ")
        assert res.output.count("\n") == 1
        assert not svg.exists()

    # `context` in an id names the header's shared fields, and `meta` an
    # entry of a record's explanation, written as a field of its own
    @pytest.mark.parametrize("line, edit", [
        (1, lambda h: h.update(shared=[])),
        (1, lambda h: h.pop("shared")),
        (1, lambda h: h["shared"].update(x_star="x")),
        (1, lambda h: h["shared"].update(predicted="bogus")),
        (1, lambda h: h["shared"].update(human=3)),
        (1, lambda h: h.pop("id_prefix")),
        (1, lambda h: h.update(id_prefix=3)),
        (1, lambda h: h["shared"].update(theta=float("nan"))),
        (1, lambda h: h["shared"].update(x_star=[float("inf"), 0.0])),
        (3, lambda r: r.pop("trial_id")),
        (3, lambda r: r.pop("predicted")),
        (3, lambda r: r.update(probe=[])),
        (3, lambda r: r.update(distance="0.1")),
        (3, lambda r: r.clear() or r.update(trial_id="x")),
        (3, lambda r: r.update(theta=int(HUGE))),
        (3, '{"a":' * 100_000),
    ], ids=["context-list", "context-no-meta", "context-meta-string",
            "context-label", "context-human", "no-id-prefix", "id-prefix-int",
            "context-theta-nan", "context-x-star-inf", "record-no-id",
            "record-no-label", "record-meta-list", "record-distance-string",
            "record-id-only", "record-huge-theta", "record-deep"])
    def test_malformed_v2_responses_exit_1(self, runner, tmp_path, line, edit):
        bad = tmp_path / "bad.jsonl"
        # locating 45, seed 7: the labels vary, so each record holds one
        trials = harness.generate_trials(harness.Condition(
            kind=harness.REF_VS_LOC, variant="locating",
            cone_vertex_angle=math.radians(45)), 8, 7)
        corpus.save_responses(harness.run(trials), str(bad))
        if line > 1:
            unshare(bad)  # so that a record edit replaces a value of its own
        rewrite(bad, line, edit)
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert re.search(f"{re.escape(str(bad))}:{line}: (bad|malformed) ", res.output)
        assert res.output.count("\n") == 1
        assert not svg.exists()



TOST = ("stats", "--test", "tost", "--a", "3/4", "--b", "1/2")
REFUSED_FLAG_VALUES = {  # id: (arguments, --out aside; the error's message)
    "natural-n-0": (("gen", "--condition", "natural", "--n", "0"),
                    "n must be positive, got 0"),
    "natural-n--5": (("gen", "--condition", "natural", "--n", "-5"),
                     "n must be positive, got -5"),
    "cluttered-n-6": (("gen", "--condition", "cluttered", "--cone", "45", "--n", "6"),
                      "n must be a positive multiple of 4, got 6"),
    "cone-50": (("gen", "--condition", "ref-vs-loc", "--cone", "50"),
                "cone vertex angle must be 45, 67.5 or 90 degrees"),
    "cluttered-reverse": (("gen", "--condition", "cluttered", "--cone", "45", "--reverse"),
                          "cluttered takes no reverse"),
    "cluttered-no-speech": (("gen", "--condition", "cluttered", "--cone", "45",
                             "--no-speech"), "cluttered takes no speech"),
    "natural-no-speech": (("gen", "--condition", "natural", "--no-speech"),
                          "natural_vs_unnatural takes no speech"),
    "natural-verb-place": (("gen", "--condition", "natural", "--verb", "place"),
                           "natural_vs_unnatural takes no verb"),
    # NaN must not pass: `d <= theta + nan` is never true, which would
    # label every trial incorrect
    "epsilon--1": (("run", "--epsilon", "-1"), "epsilon must be positive and finite"),
    "epsilon-nan": (("run", "--epsilon", "nan"), "epsilon must be positive and finite"),
    "epsilon-inf": (("run", "--epsilon", "inf"), "epsilon must be positive and finite"),
    "ambiguity-band-nan": (("run", "--ambiguity-band", "nan"),
                           "ambiguity_band must be nonnegative and finite"),
    "ambiguity-band-inf": (("run", "--ambiguity-band", "inf"),
                           "ambiguity_band must be nonnegative and finite"),
    "width-100": (("plot", "--width", "100"), "plot width must exceed"),
    "huge-width": (("plot", "--width", HUGE), "plot width must exceed"),
    "huge-height": (("plot", "--height", HUGE), "plot height must exceed"),
    "one-by-one": (("plot", "--width", "1", "--height", "1"), "plot width must exceed"),
    "zero-width": (("plot", "--width", "0"), "plot width must exceed"),
    "height-of-the-padding": (("plot", "--height", "120"), "plot height must exceed"),
    "negative-width": (("plot", "--width", "-640"), "plot width must exceed"),
    "tost-n-0": (("stats", "--test", "tost", "--a", "1/0", "--b", "1/2"),
                   "require 0 <= x_i <= n_i and n_i > 0"),
    "margin--1": ((*TOST, "--margin", "-1"), "margin must be positive and finite"),
    "margin-nan": ((*TOST, "--margin", "nan"), "margin must be positive and finite"),
    "margin-inf": ((*TOST, "--margin", "inf"), "margin must be positive and finite"),
    "alpha-2": ((*TOST, "--alpha", "2"), "alpha must lie strictly between 0 and 1"),
    "alpha-nan": ((*TOST, "--alpha", "nan"), "alpha must lie strictly between 0 and 1"),
    "alpha-0": ((*TOST, "--alpha", "0"), "alpha must lie strictly between 0 and 1"),
    "alpha-1": ((*TOST, "--alpha", "1"), "alpha must lie strictly between 0 and 1"),
    "chi2-negative-count": (("stats", "--test", "chi2", "--table", "-1,2,3,4"),
                            "counts must be nonnegative integers"),
}


@pytest.mark.parametrize("args, message", REFUSED_FLAG_VALUES.values(),
                         ids=REFUSED_FLAG_VALUES.keys())
def test_refused_flag_value_exits_2(runner, tmp_path, args, message):
    # `run` and `plot` read a file that is not a corpus: a flag checked
    # after the file is read would exit 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a corpus\n")
    out = tmp_path / "out"
    command, *flags = args
    if command in ("run", "plot"):
        flags += ["--in", str(bad)]
    if command != "stats":
        flags += ["--out", str(out)]
    res = runner.invoke(main, [command, *flags])
    assert res.exit_code == 2
    assert res.output.startswith(f"Error: {message}") and res.output.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """An n=4000 cluttered 67.5 deg trials file and its responses, made by
    the CLI."""
    work = tmp_path_factory.mktemp("sweep")
    trials, responses = work / "trials.jsonl", work / "responses.jsonl"
    for args in (["gen", "--condition", "cluttered", "--cone", "67.5", "--n", "4000",
                  "--seed", "1", "--out", str(trials)],
                 ["run", "--in", str(trials), "--out", str(responses)]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
    return {"trials": trials, "responses": responses}


def traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedCommands:
    """`run` predicts each trial as its line is read and `plot` folds each
    record into its pie table, so neither holds the parsed file: a record
    found bad at the end of a sweep file still leaves no output."""

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: lines[-1][:-20], 4001, "malformed record"),
        (lambda lines: lines[-1].replace(b'"shown"', b'"shewn"'), 4001, "bad trial record"),
    ], ids=["cut", "unknown-field"])
    def test_a_bad_last_trial_leaves_no_responses(self, runner, tmp_path, sweep,
                                                  edit, line, message):
        lines = sweep["trials"].read_bytes().splitlines()
        lines[-1] = edit(lines)
        bad, out = tmp_path / "bad.jsonl", tmp_path / "o.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        res = runner.invoke(main, ["run", "--in", str(bad), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: {bad}:{line}: {message}")
        assert res.output.count("\n") == 1
        assert not out.exists()

    def test_a_count_one_too_many_leaves_no_responses(self, runner, tmp_path, sweep):
        bad, out = tmp_path / "bad.jsonl", tmp_path / "o.jsonl"
        bad.write_bytes(sweep["trials"].read_bytes().replace(
            b'"count":4000', b'"count":4001', 1))
        res = runner.invoke(main, ["run", "--in", str(bad), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == f"Error: {bad}:1: header declares 4001 records, found 4000\n"
        assert not out.exists()

    def test_a_bad_last_response_leaves_no_svg(self, runner, tmp_path, sweep):
        lines = sweep["responses"].read_bytes().splitlines()
        lines[-1] = lines[-1].replace(b'"trial_id"', b'"trial"')
        bad, svg = tmp_path / "bad.jsonl", tmp_path / "p.svg"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        res = runner.invoke(main, ["plot", "--in", str(bad), "--kind", "distance-pies",
                                   "--out", str(svg)])
        assert res.exit_code == 1
        assert res.output.startswith(f"Error: {bad}:4001: bad response record: ")
        assert res.output.count("\n") == 1
        assert not svg.exists()

    def test_a_prediction_error_comes_before_a_later_bad_record(self, runner, tmp_path):
        # a context with no objects: the first trial, which moves none, has
        # no mug to predict, and the second moves two objects it lacks
        trials, out = tmp_path / "t.jsonl", tmp_path / "o.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "cluttered", "--cone", "45",
                                   "--n", "4", "--seed", "1", "--out", str(trials)])
        assert res.exit_code == 0, res.output
        rewrite(trials, 1, lambda h: h["context"].update(objects=[]))
        rewrite(trials, 2, lambda r: r.pop("objects", None))
        with pytest.raises(DeixisError, match=f"^{re.escape(str(trials))}:3: "):
            tuple(corpus.load_trials(str(trials)).trials)
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == ("Error: trial cluttered-45deg-baxter-000: "
                              "no object 'mug_object' in the scene\n")
        assert not out.exists()

    def test_run_holds_less_than_the_whole_set(self, tmp_path, sweep):
        trials = str(sweep["trials"])
        out = tmp_path / "o.jsonl"

        def held_run():
            tset = corpus.load_trials(trials)
            tset = replace(tset, trials=tuple(tset.trials))
            corpus.save_responses(harness.run(tset), str(tmp_path / "whole.jsonl"))

        whole = traced_peak(held_run)
        streamed = traced_peak(lambda: CliRunner().invoke(
            main, ["run", "--in", trials, "--out", str(out)], catch_exceptions=False))
        assert out.read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
        # about 2.5 MB of records against 5 MB with every trial held
        assert streamed < 0.7 * whole, (streamed, whole)

    def test_plot_holds_less_than_the_whole_file(self, tmp_path, sweep):
        responses = str(sweep["responses"])
        svg = tmp_path / "p.svg"
        whole = traced_peak(lambda: "".join(svgplot.render(
            list(corpus.load_responses(responses)), svgplot.PlotSpec(kind="distance_pies"))))
        streamed = traced_peak(lambda: CliRunner().invoke(
            main, ["plot", "--in", responses, "--kind", "distance-pies",
                   "--out", str(svg)], catch_exceptions=False))
        # about 1.6 MB of pie table and SVG text against 5.3 MB with every
        # record held
        assert streamed < 0.7 * whole, (streamed, whole)

    def test_run_and_plot_read_through_the_one_reader(self, runner, tmp_path, monkeypatch):
        # each command reads its corpus file once, through the loader that
        # the library, the tests and the benchmark tracer call
        trials = gen(runner, tmp_path)
        responses, svg = tmp_path / "r.jsonl", tmp_path / "p.svg"
        calls = {"load_trials": [], "load_responses": []}
        for name, paths in calls.items():
            def counting(path, load=getattr(corpus, name), paths=paths):
                paths.append(path)
                return load(path)
            monkeypatch.setattr(corpus, name, counting)
        for args in (["run", "--in", str(trials), "--out", str(responses)],
                     ["plot", "--in", str(responses), "--out", str(svg)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        assert calls == {"load_trials": [str(trials)], "load_responses": [str(responses)]}


SWEEP_FLAGS = {"ref-67.5": ["--condition", "ref-vs-loc", "--cone", "67.5"],
               "clut-67.5": ["--condition", "cluttered", "--cone", "67.5"],
               "loc-90": ["--condition", "ref-vs-loc", "--variant", "locating",
                          "--cone", "90"]}


@pytest.fixture(scope="module")
def sweep_trials(tmp_path_factory):
    """The n=4000 trials file of each sweep set, made by the CLI."""
    work = tmp_path_factory.mktemp("sweeps")
    paths = {}
    for name, flags in SWEEP_FLAGS.items():
        paths[name] = work / f"{name}.jsonl"
        res = CliRunner().invoke(main, ["gen", *flags, "--n", "4000", "--seed", "1",
                                        "--out", str(paths[name])])
        assert res.exit_code == 0, res.output
    return paths


class TestStreamedWrites:
    """`gen` and `run` spool each record as it is made, so neither holds
    the set, and an error part way leaves no output and no spool."""

    def test_gen_holds_less_than_the_whole_set(self, tmp_path):
        cond = harness.Condition(kind=harness.CLUTTERED, cone_vertex_angle=math.radians(67.5))
        whole = traced_peak(lambda: tuple(harness.generate_trials(cond, 4000, 1).trials))
        out = tmp_path / "t.jsonl"
        streamed = traced_peak(lambda: CliRunner().invoke(
            main, ["gen", *SWEEP_FLAGS["clut-67.5"], "--n", "4000", "--seed", "1",
                   "--out", str(out)], catch_exceptions=False))
        assert out.exists()
        # about 0.2 MB against 3 MB of trials held
        assert streamed < 0.3 * whole, (streamed, whole)

    @pytest.mark.parametrize("name", sorted(SWEEP_FLAGS))
    def test_run_holds_less_than_the_records(self, tmp_path, sweep_trials, name,
                                             monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the spool's directory
        trials = str(sweep_trials[name])
        whole = traced_peak(lambda: harness.run(corpus.load_trials(trials)))
        out = tmp_path / "r.jsonl"
        streamed = traced_peak(lambda: CliRunner().invoke(
            main, ["run", "--in", trials, "--out", str(out)], catch_exceptions=False))
        assert out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]  # no spool left
        # about 0.4 MB against 2.2-2.4 MB of response records held
        assert streamed < 0.3 * whole, (streamed, whole)

    def test_a_generation_error_leaves_no_trials(self, runner, tmp_path, monkeypatch):
        draw, calls = harness.cluttered_pair, []

        def failing(ellipse, rng):
            calls.append(None)
            if len(calls) == 300:
                raise DeixisError("pair 300 fails")
            return draw(ellipse, rng)

        monkeypatch.setattr(harness, "cluttered_pair", failing)
        out = tmp_path / "t.jsonl"
        res = runner.invoke(main, ["gen", *SWEEP_FLAGS["clut-67.5"], "--n", "400",
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == "Error: pair 300 fails\n"
        assert len(calls) == 300
        assert list(tmp_path.iterdir()) == []

    def test_a_prediction_error_leaves_no_responses_and_no_spool(self, runner, tmp_path,
                                                                 monkeypatch):
        # record 300 of 400, past the first spooled batch, shows a point
        # where a referential trial shows an object
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the spool's directory
        trials = tmp_path / "t.jsonl"
        res = runner.invoke(main, ["gen", *SWEEP_FLAGS["ref-67.5"], "--n", "400",
                                   "--out", str(trials)])
        assert res.exit_code == 0, res.output
        unshare(trials, "shown")
        rewrite(trials, 301, lambda r: r.update(shown=[0.0, 0.0]))
        out = tmp_path / "r.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output.startswith(
            "Error: trial ref_vs_loc-referential-67.5deg-baxter-299: ")
        assert res.output.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_an_output_in_no_directory_is_named(self, runner, tmp_path):
        trials = gen(runner, tmp_path)
        out = tmp_path / "nodir" / "r.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == f"Error: [Errno 2] No such file or directory: '{out}'\n"

    def test_an_output_under_a_plain_file_is_named(self, runner, tmp_path, monkeypatch):
        # the output's folder is a regular file, which root may not write
        # into either: refused before anything is made, naming the path as given
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plainfile").write_text("kept\n")
        res = runner.invoke(main, ["gen", "--condition", "natural",
                                   "--out", "plainfile/x.jsonl"])
        assert res.exit_code == 1
        assert res.output == (f"Error: [Errno {errno.ENOTDIR}] "
                              f"{os.strerror(errno.ENOTDIR)}: 'plainfile/x.jsonl'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["plainfile"]
        assert (tmp_path / "plainfile").read_text() == "kept\n"

    def test_a_new_file_beside_the_output_that_cannot_be_made_is_named(
            self, runner, tmp_path, monkeypatch):
        # the `.deixis-*` file that would be renamed over the output cannot
        # be made: the error names the output the caller asked for, and the
        # output is left as it was
        real_open = os.open

        def refusing(path, flags, *args, **kwargs):
            if os.path.basename(path).startswith(".deixis-"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)
        out = tmp_path / "t.jsonl"
        out.write_text("known bytes\n")
        res = runner.invoke(main, ["gen", "--condition", "natural", "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == (f"Error: [Errno {errno.ENOSPC}] "
                              f"{os.strerror(errno.ENOSPC)}: '{out}'\n")
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "known bytes\n"

    @staticmethod
    def counted(monkeypatch, module, name):
        """Count the calls of `module.name` in a list."""
        work, calls = getattr(module, name), []

        def counting(*args):
            calls.append(None)
            return work(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("command, work", [
        ("gen", (harness, "make_trial")), ("run", (harness, "_predict")),
        ("plot", (svgplot, "render"))])
    def test_an_output_in_no_directory_is_refused_first(self, runner, tmp_path, sweep,
                                                        monkeypatch, command, work):
        # the output is checked before the first trial is made or predicted
        # or the first pie drawn: a sweep set is refused at once
        args = {"gen": ["gen", *SWEEP_FLAGS["clut-67.5"], "--n", "4000"],
                "run": ["run", "--in", str(sweep["trials"])],
                "plot": ["plot", "--in", str(sweep["responses"])]}[command]
        calls = self.counted(monkeypatch, *work)
        out = tmp_path / "nodir" / "o"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == f"Error: [Errno 2] No such file or directory: '{out}'\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, work", [
        ("gen", (harness, "make_trial")), ("run", (harness, "_predict")),
        ("plot", (svgplot, "render"))])
    @pytest.mark.parametrize("name", ["new/", "old.jsonl/", "new/.", "new/..",
                                      "old.jsonl/.."])
    def test_an_output_named_as_a_directory_is_refused_first(
            self, runner, tmp_path, sweep, monkeypatch, command, work, name):
        # `open` refuses a name that ends in a separator, `.` or `..`, and
        # so does the output check, before any work: the resolved path
        # would drop the separator and write a plain file.  (click refuses
        # an existing directory itself.)
        args = {"gen": ["gen", "--condition", "natural"],
                "run": ["run", "--in", str(sweep["trials"])],
                "plot": ["plot", "--in", str(sweep["responses"])]}[command]
        (tmp_path / "old.jsonl").write_text("known bytes\n")
        calls = self.counted(monkeypatch, *work)
        out = f"{tmp_path}{os.sep}{name}"
        res = runner.invoke(main, [*args, "--out", out])
        assert res.exit_code == 1
        assert res.output == f"Error: [Errno {errno.EISDIR}] Is a directory: '{out}'\n"
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["old.jsonl"]
        assert (tmp_path / "old.jsonl").read_text() == "known bytes\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write to any directory")
    def test_an_output_in_a_read_only_directory_is_refused_first(self, runner, tmp_path,
                                                                 sweep, monkeypatch):
        calls = self.counted(monkeypatch, harness, "_predict")
        folder = tmp_path / "read-only"
        folder.mkdir()
        folder.chmod(0o555)
        out = folder / "r.jsonl"
        res = runner.invoke(main, ["run", "--in", str(sweep["trials"]), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == f"Error: [Errno 13] Permission denied: '{out}'\n"
        assert calls == []
        assert list(folder.iterdir()) == []
