import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from deixis import corpus, harness
from deixis.cli import MAX_N, main

HUGE = "1" + "0" * 400  # a count no float can hold


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
        (("--condition", "ref-vs-loc", "--cone", "45", "--verb", "push"),
         "takes no verb"),
        (("--condition", "ref-vs-loc", "--cone", "45", "--gravity", "off"),
         "takes no gravity off"),
    ], ids=["natural-seed", "cluttered-seed", "natural-cone-30",
            "natural-cone-45", "cone-30", "cluttered-variant", "natural-variant",
            "ref-vs-loc-verb", "ref-vs-loc-gravity"])
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

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_natural_non_positive_n_exits_1(self, runner, tmp_path, n):
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", "--condition", "natural", "--n", n,
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert "n must be positive" in res.output
        assert not out.exists()

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
        ("--condition", "verbs", "--verb", "push")],
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
        # the label every record shares is written once, in the context
        assert json.loads(out.read_text().splitlines()[0])["context"]["predicted"] == "correct"
        assert [r.predicted for r in corpus.load_responses(str(out))] == ["correct"] * 8

    def test_v1_fixture_runs_like_v2(self, runner, tmp_path):
        # written by the v1 writer from the same flags as `gen` below
        v1 = Path(__file__).parent / "fixtures" / "locating-45-n8-seed7.v1.jsonl"
        v2 = gen(runner, tmp_path, "--variant", "locating")
        assert corpus.load_trials(str(v1)) == corpus.load_trials(str(v2))
        outputs = []
        for trials, out in ((v1, tmp_path / "r1.jsonl"), (v2, tmp_path / "r2.jsonl")):
            res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append((res.output, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_v1_record_of_another_set_exits_1(self, runner, tmp_path):
        v1 = Path(__file__).parent / "fixtures" / "locating-45-n8-seed7.v1.jsonl"
        lines = v1.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["condition"]["robot"] = "kuka"
        lines[2] = json.dumps(rec)
        mixed, out = tmp_path / "mixed.jsonl", tmp_path / "o.jsonl"
        mixed.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["run", "--in", str(mixed), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output.startswith(f"Error: {mixed}:3: bad trial record: "
                                     "differs from the first record in condition;")
        assert res.output.count("\n") == 1
        assert not out.exists()

    def test_corrupt_input_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        res = runner.invoke(main, ["run", "--in", str(bad),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 1
        assert "schema" in res.output.lower()

    @pytest.mark.parametrize("line, edit, message", [
        (2, lambda r: r["shown"].update(position=[int(HUGE), 0]), "bad trial record"),
        (1, lambda h: h["context"]["condition"].update(cone_deg=int(HUGE)),
         "bad context"),
        (2, "[" * 100_000, "malformed record"),
        (1, "[" * 100_000, "malformed header"),
    ], ids=["huge-shown-position", "huge-cone", "deep-record", "deep-header"])
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

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "-1"), ("--epsilon", "nan"), ("--epsilon", "inf"),
        ("--ambiguity-band", "nan"), ("--ambiguity-band", "inf")])
    def test_bad_resolver_parameter_exits_1(self, runner, tmp_path, flag, value):
        # NaN must not pass: `d <= theta + nan` is never true, which would
        # label every trial incorrect
        trials = gen(runner, tmp_path)
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), flag, value,
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "finite" in res.output and res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, line, edit", [
        (("ref-vs-loc", "--cone", "45"), 2,
         lambda r: r.update(shown={"type": "point", "position": [0.1, 0.2]})),
        (("natural",), 2,
         lambda r: r.update(shown={"type": "object", "id": "stack_top"})),
        (("cluttered", "--cone", "45"), 1,
         lambda h: h["context"]["objects"][0].update(id="cup")),
        (("ref-vs-loc", "--cone", "45"), 2,
         lambda r: r.update(shown={"type": "object", "id": "cup"})),
    ], ids=["referential-point", "natural-object", "cluttered-renamed-mug",
            "referential-absent-id"])
    def test_shown_that_does_not_fit_exits_1(self, runner, tmp_path, flags, line, edit):
        trials = tmp_path / "t.jsonl"
        assert runner.invoke(main, ["gen", "--condition", *flags,
                                    "--out", str(trials)]).exit_code == 0
        rewrite(trials, line, edit)
        first = json.loads(trials.read_text().splitlines()[1])["id"]
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["run", "--in", str(trials), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: trial {first}: ")
        assert res.output.count("\n") == 1
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
        ((), "gravity", "no"), (("condition",), "speech", "yes")])
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
        ("context", "verb", "push"), ("record", "verb", "place")])
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
        ("--test", "tost", "--a", "3/4", "--b", "1/2", "--margin", "nan"),
        ("--test", "tost", "--a", "3/4", "--b", "1/2", "--margin", "inf"),
        ("--test", "tost", "--a", "3/4", "--b", "1/2", "--alpha", "nan"),
        ("--test", "tost", "--a", "3/4", "--b", "1/2", "--alpha", "0"),
        ("--test", "tost", "--a", "3/4", "--b", "1/2", "--alpha", "1"),
    ], ids=["chi2-huge-count", "chi2-underflowing-expected-count", "fisher-huge-count", "tost-huge-count",
            "margin-nan", "margin-inf", "alpha-nan", "alpha-0", "alpha-1"])
    def test_unusable_count_or_parameter_exits_1(self, runner, flags):
        # a count too large for a float, or a non-finite parameter
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

    def test_empty_responses_exit_1(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"schema":"deixis-responses-1","count":0}\n')
        res = runner.invoke(main, ["plot", "--in", str(empty),
                                   "--out", str(tmp_path / "p.svg")])
        assert res.exit_code == 1

    def test_empty_trials_run_exit_1(self, runner, tmp_path):
        # an empty set has no condition, act or scene: the file is refused
        # before any output is written
        empty, out = tmp_path / "empty.jsonl", tmp_path / "o.jsonl"
        for header in ('{"schema":"deixis-trials-1","count":0}',
                       '{"schema":"deixis-trials-2","count":0,"context":{}}'):
            empty.write_text(header + "\n")
            res = runner.invoke(main, ["run", "--in", str(empty), "--out", str(out)])
            assert res.exit_code == 1
            assert isinstance(res.exception, SystemExit)
            assert res.output.startswith(f"Error: {empty}:1: no trial records")
            assert res.output.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("trial_id", "[1]"), ("predicted", '"bogus"'), ("human", "3"), ("meta", "[]")])
    def test_wrongly_typed_response_exit_1(self, runner, tmp_path, field, value):
        record = {"trial_id": '"t"', "predicted": '"correct"', "human": "null",
                  "meta": '{"condition":"c","probe":[0.1,0.2]}'}
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"deixis-responses-1","count":1}\n{'
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
        bad.write_text('{"schema":"deixis-responses-1","count":2}\n' + "".join(
            '{"trial_id":"t%d","predicted":"correct","human":null,"meta":'
            '{"condition":"c","probe":[0.1,0.2],"delta":%s,"separation":0.3}}\n'
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
        bad.write_text('{"schema":"deixis-responses-1","count":1}\n'
                       '{"trial_id":"t","predicted":"correct","human":null,'
                       f'"meta":{{"condition":"c","probe":{probe}}}}}\n')
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{bad}:2:" in res.output
        assert not svg.exists()

    @pytest.mark.parametrize("line, edit", [
        (1, lambda h: h.update(context=[])),
        (1, lambda h: h["context"].pop("meta")),
        (1, lambda h: h["context"].update(meta="x")),
        (1, lambda h: h["context"].update(predicted="bogus")),
        (1, lambda h: h["context"].update(human=3)),
        (1, lambda h: h.pop("id_prefix")),
        (1, lambda h: h.update(id_prefix=3)),
        (1, lambda h: h["context"]["meta"].update(theta=float("nan"))),
        (1, lambda h: h["context"]["meta"].update(x_star=[float("inf"), 0.0])),
        (3, lambda r: r.pop("trial_id")),
        (3, lambda r: r.pop("predicted")),
        (3, lambda r: r.update(meta=[])),
        (3, lambda r: r["meta"].update(distance="0.1")),
        (3, lambda r: r.clear() or r.update(trial_id="x")),
        (3, lambda r: r["meta"].update(theta=int(HUGE))),
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
        rewrite(bad, line, edit)
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(bad), "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert re.search(f"{re.escape(str(bad))}:{line}: (bad|malformed) ", res.output)
        assert res.output.count("\n") == 1
        assert not svg.exists()

    @pytest.mark.parametrize("flags, dimension", [
        (("--width", HUGE), "width"), (("--height", HUGE), "height"),
        (("--width", "1", "--height", "1"), "width"), (("--width", "0"), "width"),
        (("--height", "120"), "height"), (("--width", "-640"), "width")],
        ids=["huge-width", "huge-height", "one-by-one", "zero-width",
             "height-of-the-padding", "negative-width"])
    def test_size_with_no_drawing_area_exits_1(self, runner, tmp_path, flags, dimension):
        resp = tmp_path / "resp.jsonl"
        corpus.save_responses(harness.run(harness.generate_trials(
            harness.Condition(kind=harness.NATURAL), 3, 0)), str(resp))
        svg = tmp_path / "p.svg"
        res = runner.invoke(main, ["plot", "--in", str(resp), *flags, "--out", str(svg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"Error: plot {dimension} ")
        assert res.output.count("\n") == 1
        assert not svg.exists()

    def test_v1_fixture_plots_like_its_v2_resave(self, runner, tmp_path):
        v1 = Path(__file__).parent / "fixtures" / "natural-and-locating-45-n8-seed7.responses.v1.jsonl"
        v2 = tmp_path / "v2.jsonl"
        corpus.save_responses(corpus.load_responses(str(v1)), str(v2))
        svgs = []
        for resp in (v1, v2):
            svg = tmp_path / f"{resp.stem}.svg"
            res = runner.invoke(main, ["plot", "--in", str(resp), "--out", str(svg)])
            assert res.exit_code == 0, res.output
            svgs.append(svg.read_bytes())
        assert svgs[0] == svgs[1]
