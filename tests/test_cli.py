import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from deixis import corpus
from deixis.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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
    ], ids=["natural-seed", "cluttered-seed", "natural-cone-30",
            "natural-cone-45", "cone-30"])
    def test_bad_flags_exit_2(self, runner, tmp_path, flags, message):
        out = tmp_path / "x.jsonl"
        res = runner.invoke(main, ["gen", *flags, "--out", str(out)])
        assert res.exit_code == 2
        assert message in res.output
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
        records = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert all(r["predicted"] == "correct" for r in records)

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

    def test_corrupt_input_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        res = runner.invoke(main, ["run", "--in", str(bad),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 1
        assert "schema" in res.output.lower()

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

    def test_degenerate_table_exits_1(self, runner):
        res = runner.invoke(main, ["stats", "--test", "chi2",
                                   "--table", "0,0,3,4"])
        assert res.exit_code == 1

    def test_bad_flags_exit_2(self, runner):
        assert runner.invoke(main, ["stats", "--test", "chi2"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "tost"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "fisher",
                                    "--table", "1,2,3"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "fisher",
                                    "--table", "3,x,1,3"]).exit_code == 2
        assert runner.invoke(main, ["stats", "--test", "tost",
                                    "--a", "3/x", "--b", "1/2"]).exit_code == 2


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
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"schema":"deixis-trials-1","count":0}\n')
        res = runner.invoke(main, ["run", "--in", str(empty),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error:") and res.output.count("\n") == 1

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
