"""Tests of the benchmark itself: its checks catch corrupted outputs, and the
metrics it prints are the ones BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from deixis import corpus, harness  # noqa: E402
from workloads import TABLE1_STATS, TrialSet  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 5
SET = TrialSet("loc-67.5", "ref-vs-loc", "locating", "67.5", n=8)


@pytest.fixture()
def outputs(tmp_path):
    """A trials file, its responses file and the matching `run` output."""
    trials = harness.generate_trials(checks.condition(SET), SET.n, SEED)
    records = harness.run(trials)
    paths = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    corpus.save_trials(trials, str(paths[0]), seed=SEED)
    corpus.save_responses(records, str(paths[1]))
    table = harness.aggregate(records)
    run_out = "".join(
        f"{key}: {len(records)} responses ("
        + " ".join(f"{lbl}={c}" for lbl, c in zip(table.labels, row) if c) + ")\n"
        for key, row in table.rows)
    return paths, run_out


def test_checks_pass_on_good_outputs(outputs, tmp_path):
    (trials, responses), run_out = outputs
    assert checks.check_run_output(run_out, checks.reference_counts(SET, SEED)) == []
    assert checks.check_counts(str(trials), str(responses)) == []
    assert checks.check_resave_trials(str(trials), SEED, str(tmp_path / "x")) == []
    assert checks.check_resave_responses(str(responses), str(tmp_path / "x")) == []


def test_dropped_response_trips_count_check(outputs):
    (trials, responses), _ = outputs
    lines = responses.read_text().splitlines(keepends=True)
    responses.write_text("".join(lines[:-1]))
    assert checks.check_counts(str(trials), str(responses))
    header = json.loads(lines[0])
    header["count"] -= 1
    responses.write_text(json.dumps(header) + "\n" + "".join(lines[1:-1]))
    assert checks.check_counts(str(trials), str(responses))


def test_wrong_label_count_trips_run_check(outputs):
    _, run_out = outputs
    expected = checks.reference_counts(SET, SEED)
    label = next(iter(next(iter(expected.values()))))
    bad = re.sub(rf"{label}=(\d+)", lambda m: f"{label}={int(m.group(1)) + 1}", run_out)
    assert checks.check_run_output(bad, expected)
    assert checks.check_run_output("garbage\n", expected)


def test_unstable_bytes_trip_resave_checks(outputs, tmp_path):
    (trials, responses), _ = outputs
    for path in (trials, responses):
        path.write_text(path.read_text().replace(":", ": ", 1))
    assert checks.check_resave_trials(str(trials), SEED, str(tmp_path / "x"))
    assert checks.check_resave_responses(str(responses), str(tmp_path / "x"))


@pytest.mark.parametrize("args", TABLE1_STATS)
def test_stats_match_scipy_and_a_wrong_digit_trips(args):
    from click.testing import CliRunner
    from deixis.cli import main

    expected, oracle_errors = checks.expected_stats(args)
    assert oracle_errors == []
    printed = CliRunner().invoke(main, list(args)).output
    assert checks.check_stats_output(printed, expected) == []
    corrupted = re.sub(r"p(_lower)?=(\d)", lambda m: f"p{m.group(1) or ''}="
                       f"{(int(m.group(2)) + 1) % 10}", printed, count=1)
    assert corrupted != printed
    assert checks.check_stats_output(corrupted, expected)
    if len(expected) > 1:
        assert checks.check_stats_output(printed.splitlines()[0], expected)


def test_side_table_feeds_a_valid_chi2(outputs):
    (_, responses), _ = outputs
    table = checks.side_table(str(responses))
    if table is not None:
        _, oracle_errors = checks.expected_stats(checks.table_stats_args(table))
        assert oracle_errors == []


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_are_valid():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-locating",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["scene.StableRegion.contains.calls"] == 8000
        assert metrics["scene.StableRegion.nearest.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
