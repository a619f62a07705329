#!/usr/bin/env python3
"""End-to-end benchmark of the deixis CLI pipeline.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  One client drives the real CLI
(`python -m deixis.cli`) as subprocesses, one command at a time, in a closed
loop: a pass of the workload's commands, then the next pass, until the
measuring time is spent.  Every output is checked; the last line printed is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1`, passes alternate between the plain CLI and
`perfbench/tracer.py`, and the metrics are the per-layer ones taken from the
traced passes.  A run record with versions, the source hash and every
sample behind each metric is written to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_SAMPLES = 5
SETUP_ARGV = [sys.executable, "-c", "import deixis.cli"]
IMPORT_MODULES = {"numpy": "numpy", "click": "click", "deixis": "deixis",
                  "svgplot": "deixis.svgplot"}
CLI_KINDS = ("gen", "run", "plot", "stats")


@dataclass
class Command:
    kind: str
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    traced: bool
    commands: list[Command] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)


class Client:
    """Runs one command at a time through `spawner.py` and tallies
    attempted and failed commands."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait(timeout=30)
        self._spawner.stdout.close()

    def spawn(self, kind: str, argv: list[str]) -> Command:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "cwd": str(self.workdir),
                   "stdout": str(out_path), "stderr": str(err_path)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        answer = json.loads(self._spawner.stdout.readline())
        return Command(kind, argv, answer["wall_s"], answer["rss_mb"], answer["code"],
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

    def judge(self, cmd: Command, errors: list[str] = ()) -> None:
        """Count one attempted command; it fails on a non-zero exit or a
        failed output check."""
        self.attempted += 1
        if cmd.code != 0:
            errors = [f"exit {cmd.code}: {cmd.stderr.strip()[-300:]}", *errors]
        if errors:
            self.failed += 1
            self.failures.append(f"{' '.join(cmd.argv[1:])}: {'; '.join(errors)}")


class WorkloadRun:
    """One benchmark run: the passes of a workload and their output checks."""

    def __init__(self, workload: Workload, seed: int, client: Client) -> None:
        self.workload = workload
        self.seed = seed
        self.client = client
        self.reference: dict[str, dict] = {}
        self.expected_stats: dict[tuple, tuple[dict, list[str]]] = {}
        self.digests: dict[str, str] = {}
        self.own_stats: dict[str, tuple[str, ...] | None] = {}
        self.records: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.setup_times: list[float] = []
        self.traced_cmds = 0

    def _cli(self, kind: str, args: list[str], traced: bool, p: Pass) -> Command:
        if traced:
            self.traced_cmds += 1
            spans = self.client.workdir / f"trace-{self.traced_cmds}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "deixis.cli", *args]
        cmd = self.client.spawn(kind, argv)
        p.commands.append(cmd)
        if traced and cmd.code == 0:
            p.traces.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        return cmd

    def _same_as_first_pass(self, path: Path) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(path.name, digest)
        return [] if digest == first else [f"{path.name} differs from the first pass"]

    def _stats(self, args: tuple[str, ...], traced: bool, p: Pass) -> None:
        if args not in self.expected_stats:
            self.expected_stats[args] = checks.expected_stats(args)
        expected, oracle_errors = self.expected_stats[args]
        cmd = self._cli("stats", list(args), traced, p)
        errors = []
        if cmd.code == 0:
            errors = oracle_errors + checks.check_stats_output(cmd.stdout, expected)
        self.client.judge(cmd, errors)

    def one_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        wd = self.client.workdir
        for tset in self.workload.sets:
            trials, responses, svg = (wd / f"{tset.name}.{ext}"
                                      for ext in ("trials.jsonl", "responses.jsonl", "svg"))
            for path in (trials, responses, svg):
                path.unlink(missing_ok=True)
            # set-up samples spread over the run: the host's speed holds for
            # seconds, so back-to-back samples would all see one state
            self.setup_times.append(_setup_time(self.client))
            first = tset.name not in self.reference

            cmd = self._cli("gen", tset.gen_args(self.seed, trials.name), traced, p)
            errors = []
            if cmd.code == 0:
                errors = self._same_as_first_pass(trials)
                if first:
                    errors += checks.check_resave_trials(str(trials), self.seed,
                                                         str(wd / "resave"))
                    self.sizes[trials.name] = trials.stat().st_size
            self.client.judge(cmd, errors)

            if first:
                self.reference[tset.name] = checks.reference_counts(tset, self.seed)
            cmd = self._cli("run", ["run", "--in", trials.name, "--out", responses.name],
                            traced, p)
            errors = []
            if cmd.code == 0:
                errors = (checks.check_run_output(cmd.stdout, self.reference[tset.name])
                          + checks.check_counts(str(trials), str(responses))
                          + self._same_as_first_pass(responses))
                if first:
                    errors += checks.check_resave_responses(str(responses),
                                                            str(wd / "resave"))
                    self.sizes[responses.name] = responses.stat().st_size
                    self.records[tset.name] = sum(
                        sum(row.values()) for row in self.reference[tset.name].values())
            self.client.judge(cmd, errors)

            if tset.own_stats:
                if tset.name not in self.own_stats and cmd.code == 0:
                    table = checks.side_table(str(responses))
                    self.own_stats[tset.name] = (None if table is None
                                                 else checks.table_stats_args(table))
                if self.own_stats.get(tset.name):
                    self._stats(self.own_stats[tset.name], traced, p)

            cmd = self._cli("plot", ["plot", "--in", responses.name, "--kind",
                                     tset.plot_kind, "--out", svg.name], traced, p)
            errors = []
            if cmd.code == 0:
                errors = self._same_as_first_pass(svg)
                if not svg.read_text(encoding="utf-8").startswith("<svg"):
                    errors.append(f"{svg.name} is not an SVG document")
            self.client.judge(cmd, errors)

        for args in self.workload.stats:
            self._stats(args, traced, p)
        return p

    def bytes_per_trial(self, suffix: str) -> float:
        size = sum(v for k, v in self.sizes.items() if k.endswith(suffix))
        return size / sum(self.records.values())


# End-to-end times other than set-up are the run's mean, its total time over
# its count: the host's CPU speed swings between a fast and a slow state over
# seconds, and a mean follows the share of slow time smoothly where a median
# jumps between the two.  Every other metric is the run's median.
MEAN_METRICS = {f"{kind}_s" for kind in ("pipeline", *CLI_KINDS)}


def _statistic(name: str) -> str:
    return "mean" if name in MEAN_METRICS else "median"


def reported(name: str, values: list[float]) -> float:
    if name in MEAN_METRICS:
        return statistics.fmean(values)
    return statistics.median(values)


def _summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "mean": statistics.fmean(values),
           "samples": len(values), "min": min(values), "max": max(values),
           "values": values}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def _setup_time(client: Client) -> float:
    """One fresh interpreter importing the CLI."""
    cmd = client.spawn("setup", SETUP_ARGV)
    client.judge(cmd)
    return cmd.wall_s


def _import_times(client: Client) -> dict[str, list[float]]:
    """Cumulative import times (ms) from `python -X importtime`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import deixis.cli"]
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        cmd = client.spawn("setup", argv)
        found = {}
        for line in cmd.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = (part.strip() for part in line.split("|"))
            if cumulative.isdigit():
                found.setdefault(module, int(cumulative) / 1000.0)
        missing = [m for m in IMPORT_MODULES.values() if m not in found]
        client.judge(cmd, [f"no import time for {missing}"] if missing else [])
        for key, module in IMPORT_MODULES.items():
            if module in found:
                samples[key].append(found[module])
    return samples


def layer_totals(p: Pass) -> dict[str, float]:
    """Per-layer self time, calls and counters summed over a traced pass.

    Self time is a span's duration minus the time its child spans cover;
    one command runs on one thread, so children never overlap.
    """
    totals: dict[str, float] = defaultdict(float)
    for trace in p.traces:
        names, spans = trace["names"], trace["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (index, start, end, _), covered in zip(spans, child_time):
            totals[f"{names[index]}.self_s"] += end - start - covered
            totals[f"{names[index]}.calls"] += 1
        for key, value in trace["counters"].items():
            totals[key] += value
    builds = totals["scene.stable_region.calls"]
    totals["scene.stable_region.reuse_ratio"] = (
        totals["scene.stable_region.distinct_scenes"] / builds if builds else 0.0)
    return totals


def end_to_end(run: WorkloadRun, passes: list[Pass]) -> dict[str, list]:
    samples: dict[str, list] = {"setup_s": run.setup_times,
                                "pipeline_s": [p.pipeline_s for p in passes],
                                "peak_rss_mb": [p.peak_rss_mb for p in passes]}
    for kind in CLI_KINDS:
        samples[f"{kind}_s"] = [c.wall_s for p in passes for c in p.commands
                                if c.kind == kind]
    samples["trials_bytes_per_trial"] = [run.bytes_per_trial(".trials.jsonl")]
    samples["responses_bytes_per_trial"] = [run.bytes_per_trial(".responses.jsonl")]
    return samples


def per_layer(passes: list[Pass], names: list[str],
              imports: dict[str, list[float]]) -> dict[str, list]:
    traced = [p for p in passes if p.traced]
    totals = [layer_totals(p) for p in traced]
    samples: dict[str, list] = {}
    for name in names:
        if name.startswith("cli.import."):
            samples[name] = imports[name[len("cli.import."):-len("_ms")]]
        elif name != "trace.overhead_s":
            samples[name] = [t.get(name, 0.0) for t in totals]
    plain = [p.pipeline_s for p in passes if not p.traced]
    samples["trace.overhead_s"] = [statistics.median(p.pipeline_s for p in traced)
                                   - statistics.median(plain)]
    return samples


def _source_ids() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "deixis" / "cli.py").is_file():
        print(f"perfbench: no deixis sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    global checks
    import checks  # noqa: PLC0415 - needs SRC on sys.path

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(workdir)
    run = WorkloadRun(workload, args.seed, client)
    try:
        _setup_time(client)  # untimed: leaves the bytecode cache written
        imports = _import_times(client) if args.trace else {}
        modes = (False, True) if args.trace else (False,)
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            # alternate which mode goes first, so neither always follows the checks
            order = modes if len(passes) % (2 * len(modes)) == 0 else modes[::-1]
            passes.extend(run.one_pass(traced) for traced in order)
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        client.close()
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if args.trace:
        samples = per_layer(passes, names, imports)
    else:
        samples = end_to_end(run, passes)
    if set(samples) != set(names):
        print(f"perfbench: metrics {sorted(set(samples) ^ set(names))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": reported(m["name"], samples[m["name"]]),
                           "unit": m["unit"]} for m in declared}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **_source_ids(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "n_per_set": {t.name: t.n for t in workload.sets},
        "passes": {"plain": sum(not p.traced for p in passes),
                   "traced": sum(p.traced for p in passes)},
        "attempted": client.attempted, "failed": client.failed,
        "error_rate": client.failed / client.attempted,
        "failures": client.failures[:20],
        "metrics": {name: {**_summary(samples[name]), "unit": metrics[name]["unit"]}
                    for name in names},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in client.failures[:20]:
        print(f"FAILED {failure}")
    for m in declared:
        value, unit = metrics[m["name"]]["value"], m["unit"]
        print(f"{workload.name} {m['name']} = {value:.6g} {unit} "
              f"({_statistic(m['name'])} of "
              f"{record['metrics'][m['name']]['samples']})")
    print(f"{workload.name} error_rate = {record['error_rate']:.6g} "
          f"({client.failed}/{client.attempted} commands)")
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted, "failed": client.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
