"""Output checks for the benchmark.  Each returns a list of failure messages;
an empty list means the output is correct.

The checks use the program's own library in-process (reference predictions,
byte-stable re-saves) and `scipy.stats` as the oracle for the statistics.
The caller puts the checkout's `src` directory on `sys.path` first.
"""
from __future__ import annotations

import json
import math
import os
import re

from deixis import corpus, harness, stats
from deixis.errors import DeixisError

from workloads import TrialSet

_KINDS = {"ref-vs-loc": harness.REF_VS_LOC, "cluttered": harness.CLUTTERED,
          "natural": harness.NATURAL}
_RUN_LINE = re.compile(r"^(\S+): (\d+) responses \((.*)\)$")
_TOKEN = re.compile(r"(\w+)=(\S+)")
STATS_TOL = 1e-9


def condition(tset: TrialSet) -> harness.Condition:
    return harness.Condition(
        kind=_KINDS[tset.condition], variant=tset.variant,
        cone_vertex_angle=None if tset.cone is None else math.radians(float(tset.cone)),
        gravity=tset.gravity == "on")


def reference_counts(tset: TrialSet, seed: int) -> dict[str, dict[str, int]]:
    """Label counts of `aggregate(run(generate_trials(...)))` for a set."""
    table = harness.aggregate(
        harness.run(harness.generate_trials(condition(tset), tset.n, seed)),
        "condition")
    return {key: {lbl: c for lbl, c in zip(table.labels, row) if c}
            for key, row in table.rows}


def parse_run_output(text: str) -> dict[str, dict[str, int]]:
    out = {}
    for line in text.splitlines():
        m = _RUN_LINE.match(line)
        if m is None:
            raise ValueError(f"unexpected run output line {line!r}")
        out[m.group(1)] = {k: int(v) for k, v in
                           (tok.split("=") for tok in m.group(3).split())}
    return out


def check_run_output(text: str, expected: dict[str, dict[str, int]]) -> list[str]:
    try:
        got = parse_run_output(text)
    except ValueError as exc:
        return [str(exc)]
    if got != expected:
        return [f"run label counts {got} differ from in-process {expected}"]
    return []


def _record_count(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    declared = json.loads(lines[0])["count"]
    if declared != len(lines) - 1:
        raise ValueError(f"{path}: header count {declared}, {len(lines) - 1} records")
    return declared


def check_counts(trials_path: str, responses_path: str) -> list[str]:
    try:
        n_trials, n_responses = _record_count(trials_path), _record_count(responses_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable corpus: {exc}"]
    if n_trials != n_responses:
        return [f"{n_responses} responses for {n_trials} trials"]
    return []


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_resave_trials(path: str, seed: int, scratch: str) -> list[str]:
    return _check_resave(path, scratch,
                         lambda: corpus.save_trials(corpus.load_trials(path), scratch,
                                                    seed=seed))


def check_resave_responses(path: str, scratch: str) -> list[str]:
    return _check_resave(path, scratch,
                         lambda: corpus.save_responses(corpus.load_responses(path), scratch))


def _check_resave(path: str, scratch: str, resave) -> list[str]:
    try:
        resave()
        same = _read_bytes(scratch) == _read_bytes(path)
        os.remove(scratch)
    except (DeixisError, OSError, ValueError) as exc:
        return [f"cannot re-save {path}: {exc}"]
    return [] if same else [f"re-saving {path} changed its bytes"]


def side_table(responses_path: str) -> tuple[tuple[int, ...], ...] | None:
    """Label counts of probes left vs right of the pointing target, over the
    labels that occur; None when fewer than two labels occur."""
    rows = {True: {}, False: {}}
    for rec in corpus.load_responses(responses_path):
        left = rec.meta["probe"][0] < rec.meta["x_star"][0]
        rows[left][rec.predicted] = rows[left].get(rec.predicted, 0) + 1
    labels = [lbl for lbl in harness.LABELS if rows[True].get(lbl) or rows[False].get(lbl)]
    table = tuple(tuple(rows[side].get(lbl, 0) for lbl in labels) for side in (True, False))
    if len(labels) < 2 or 0 in map(sum, table):
        return None
    return table


def table_stats_args(table: tuple[tuple[int, ...], ...]) -> tuple[str, ...]:
    return ("stats", "--test", "chi2", "--cols", str(len(table[0])),
            "--table", ",".join(str(c) for row in table for c in row))


# --- statistics: the CLI prints the library's values, the library agrees
# with scipy.stats -------------------------------------------------------

def _arg(argv: tuple[str, ...], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _fixture_tables(argv: tuple[str, ...]) -> list[tuple[str, tuple]]:
    natural, unnatural = corpus.load_table1_fixture()
    scenes = {"natural": natural, "unnatural": unnatural}
    rows = _arg(argv, "--rows")
    if rows is not None:
        picked = []
        for rid in rows.split(","):
            scene, config = rid.split("-")
            table = scenes[scene]
            picked.append(table.counts[table.row_labels.index(config)])
        return [("chi2", tuple(picked))]
    out = []  # the fisher collapse report: natural vs unnatural, label vs rest
    for i, config in enumerate(natural.row_labels):
        for j, label in enumerate(natural.col_labels):
            a, c = natural.counts[i][j], unnatural.counts[i][j]
            out.append((f"fisher[{config}:{label}-vs-rest]",
                        ((a, sum(natural.counts[i]) - a),
                         (c, sum(unnatural.counts[i]) - c))))
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=STATS_TOL, abs_tol=STATS_TOL)


def expected_stats(argv: tuple[str, ...]) -> tuple[dict[str, dict], list[str]]:
    """Library results for a `stats` argv, keyed by output line name, and
    any disagreement with scipy.stats."""
    import scipy.stats as sps

    test = _arg(argv, "--test")
    errors: list[str] = []
    if test == "tost":
        (x1, n1), (x2, n2) = ((int(v) for v in _arg(argv, f).split("/"))
                              for f in ("--a", "--b"))
        margin = float(_arg(argv, "--margin") or 0.05)
        alpha = float(_arg(argv, "--alpha") or 0.05)
        res = stats.tost_equivalence(x1, n1, x2, n2, margin, alpha)
        pooled = (x1 + x2) / (n1 + n2)
        se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        z_lo, z_hi = (x1 / n1 - x2 / n2 + margin) / se, (x1 / n1 - x2 / n2 - margin) / se
        oracle = {"z_lower": z_lo, "z_upper": z_hi, "p_lower": sps.norm.sf(z_lo),
                  "p_upper": sps.norm.cdf(z_hi)}
        got = {"z_lower": res.z_lower, "z_upper": res.z_upper,
               "p_lower": res.p_lower, "p_upper": res.p_upper}
        errors += [f"tost {k}: {got[k]} vs scipy {v}" for k, v in oracle.items()
                   if not _close(got[k], v)]
        if res.equivalent != (max(oracle["p_lower"], oracle["p_upper"]) < alpha):
            errors.append("tost equivalence verdict disagrees with scipy")
        return {"tost": {**got, "equivalent": str(res.equivalent)}}, errors
    if _arg(argv, "--table") is not None:
        cols = int(_arg(argv, "--cols"))
        flat = [int(v) for v in _arg(argv, "--table").split(",")]
        tables = [(test, tuple(tuple(flat[i:i + cols]) for i in range(0, len(flat), cols)))]
    else:
        tables = _fixture_tables(argv)
    out = {}
    for name, counts in tables:
        table = stats.ContingencyTable(counts)
        if test == "chi2":
            res = stats.chi_squared_test(table)
            ref = sps.chi2_contingency(counts, correction=False)
            oracle = (ref.statistic, ref.pvalue)
            if res.dof != ref.dof:
                errors.append(f"{name} dof {res.dof} vs scipy {ref.dof}")
        else:
            res = stats.fisher_exact_2x2(table)
            (a, b), (c, d) = counts
            oracle = (sps.hypergeom.pmf(a, a + b + c + d, a + c, a + b),
                      sps.fisher_exact(counts).pvalue)
        for key, mine, theirs in zip(("statistic", "p"), (res.statistic, res.p_value), oracle):
            if not _close(mine, float(theirs)):
                errors.append(f"{name} {key}: {mine} vs scipy {float(theirs)}")
        out[name] = {"statistic": res.statistic, "p": res.p_value}
        if res.dof is not None:
            out[name]["dof"] = res.dof
    return out, errors


def check_stats_output(text: str, expected: dict[str, dict]) -> list[str]:
    """Every printed value equals the library value at the CLI's 6
    significant digits, and every expected line is printed once."""
    seen = {}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        seen[name] = dict(_TOKEN.findall(rest))
    if set(seen) != set(expected):
        return [f"stats printed {sorted(seen)}, expected {sorted(expected)}"]
    errors = []
    for name, values in expected.items():
        for key, want in values.items():
            got = seen[name].get(key)
            if isinstance(want, float):
                ok = got is not None and float(got) == float(f"{want:.6g}")
            else:
                ok = got == str(want)
            if not ok:
                errors.append(f"{name} {key}: printed {got}, expected {want}")
    return errors
