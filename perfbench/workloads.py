"""Workload definitions: which CLI commands one pass of each workload runs.

A workload is a list of trial sets, each generated, run and plotted in turn,
plus the `stats` commands of the pass.  Every `gen` receives the workload
seed; the program sees nothing but the files the commands write.
"""
from __future__ import annotations

from dataclasses import dataclass

PAPER_N = 8
SWEEP_N = 4000
CONES = ("45", "67.5", "90")


@dataclass(frozen=True)
class TrialSet:
    """One `gen` flag set and the plot kind its responses are drawn with."""

    name: str
    condition: str
    variant: str = "referential"
    cone: str | None = None
    gravity: str = "on"
    n: int = PAPER_N
    plot_kind: str = "scatter-pies"
    # sweeps test their own responses with a chi-squared step after `run`
    own_stats: bool = False

    def gen_args(self, seed: int, out: str) -> list[str]:
        args = ["gen", "--condition", self.condition, "--variant", self.variant]
        if self.cone is not None:
            args += ["--cone", self.cone]
        args += ["--gravity", self.gravity, "--n", str(self.n),
                 "--seed", str(seed), "--out", out]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    sets: tuple[TrialSet, ...]
    # argv tails of the fixed `stats` commands that end each pass
    stats: tuple[tuple[str, ...], ...] = ()


TABLE1_STATS = (
    ("stats", "--test", "chi2", "--fixture", "table1",
     "--rows", "natural-top,unnatural-top"),
    ("stats", "--test", "fisher", "--fixture", "table1"),
    # natural-top vs unnatural-edge: the configuration each scene's viewers
    # most often judged correct (Table 1)
    ("stats", "--test", "tost", "--a", "26/30", "--b", "24/30"),
)

PAPER_GRID = Workload(
    "paper-grid",
    tuple([TrialSet(f"ref-{c}", "ref-vs-loc", "referential", c) for c in CONES]
          + [TrialSet(f"loc-{c}", "ref-vs-loc", "locating", c) for c in CONES]
          + [TrialSet(f"clut-{c}", "cluttered", cone=c, plot_kind="distance-pies")
             for c in CONES]
          + [TrialSet(f"nat-{g}", "natural", gravity=g)
             for g in ("on", "off")]),
    TABLE1_STATS)

SWEEP_LOCATING = Workload(
    "sweep-locating",
    (TrialSet("loc-90", "ref-vs-loc", "locating", "90", n=SWEEP_N,
              own_stats=True),))

SWEEP_DISCRETE = Workload(
    "sweep-discrete",
    (TrialSet("ref-67.5", "ref-vs-loc", "referential", "67.5", n=SWEEP_N,
              own_stats=True),
     TrialSet("clut-67.5", "cluttered", cone="67.5", n=SWEEP_N,
              plot_kind="distance-pies", own_stats=True)))

WORKLOADS = {w.name: w for w in (PAPER_GRID, SWEEP_LOCATING, SWEEP_DISCRETE)}
