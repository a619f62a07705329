"""Command line interface: generate trials, run the model, test, plot.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  All distances
are meters, cone angles degrees.  Every command is deterministic given its
flags; seeds are always explicit.
"""
from __future__ import annotations

import math
import sys
from collections import Counter

import click
from click.core import ParameterSource

from . import corpus, harness, stats, svgplot
from .errors import DeixisError
from .resolver import ResolverConfig

_CONDITIONS = {"ref-vs-loc": harness.REF_VS_LOC,
               "cluttered": harness.CLUTTERED,
               "natural": harness.NATURAL,
               "verbs": harness.VERB_VARIANT}
# the most trials one `gen` makes: 25x sweep scale; a cluttered trial index
# must fit one 32-bit word
MAX_N = 100_000


class _Main(click.Group):
    """The one error boundary: a data, value or file error in any command
    ends it with one `Error:` line and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except OverflowError as exc:  # `stats` on counts a float cannot hold
            raise click.ClickException(
                f"a count is too large for float arithmetic: {exc}") from None
        except (DeixisError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
def main() -> None:
    """Pointing-interpretation model for pick-and-place tasks."""


@main.command("gen")
@click.option("--condition", "condition_name", required=True,
              type=click.Choice(sorted(_CONDITIONS)))
@click.option("--variant", type=click.Choice(["referential", "locating"]),
              default="referential", show_default=True)
@click.option("--cone", type=float, default=None,
              help="Cone vertex angle in degrees (45, 67.5 or 90).")
@click.option("--robot", type=click.Choice(sorted(harness.ROBOTS)),
              default="baxter", show_default=True)
@click.option("--speech/--no-speech", default=True, show_default=True)
@click.option("--reverse", is_flag=True, default=False)
@click.option("--gravity", type=click.Choice(["on", "off"]), default="on",
              show_default=True)
@click.option("--verb", type=click.Choice(harness.VERBS), default="put",
              show_default=True)
@click.option("--n", type=click.IntRange(max=MAX_N), default=8, show_default=True,
              help=f"Trials to generate, at most {MAX_N}.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_gen(condition_name: str, variant: str, cone: float | None, robot: str,
            speech: bool, reverse: bool, gravity: str, verb: str, n: int,
            seed: int, out: str) -> None:
    """Generate a seeded trial corpus for one experimental condition."""
    try:
        cond = harness.Condition(
            kind=_CONDITIONS[condition_name], variant=variant, robot=robot,
            speech=speech, reverse=reverse,
            cone_vertex_angle=None if cone is None else math.radians(cone),
            gravity=(gravity == "on"), verb=verb)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    tset = harness.generate_trials(cond, n, seed)
    corpus.save_trials(tset, out, seed=seed)
    click.echo(f"wrote {len(tset.trials)} trials "
               f"(condition={cond.descriptor()} seed={seed}) to {out}")


@main.command("run")
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=0.10, show_default=True)
@click.option("--ambiguity-band", type=float, default=0.10, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_run(in_path: str, epsilon: float, ambiguity_band: float, out: str) -> None:
    """Predict a judgment for every trial in a corpus."""
    trials = corpus.load_trials(in_path)
    cfg = ResolverConfig(epsilon=epsilon, ambiguity_band=ambiguity_band)
    labels: Counter = Counter()

    def counted(records):
        # each record is counted as it goes to the writer: none is held
        for rec in records:
            labels[rec.predicted] += 1
            yield rec

    corpus.save_responses(counted(harness.predict(trials, cfg)), out)
    summary = " ".join(f"{lbl}={labels[lbl]}" for lbl in harness.LABELS if labels[lbl])
    click.echo(f"{trials.condition.descriptor()}: {labels.total()} responses ({summary})")


def _parse_counts(text: str, cols: int | None) -> stats.ContingencyTable:
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if cols is None:
        cols = len(values) // 2
    if cols < 2 or len(values) % cols != 0 or len(values) // cols < 2:
        raise click.UsageError("--table needs an r x c grid of integers with r, c >= 2")
    rows = tuple(tuple(values[i:i + cols]) for i in range(0, len(values), cols))
    return stats.ContingencyTable(rows)


def _fixture_rows(row_ids: str) -> stats.ContingencyTable:
    natural, unnatural = corpus.load_table1_fixture()
    tables = {"natural": natural, "unnatural": unnatural}
    rows, labels = [], []
    for rid in row_ids.split(","):
        try:
            scene_name, config = rid.strip().split("-")
            table = tables[scene_name]
            idx = table.row_labels.index(config)
        except (ValueError, KeyError):
            raise click.UsageError(
                f"unknown fixture row {rid!r}; use e.g. natural-top") from None
        rows.append(table.counts[idx])
        labels.append(rid.strip())
    if len(rows) < 2:
        raise click.UsageError("--rows needs at least two fixture rows")
    return stats.ContingencyTable(tuple(rows), row_labels=tuple(labels),
                                  col_labels=natural.col_labels)


def _collapse(table: stats.ContingencyTable, label: str) -> stats.ContingencyTable:
    idx = table.col_labels.index(label)
    rows = tuple((row[idx], sum(row) - row[idx]) for row in table.counts)
    return stats.ContingencyTable(rows, row_labels=table.row_labels,
                                  col_labels=(label, "rest"))


# the `stats` parameters each test reads besides --test and --csv
_STATS_READS = {"chi2": ("fixture", "rows", "table_text", "cols"),
                "fisher": ("fixture", "rows", "collapse_label", "table_text", "cols"),
                "tost": ("group_a", "group_b", "margin", "alpha")}
# (flag, parameter, flag it is read with, that flag's parameter)
_STATS_NEEDS = (("--cols", "cols", "--table", "table_text"),
                ("--rows", "rows", "--fixture", "fixture"),
                ("--collapse", "collapse_label", "--rows", "rows"))


def _emit(name: str, result: stats.TestResult, as_csv: bool) -> None:
    dof = "" if result.dof is None else result.dof
    if as_csv:
        click.echo(f"{name},{result.statistic:.6g},{dof},{result.p_value:.6g}")
    else:
        extra = f" dof={dof}" if dof != "" else ""
        click.echo(f"{name}: statistic={result.statistic:.6g}{extra} "
                   f"p={result.p_value:.6g}")


@main.command("stats")
@click.option("--test", "test_name", required=True,
              type=click.Choice(["chi2", "fisher", "tost"]))
@click.option("--fixture", type=click.Choice(["table1"]), default=None)
@click.option("--rows", default=None,
              help="Fixture rows, e.g. natural-top,unnatural-top.")
@click.option("--collapse", "collapse_label", default=None,
              type=click.Choice(["correct", "incorrect", "ambiguous"]),
              help="Collapse fixture rows to LABEL vs rest (fisher).")
@click.option("--table", "table_text", default=None,
              help="Comma-separated counts, row-major.")
@click.option("--cols", type=int, default=None)
@click.option("--a", "group_a", default=None, help="tost: successes/total.")
@click.option("--b", "group_b", default=None, help="tost: successes/total.")
@click.option("--margin", type=float, default=0.05, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--csv", "as_csv", is_flag=True, default=False)
@click.pass_context
def cmd_stats(ctx: click.Context, test_name: str, fixture: str | None, rows: str | None,
              collapse_label: str | None, table_text: str | None,
              cols: int | None, group_a: str | None, group_b: str | None,
              margin: float, alpha: float, as_csv: bool) -> None:
    """Run a chi-squared, Fisher exact, or TOST equivalence test."""
    reads = ("test_name", "as_csv", *_STATS_READS[test_name])
    unread = [p.opts[0] for p in ctx.command.params if p.name not in reads
              and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
    if unread:
        raise click.UsageError(f"--test {test_name} does not read {', '.join(unread)}")
    if table_text is not None and fixture is not None:
        raise click.UsageError("--table and --fixture exclude each other")
    for flag, name, needs, needed in _STATS_NEEDS:
        if ctx.params[name] is not None and ctx.params[needed] is None:
            raise click.UsageError(f"{flag} is read only with {needs}")
    if test_name == "tost":
        try:
            (x1, n1), (x2, n2) = ([int(v) for v in (g or "").split("/")]
                                  for g in (group_a, group_b))
        except ValueError:
            raise click.UsageError("tost requires --a and --b as x/n") from None
        res = stats.tost_equivalence(x1, n1, x2, n2, margin, alpha)
        if as_csv:
            click.echo(f"tost,{res.z_lower:.6g},{res.z_upper:.6g},"
                       f"{res.p_lower:.6g},{res.p_upper:.6g},{res.equivalent}")
        else:
            click.echo(f"tost: z_lower={res.z_lower:.6g} z_upper={res.z_upper:.6g} "
                       f"p_lower={res.p_lower:.6g} p_upper={res.p_upper:.6g} "
                       f"equivalent={res.equivalent}")
        return
    if table_text is not None:
        table = _parse_counts(table_text, cols)
    elif fixture == "table1":
        if rows is None and test_name == "fisher":
            _fisher_collapse_report(as_csv)
            return
        if rows is None:
            raise click.UsageError("--rows is required with --fixture table1")
        table = _fixture_rows(rows)
    else:
        raise click.UsageError("provide --table or --fixture table1")
    if test_name == "chi2":
        _emit("chi2", stats.chi_squared_test(table), as_csv)
    else:
        if collapse_label is not None:
            table = _collapse(table, collapse_label)
        if len(table.counts[0]) != 2 or len(table.counts) != 2:
            raise click.UsageError(
                "fisher needs a 2x2 table; use --collapse with fixture rows")
        _emit("fisher", stats.fisher_exact_2x2(table), as_csv)


def _fisher_collapse_report(as_csv: bool) -> None:
    """Fisher p for every natural-vs-unnatural 2x2 collapse of the fixture."""
    natural, _ = corpus.load_table1_fixture()
    for config in natural.row_labels:
        table = _fixture_rows(f"natural-{config},unnatural-{config}")
        for label in natural.col_labels:
            _emit(f"fisher[{config}:{label}-vs-rest]",
                  stats.fisher_exact_2x2(_collapse(table, label)), as_csv)


@main.command("plot")
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice([k.replace("_", "-") for k in svgplot.KINDS]),
              default="scatter-pies", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--width", type=int, default=640, show_default=True)
@click.option("--height", type=int, default=480, show_default=True)
@click.option("--legend/--no-legend", default=True, show_default=True)
def cmd_plot(in_path: str, kind: str, out: str, width: int, height: int,
             legend: bool) -> None:
    """Render an SVG pie-scatter of a response corpus."""
    records = corpus.load_responses(in_path)
    spec = svgplot.PlotSpec(kind=kind.replace("-", "_"), width=width,
                            height=height, legend=legend)
    svg = svgplot.render(records, spec)  # raises before `out` is opened
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(svg)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
