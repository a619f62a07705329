"""A derandomized fuzz over corpus files and command flags.

Each corpus example takes a generated n=4 trials or responses file
(locating, referential or cluttered) or the fixture of two response sets,
mutates its header or one record, cuts it at a byte or puts bytes that are
not UTF-8 into one line, and checks the boundary contract: the loader
either loads the file or raises a one-line `DeixisError` that starts with
`path:N:`, and `run` or `plot` on the file, with valid flags, exits 0, or 1
with one `Error:` line, never 2 and never with a traceback.  Each flag
example runs `gen`, `run` or `plot` on a valid input file with counts,
seeds, resolver parameters or plot sizes from past their valid ranges and
checks that the command exits 0 with one line, or 2 with one `Error:` line,
after click's usage lines when click refuses it, and leaves no output file
when it fails.  `gen --n` stays at most 64, or past the CLI's
maximum: sampling allocates in proportion to it.  Each `stats` example
draws the test, its input (a table, the fixture or two fractions) with the
flags that go with it and, one time in four, one more flag, with table
text, fractions and float values from past their valid ranges, and checks
that the command exits 0 with result lines only, 1 with one `Error:` line,
or 2 with one `Error:` line after click's usage lines.  Counts stay at most
10**6 or overflow a float: a balanced Fisher table near 10**9 per cell
takes seconds.
"""
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from deixis import corpus, harness
from deixis.cli import MAX_N, main
from deixis.errors import DeixisError

SETS = {
    "locating": harness.Condition(kind=harness.REF_VS_LOC, variant="locating",
                                  cone_vertex_angle=math.radians(90)),
    "referential": harness.Condition(kind=harness.REF_VS_LOC,
                                     cone_vertex_angle=math.radians(67.5)),
    "cluttered": harness.Condition(kind=harness.CLUTTERED,
                                   cone_vertex_angle=math.radians(45)),
}
BAD_VALUES = [None, True, "x", [], {}, math.nan, math.inf, 10 ** 400, -0.0]
ADDED_KEYS = ["condition", "gravity", "surplus", "shared", "shown", "id"]
NON_OBJECT_LINES = ["[]", '"record"', "7", "null", "{", "[" * 5000]
# a stray byte, a lead byte without its continuation, a UTF-16 surrogate
# and an overlong encoding of "/"
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"]
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = {("responses", "mixed"):
                 FIXTURES / "natural-and-locating-45-n8-seed7.responses.jsonl"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(kind, set name) -> the lines of a generated file."""
    out, work = {}, tmp_path_factory.mktemp("generated")
    for name, cond in SETS.items():
        trials = harness.generate_trials(cond, 4, 1)
        corpus.save_trials(trials, str(work / "t.jsonl"), seed=1)
        corpus.save_responses(harness.run(trials), str(work / "r.jsonl"))
        for kind in ("trials", "responses"):
            out[kind, name] = (work / f"{kind[0]}.jsonl").read_text().splitlines()
    out.update((key, path.read_text().splitlines()) for key, path in FIXTURE_FILES.items())
    return out


def _paths(node, prefix=()):
    """Every path into a parsed JSON line, the root excluded."""
    items = (node.items() if type(node) is dict
             else enumerate(node) if type(node) is list else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _encoded(lines):
    return "".join(line + "\n" for line in lines).encode()


@st.composite
def mutations(draw, files):
    """(kind, set name, the lines an error may name or None for any, the
    mutated file's bytes)."""
    kind, name = draw(st.sampled_from(sorted(files)))
    lines = list(files[kind, name])
    index = draw(st.one_of(st.just(0), st.integers(1, len(lines) - 1)))
    op = draw(st.sampled_from(["drop", "add", "swap", "objects", "line",
                               "truncate", "not-utf8"]))
    # a bad header may surface at any line; a bad record at its own
    named = None if index == 0 else {index + 1}
    if op == "truncate":
        # a record cut short, or cut whole so that the count is wrong
        data = _encoded(lines)
        cut = draw(st.integers(0, len(data) - 1))
        line = data[:cut].count(b"\n") + 1
        return kind, name, None if line == 1 else {1, line}, data[:cut]
    if op == "not-utf8":
        raw = [line.encode() for line in lines]
        at = draw(st.integers(0, len(raw[index])))
        raw[index] = raw[index][:at] + draw(st.sampled_from(NOT_UTF8)) + raw[index][at:]
        return kind, name, {index + 1}, b"".join(line + b"\n" for line in raw)
    if op == "line":
        lines[index] = draw(st.sampled_from(NON_OBJECT_LINES))
        return kind, name, named, _encoded(lines)
    obj = json.loads(lines[index])
    paths = list(_paths(obj))
    if op == "drop":
        keyed = [p for p in paths if type(p[-1]) is str]
        path = draw(st.sampled_from(keyed))
        del _at(obj, path[:-1])[path[-1]]
    elif op == "add":
        dicts = [()] + [p for p in paths if type(_at(obj, p)) is dict]
        parent = _at(obj, draw(st.sampled_from(dicts)))
        parent[draw(st.sampled_from(ADDED_KEYS))] = draw(
            st.sampled_from(BAD_VALUES + [False, {"robot": "kuka"}]))
    elif op == "swap":
        path = draw(st.sampled_from(paths))
        _at(obj, path[:-1])[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    else:  # `objects` of any length, in the record or the header's context
        target = obj["context"] if index == 0 and "context" in obj else obj
        target["objects"] = [{} for _ in range(draw(st.integers(0, 4)))]
    lines[index] = json.dumps(obj)
    return kind, name, named, _encoded(lines)


def assert_one_line(res, out, codes):
    """Exit with one of `codes`: 0 or 1 with one line, or 2 with one
    `Error:` line after any usage lines; no traceback, and no output file
    after a failure."""
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in codes, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error: ")]
    if res.exit_code == 2:
        assert len(errors) == 1 and res.output.endswith(errors[0] + "\n"), res.output
    else:
        assert res.output.count("\n") == 1 and res.output.endswith("\n"), res.output
        assert len(errors) == res.exit_code, res.output
    assert res.exit_code == 0 or not out.exists(), res.output


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_corpus_loads_or_fails_in_one_line(files, tmp_path_factory, data):
    kind, name, named, content = data.draw(mutations(files))
    path = tmp_path_factory.mktemp("mutated") / f"{kind}.jsonl"
    path.write_bytes(content)
    try:  # read to the end: a later record is checked only when it is reached
        if kind == "trials":
            tuple(corpus.load_trials(str(path)).trials)
        else:
            list(corpus.load_responses(str(path)))
        error = None
    except DeixisError as exc:
        error = str(exc)
        where = re.match(rf"{re.escape(str(path))}:(\d+): ", error)
        assert where and "\n" not in error, error
        if named is not None:
            assert int(where[1]) in named, error
    if kind == "trials":
        out = path.with_suffix(".out")
        args = ["run", "--in", str(path), "--out", str(out)]
    else:
        out = path.with_suffix(".svg")
        args = ["plot", "--in", str(path), "--out", str(out),
                "--kind", "distance-pies" if name == "cluttered" else "scatter-pies"]
    res = CliRunner().invoke(main, args)
    assert_one_line(res, out, (0, 1))  # a data error, never a refused flag
    if error is not None and res.output != f"Error: {error}\n":
        assert_predicted_first(content, error, int(where[1]), res.output)


def assert_predicted_first(content, error, line, output):
    """`run` predicts each trial as its record is read, so the only error it
    may report in place of the loader's, which names `line`, is a prediction
    error on a trial whose record comes before that line, or before a header
    count mismatch, which is found after the last record."""
    failed = re.match(r"Error: trial (.+?): ", output)
    assert failed, (output, error)
    header, *records = content.split(b"\n")
    prefix = json.loads(header)["id_prefix"]
    at = next(n for n, raw in enumerate(records, start=2)
              if raw.strip() and prefix + json.loads(raw)["id"] == failed[1])
    assert at < line or "header declares" in error, (output, error)


SEED_40_DIGITS = "1" + "0" * 39
RESOLVER_VALUES = ["nan", "-nan", "inf", "-inf", "-0.0", "0", "1e308", "-1e308",
                   "-1", "-0.1", "1e-300", "0.1"]
GEN_CONDITIONS = [("--condition", "ref-vs-loc", "--cone", "45"),
                  ("--condition", "ref-vs-loc", "--variant", "locating", "--cone", "90"),
                  ("--condition", "cluttered", "--cone", "67.5"),
                  ("--condition", "natural")]


@st.composite
def commands(draw, inputs):
    """The arguments of one `gen`, `run` or `plot` call, `--out` aside."""
    command = draw(st.sampled_from(["gen", "run", "plot"]))
    if command == "gen":
        seed = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                              st.sampled_from([SEED_40_DIGITS, "-" + SEED_40_DIGITS])))
        return ["gen", *draw(st.sampled_from(GEN_CONDITIONS)),
                "--n", draw(st.one_of(st.integers(-8, 64).map(str),
                                      st.sampled_from([str(MAX_N + 1), "1" + "0" * 400]))),
                "--seed", seed]
    flags = (["--epsilon", "--ambiguity-band"] if command == "run"
             else ["--width", "--height"])
    values = (st.sampled_from(RESOLVER_VALUES) if command == "run"
              else st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                             st.just("1" + "0" * 400)))
    args = [command, "--in", str(inputs[command])]
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=2, unique=True)):
        args += [flag, draw(values)]
    return args


@pytest.fixture(scope="module")
def inputs(files, tmp_path_factory):
    """The input file of `run` and of `plot`."""
    work = tmp_path_factory.mktemp("inputs")
    out = {"run": work / "t.jsonl", "plot": work / "r.jsonl"}
    out["run"].write_bytes(_encoded(files["trials", "locating"]))
    out["plot"].write_bytes(_encoded(files["responses", "locating"]))
    return out


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_flags_exit_in_one_line(inputs, tmp_path_factory, data):
    args = data.draw(commands(inputs))
    out = tmp_path_factory.mktemp("flags") / "out"
    # the input files are valid: any failure is a refused flag value
    assert_one_line(CliRunner().invoke(main, [*args, "--out", str(out)]), out, (0, 2))


ROWS = [f"{scene}-{config}" for scene in ("natural", "unnatural")
        for config in ("top", "edge", "table")]
COUNTS = st.one_of(st.integers(-2, 40), st.integers(0, 10 ** 6),
                   st.just(10 ** 400)).map(str)
WORDS = st.sampled_from(["", " ", "x", "1.5", "-0", "1e3", "nan", "0x10", "1" + "0" * 5000])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["nan", "-inf", "0", "1", "0.05", "-0.0", "1e-300", "x"]))


def mostly(valid, other):
    """`valid` three times in four, else `other`."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else valid)


GRID = st.tuples(st.integers(2, 3), st.integers(2, 3)).flatmap(
    lambda rc: st.lists(COUNTS, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]))
FRACTION = mostly(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))).map(lambda xn: "%d/%d" % xn),
    st.one_of(st.tuples(COUNTS, COUNTS).map("/".join), WORDS, st.just("1/2/3")))
STATS_TEXTS = {
    "--fixture": mostly(st.just("table1"), st.just("table2")),
    "--rows": mostly(st.lists(st.sampled_from(ROWS), min_size=2, max_size=4),
                     st.lists(st.sampled_from([*ROWS, "natural-x", "top", "", " "]),
                              max_size=4)).map(",".join),
    "--collapse": mostly(st.sampled_from(["correct", "incorrect", "ambiguous"]),
                         st.just("rest")),
    "--table": mostly(GRID, st.lists(st.one_of(COUNTS, WORDS), min_size=1,
                                     max_size=9)).map(",".join),
    "--cols": mostly(st.integers(-1, 5).map(str), WORDS),
    "--a": FRACTION, "--b": FRACTION, "--margin": FLOATS, "--alpha": FLOATS}


@st.composite
def stats_commands(draw):
    """The arguments of one `stats` call: the test, a table, the fixture or
    two fractions, the flags that go with them and, one time in four, one
    more flag the test may not read."""
    test = draw(st.sampled_from(["chi2", "fisher", "tost"]))
    if test == "tost":
        flags = ["--a", "--b", *draw(st.lists(st.sampled_from(["--margin", "--alpha"]),
                                              unique=True))]
    elif draw(st.booleans()):
        flags = ["--table", *draw(st.sampled_from([[], ["--cols"]]))]
    else:
        flags = ["--fixture", *draw(st.sampled_from(
            [["--rows"], ["--rows", "--collapse"], []] if test == "fisher" else [["--rows"]]))]
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from([f for f in STATS_TEXTS if f not in flags])))
    args = ["stats", "--test", test]
    for flag in flags:
        args += [flag, draw(STATS_TEXTS[flag])]
    return args + draw(st.sampled_from([[], ["--csv"]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=stats_commands())
def test_fuzzed_stats_flags_exit_in_one_line(args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    lines = res.output.splitlines()
    errors = [line for line in lines if line.startswith("Error: ")]
    if res.exit_code == 0:  # one line, or the fixture's collapse report
        assert lines and not errors, res.output
        assert all(line.startswith(("chi2", "fisher", "tost")) for line in lines), res.output
        assert len(lines) == 1 or ("--fixture" in args and "--rows" not in args), res.output
    elif res.exit_code == 1:
        assert lines == errors and len(errors) == 1, res.output
    else:
        assert res.exit_code == 2, res.output
        assert len(errors) == 1 and res.output.endswith(errors[0] + "\n"), res.output
