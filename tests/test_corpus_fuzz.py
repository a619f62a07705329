"""A derandomized fuzz over corpus lines.

Each example takes a generated n=4 trials or responses file (locating,
referential or cluttered), mutates its header or one record and checks the
boundary contract: the loader either loads the file or raises a one-line
`SchemaError` that starts with `path:N:`, and `run` or `plot` on the file
exits 0, or 1 with one `Error:` line, never with a traceback.
"""
import json
import math
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from deixis import corpus, harness
from deixis.cli import main
from deixis.errors import SchemaError

SETS = {
    "locating": harness.Condition(kind=harness.REF_VS_LOC, variant="locating",
                                  cone_vertex_angle=math.radians(90)),
    "referential": harness.Condition(kind=harness.REF_VS_LOC,
                                     cone_vertex_angle=math.radians(67.5)),
    "cluttered": harness.Condition(kind=harness.CLUTTERED,
                                   cone_vertex_angle=math.radians(45)),
}
BAD_VALUES = [None, True, "x", [], {}, math.nan, math.inf, 10 ** 400, -0.0]
ADDED_KEYS = ["condition", "gravity", "surplus"]
NON_OBJECT_LINES = ["[]", '"record"', "7", "null", "{", "[" * 5000]


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


@st.composite
def mutations(draw, files):
    """(kind, set name, 1-based line, mutated lines)."""
    kind, name = draw(st.sampled_from(sorted(files)))
    lines = list(files[kind, name])
    index = draw(st.one_of(st.just(0), st.integers(1, len(lines) - 1)))
    op = draw(st.sampled_from(["drop", "add", "swap", "objects", "line"]))
    if op == "line":
        lines[index] = draw(st.sampled_from(NON_OBJECT_LINES))
        return kind, name, index + 1, lines
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
    return kind, name, index + 1, lines


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_corpus_loads_or_fails_in_one_line(files, tmp_path_factory, data):
    kind, name, line, lines = data.draw(mutations(files))
    path = tmp_path_factory.mktemp("mutated") / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    load = corpus.load_trials if kind == "trials" else corpus.load_responses
    try:
        load(str(path))
        error = None
    except SchemaError as exc:
        error = str(exc)
        where = re.match(rf"{re.escape(str(path))}:(\d+): ", error)
        assert where and "\n" not in error, error
        if line > 1:  # a bad record is named by its own line
            assert int(where[1]) == line, error
    if kind == "trials":
        args = ["run", "--in", str(path), "--out", str(path.with_suffix(".out"))]
    else:
        args = ["plot", "--in", str(path), "--out", str(path.with_suffix(".svg")),
                "--kind", "distance-pies" if name == "cluttered" else "scatter-pies"]
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in (0, 1), res.output
    if error is not None:
        assert res.output == f"Error: {error}\n"
    elif res.exit_code == 1:
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1
