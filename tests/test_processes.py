"""The CLI as child processes: what only a process of its own shows.

A kill, a command's own peak memory and a file-size limit cannot be seen
from inside the test process, so these tests run `python -m deixis.cli`
as children; every other end-to-end check runs the CLI in-process.  The
installed `deixis` script calls the same `deixis.cli:main`.  Each child
runs with the parent's `-X dev` and `-W` options, so a run of the suite
under `-X dev -W error` runs its children so too.
"""
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import deixis

SRC = str(Path(deixis.__file__).parents[1])
CLI = ("-m", "deixis.cli")
FLAGS = (*(("-X", "dev") if sys.flags.dev_mode else ()),
         *(f"-W{option}" for option in sys.warnoptions))
# the largest `gen --n`; a cluttered set at it takes some 4.5 s to make and
# as long to run, so a child killed after 1 s of CPU time is part way
LARGEST = ("--condition", "cluttered", "--cone", "67.5", "--n", "100000")
RSS_SLACK_KB = 10 * 1024
FILE_SIZE_LIMIT = 4096  # bytes; far below the SVG of the largest set


def _cli(args, env=None, preexec_fn=None):
    """Run `python *args` with the parent's `-X dev` and `-W` options and
    `deixis` importable, plus `env`; give its exit code (minus the signal
    that ended it), stdout, stderr and max-RSS in KB.  `os.wait4` reaps
    the child, so the max-RSS is this child's alone."""
    env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *FLAGS, *args], stdout=out,
                                stderr=err, env=env, preexec_fn=preexec_fn)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def _one_cpu_second():
    resource.setrlimit(resource.RLIMIT_CPU, (1, 1))  # SIGKILL at the hard limit


def _file_size_limit():
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past it fails instead
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


@pytest.fixture(scope="module")
def largest(tmp_path_factory):
    """The largest cluttered set's trials and responses, made once, with
    each command's max-RSS and the spool directory it was given."""
    work, spool = tmp_path_factory.mktemp("largest"), tmp_path_factory.mktemp("spool")
    trials, responses = work / "trials.jsonl", work / "responses.jsonl"
    rss = {}
    for command, args in (("gen", ["gen", *LARGEST, "--out", str(trials)]),
                          ("run", ["run", "--in", str(trials), "--out", str(responses)])):
        code, _, err, rss[command] = _cli([*CLI, *args], env={"TMPDIR": str(spool)})
        assert code == 0, err
    return {"trials": trials, "responses": responses, "rss": rss, "work": work,
            "spool": spool}


def test_the_largest_set_is_made_and_run_in_bounded_memory(largest):
    # both spool as they go: neither holds the set, so each peaks near a
    # bare import, and neither leaves a spool or a part-written file
    code, _, err, base = _cli(["-c", "import deixis.cli"])
    assert code == 0, err
    assert largest["rss"]["gen"] <= base + RSS_SLACK_KB, (largest["rss"], base)
    assert largest["rss"]["run"] <= base + RSS_SLACK_KB, (largest["rss"], base)
    assert list(largest["spool"].iterdir()) == []
    assert sorted(p.name for p in largest["work"].iterdir()) == ["responses.jsonl",
                                                                 "trials.jsonl"]


@pytest.mark.parametrize("command", ["gen", "run"])
def test_a_killed_command_leaves_nothing(tmp_path, largest, command):
    spool, out = tmp_path / "spool", tmp_path / "out.jsonl"
    spool.mkdir()
    args = {"gen": ["gen", *LARGEST], "run": ["run", "--in", str(largest["trials"])]}
    code, _, err, _ = _cli([*CLI, *args[command], "--out", str(out)],
                           env={"TMPDIR": str(spool)}, preexec_fn=_one_cpu_second)
    assert code == -signal.SIGKILL, (code, err)
    assert list(spool.iterdir()) == []  # no spool, named or not
    assert list(tmp_path.iterdir()) == [spool]  # no output, `tmp*` or `.deixis-*` file


def test_a_plot_past_the_file_size_limit_leaves_the_older_svg(tmp_path, largest):
    older = tmp_path / "plot.svg"
    older.write_bytes(b"<svg>an older plot</svg>\n")
    code, out, err, _ = _cli([*CLI, "plot", "--in", str(largest["responses"]),
                              "--kind", "distance-pies", "--out", str(older)],
                             preexec_fn=_file_size_limit)
    assert code == 1, (out, err)
    assert err == "Error: [Errno 27] File too large\n"
    assert older.read_bytes() == b"<svg>an older plot</svg>\n"
    assert list(tmp_path.iterdir()) == [older]
