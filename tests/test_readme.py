"""The README's library example runs as printed, and its format example is
what the writer writes today."""
import re
from pathlib import Path

from click.testing import CliRunner

from deixis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "ref_vs_loc/referential/67.5deg/baxter" in capsys.readouterr().out


def test_responses_example_is_what_run_writes(tmp_path):
    # the header and first record of the locating 45 degree set it names
    [block] = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    trials, responses = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    for args in (["gen", "--condition", "ref-vs-loc", "--variant", "locating",
                  "--cone", "45", "--n", "8", "--seed", "7", "--out", str(trials)],
                 ["run", "--in", str(trials), "--out", str(responses)]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
    assert block.splitlines() == responses.read_text().splitlines()[:2]
