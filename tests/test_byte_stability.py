"""Byte stability: `gen`, `run` and `plot` reproduce recorded bytes.

Each flag set below is regenerated through the CLI and every output file is
compared by sha256 with the digest recorded for it: the paper's 11 trial
sets and one verbs set at n=8 (trials, responses and SVG) and the locating
sweep at n=4000 (responses).  A change that alters any byte of these
outputs fails here.  To record new digests after a deliberate output change, run

    PYTHONPATH=src python tests/test_byte_stability.py

and replace `DIGESTS` with its output.
"""
import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from deixis.cli import main

SEED = "1"
CONES = ("45", "67.5", "90")

# name -> (`gen` flags, plot kind); the paper-grid sets of the benchmark
PAPER_SETS = {
    **{f"ref-{c}": (("--condition", "ref-vs-loc", "--variant", "referential",
                     "--cone", c), "scatter-pies") for c in CONES},
    **{f"loc-{c}": (("--condition", "ref-vs-loc", "--variant", "locating",
                     "--cone", c), "scatter-pies") for c in CONES},
    **{f"clut-{c}": (("--condition", "cluttered", "--cone", c), "distance-pies")
       for c in CONES},
    **{f"nat-{g}": (("--condition", "natural", "--gravity", g), "scatter-pies")
       for g in ("on", "off")},
}
# the one set that sets --verb, --robot, --no-speech and --reverse
SETS = {**PAPER_SETS,
        "verb-push": (("--condition", "verbs", "--variant", "locating",
                       "--cone", "67.5", "--verb", "push", "--no-speech",
                       "--reverse", "--robot", "kuka"), "scatter-pies")}
SWEEP_FLAGS = ("--condition", "ref-vs-loc", "--variant", "locating",
               "--cone", "90", "--n", "4000")

DIGESTS = {
    "clut-45": ("72c4d2a8c07894d35ba47b2c49cfd678510285f5b4bd86337cccbc9b228fa6b2",
                "7d57b1009f2221510f1cb65f68674b2aabf6ce38423ceaa7d7525cbb354bab8f",
                "e46e0004926cd51792aa8a160bc6e01674a6942b4f43c7dd4f9a17bd011b60b2"),
    "clut-67.5": ("123b9e56b3504cf0b4efc6f39c6d2688a39305a5ff17e5d9a17243f51b6e1923",
                  "345530827d29210cf25bb95b553b57d5a02770a0ddcd3a47028a3100db5a126b",
                  "5583821f8c887d3b7c0b91af3c0e221eb3c79b4f12165c045f8a5d16932ee636"),
    "clut-90": ("a7f391991808a748451a2d737a27b8beadaefd4501fff6791f743115a2a15aa6",
                "c13dd893d0b1a6abcdc7469d803d611fd525830b5fc192bf263b5aaffc1ec7f2",
                "20fefb939b37e67d42ac71cf67093aaf864317985691a9438c14db5fd7a37ba7"),
    "loc-45": ("d41f984a753b2947d80a89a1630229c1e519b0630606f9fd634ba53908163bdf",
               "be936510a4b3afe0f9b199b27375e42b09cb85bdb9914f42c14960e1a2142572",
               "8f1a3325be1c190947c605564131f3ca818f46f29444b7bf5aa575c47316f4dd"),
    "loc-67.5": ("52b55753fdb7be20767a67c6547d148d82d00cd2979d45be4a520d1b955a834c",
                 "1e68eb66a6bef4362b990a593573562fd3c3c07b587667a303cfe0f2897f9bf2",
                 "453ecffa55bfd28a14e4cfdd9369457599bcb7332bc4c0461751de5dcfe6ae1e"),
    "loc-90": ("3fa06967ea6a8deb95b8175a12439673b699e44b86afc8a071d6c42ecb069a8c",
               "43ad765585ecf18c59069006d70eb306997fde5cf79a799658759487c10b9299",
               "3556b4af54e1c2aae914b2247c67c0c053af8ce5b9f09fac52e73db902661cdf"),
    "nat-off": ("b1997cb0c2716bfcdd283f2cc854d77a4fdd2ca89fed7a09328e7f13b9f93117",
                "4d8ef6d27c81df462dab1521a45576ef8a97ed5d9db2d6ef339a0d616a2bdc48",
                "45ef86569f72f5df5a3321f9f746dc12c1ad338dc85a9f5daa27a6df270ca75d"),
    "nat-on": ("f1c77fb3a157d40f8a81cb3497e393a1bfb0cf24b9e33101dcf9f51949e1cff4",
               "c0134958114fd67e9cb929dfb015d45befef453b29a09ebd25db9545263ca533",
               "87a200ed13f2fb5270625be7c624964eea5079992c195bc18a0d1e6463fc716f"),
    "ref-45": ("c2fe0feb0d65f665f13805f96bc255babaf31afaa51db4557f401808885c9dfd",
               "2441ce11196422dd6d07295de7ae9ca7302e6eedd0386f56c69fcafdaa2b3eda",
               "91d22c4a66f0065b26d4f15322fd9aa4566ca360b73c540a79bc0ee82e1cb444"),
    "ref-67.5": ("20c794492d05c07a606b44b2cd4054ed9abb817e0dfec4e8b740c7f1a5fee5c1",
                 "97e4e0e86b607cc9818b01f83b848e453f6dfbf15f296eb4f6cd86bfed7418ce",
                 "8232a08ef0cc55fd1bcf9a2583c67448e39cf4b81918eb633414c8ac8375f2ff"),
    "ref-90": ("34483fe3fd6874a8bafe9db0799bc3d06be40c9fe77dcfc0bd722b4564fd5c20",
               "60ccd89338f744c3d34ba1408682e0c08fb16958d4d6bf4868ece065e2f35f2a",
               "70603e1061e5a77cef9d45a21baca80da16055694a8ec4591332022567b044b8"),
    "verb-push": ("e5c030fa2c2f8bdbd091d37e2567baec0fc2e587b510a6fa7745c2d769f9d15a",
                  "9448b0bd860cfc000d9e995d4b2036ab0144d89e7e3802ce8c6645e924f0c46c",
                  "8737ab89bfdb1300b3b62b9640318aa304e4e99c2cc85c258d4904f4318084d4"),
    "loc-90-n4000": "caea1f96134eac2ab72accdc9776d1a3fc230ee679e78942dc8774cd859daf42",
}


def _invoke(*args: str) -> None:
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == 0, res.output


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def paper_digests(name: str, tmp: Path) -> tuple[str, str, str]:
    """sha256 of the trials, responses and SVG of one set of `SETS`."""
    flags, kind = SETS[name]
    trials, resp, svg = (tmp / f"{name}.{ext}" for ext in ("t.jsonl", "r.jsonl", "svg"))
    _invoke("gen", *flags, "--seed", SEED, "--out", str(trials))
    _invoke("run", "--in", str(trials), "--out", str(resp))
    _invoke("plot", "--in", str(resp), "--kind", kind, "--out", str(svg))
    return _sha(trials), _sha(resp), _sha(svg)


def sweep_digest(tmp: Path) -> str:
    """sha256 of the responses of the locating sweep."""
    trials, resp = tmp / "sweep.t.jsonl", tmp / "sweep.r.jsonl"
    _invoke("gen", *SWEEP_FLAGS, "--seed", SEED, "--out", str(trials))
    _invoke("run", "--in", str(trials), "--out", str(resp))
    return _sha(resp)


@pytest.mark.parametrize("name", sorted(PAPER_SETS))
def test_paper_set_bytes(name, tmp_path):
    assert paper_digests(name, tmp_path) == DIGESTS[name]


def test_verb_set_bytes(tmp_path):
    assert paper_digests("verb-push", tmp_path) == DIGESTS["verb-push"]


def test_locating_sweep_response_bytes(tmp_path):
    assert sweep_digest(tmp_path) == DIGESTS["loc-90-n4000"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        print("DIGESTS = {")
        for name in sorted(SETS):
            trials, responses, svg = paper_digests(name, tmp)
            pad = " " * (len(name) + 9)
            print(f'    "{name}": ("{trials}",\n{pad}"{responses}",\n{pad}"{svg}"),')
        print(f'    "loc-90-n4000": "{sweep_digest(tmp)}",\n}}')
