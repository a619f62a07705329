"""Byte stability: `gen`, `run`, `plot` and `stats` reproduce recorded bytes.

Each flag set below is regenerated through the CLI and every output file is
compared by sha256 with the digest recorded for it: the paper's 11 trial
sets, one verbs set and two kuka sets at n=8 (trials, responses and SVG)
and the three sets of the benchmark's sweeps at n=4000 (trials and
responses).  The stdout of the `stats` commands in `STATS_COMMANDS` and of
a seeded list of r x c chi-squared tables is pinned the same way.  A
change that alters any byte of these outputs fails here.  To record new
digests after a deliberate output change, run

    PYTHONPATH=src python tests/test_byte_stability.py

and replace `DIGESTS` and `STATS_DIGESTS` with its output.
"""
import hashlib
import random
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
# a reversed referential and a cluttered set on the kuka pointer
KUKA_SETS = {
    "ref-45-kuka-reverse": (("--condition", "ref-vs-loc", "--variant", "referential",
                             "--cone", "45", "--robot", "kuka", "--reverse"),
                            "scatter-pies"),
    "clut-90-kuka": (("--condition", "cluttered", "--cone", "90", "--robot", "kuka"),
                     "distance-pies"),
}
# plus the one set that sets --verb, --robot, --no-speech and --reverse
SETS = {**PAPER_SETS, **KUKA_SETS,
        "verb-push": (("--condition", "verbs", "--variant", "locating",
                       "--cone", "67.5", "--verb", "push", "--no-speech",
                       "--reverse", "--robot", "kuka"), "scatter-pies")}
# name -> `gen` flags; the sets of the benchmark's sweep workloads
SWEEPS = {
    "loc-90-n4000": ("--condition", "ref-vs-loc", "--variant", "locating",
                     "--cone", "90", "--n", "4000"),
    "ref-67.5-n4000": ("--condition", "ref-vs-loc", "--variant", "referential",
                       "--cone", "67.5", "--n", "4000"),
    "clut-67.5-n4000": ("--condition", "cluttered", "--cone", "67.5", "--n", "4000"),
}

TABLE1_CHI2 = ("--test", "chi2", "--fixture", "table1")
ALL_ROWS = ",".join(f"{scene}-{config}" for scene in ("natural", "unnatural")
                    for config in ("top", "edge", "table"))
# name -> `stats` flags: the benchmark's three Table-1 commands, chi-squared
# over all six fixture rows and the Fisher report, also as CSV
STATS_COMMANDS = {
    "chi2-table1": (*TABLE1_CHI2, "--rows", "natural-top,unnatural-top"),
    "fisher-table1": ("--test", "fisher", "--fixture", "table1"),
    "tost-table1": ("--test", "tost", "--a", "26/30", "--b", "24/30"),
    "chi2-all-rows": (*TABLE1_CHI2, "--rows", ALL_ROWS),
    "chi2-all-rows-csv": (*TABLE1_CHI2, "--rows", ALL_ROWS, "--csv"),
    "fisher-table1-csv": ("--test", "fisher", "--fixture", "table1", "--csv"),
}
# a 4 x 6 table whose chi-squared p is subnormal (1.5316e-322)
SUBNORMAL_TABLE = ("--cols", "6", "--table",
                   "1,238,6,373,5,33,2,2,9,355,1,7,235,2,2,44,30,216,41,4,4,3,1,47")

DIGESTS = {
    "clut-45": ("72c4d2a8c07894d35ba47b2c49cfd678510285f5b4bd86337cccbc9b228fa6b2",
                "d8add6cf220cf4ce3da5c22a747c78575c88e2673bea6dedb376fa65098dce30",
                "e46e0004926cd51792aa8a160bc6e01674a6942b4f43c7dd4f9a17bd011b60b2"),
    "clut-67.5": ("123b9e56b3504cf0b4efc6f39c6d2688a39305a5ff17e5d9a17243f51b6e1923",
                  "cee40564f106e75d061bd4d8272f90852351b1af6307b263d63e0d2f769f6e0e",
                  "5583821f8c887d3b7c0b91af3c0e221eb3c79b4f12165c045f8a5d16932ee636"),
    "clut-90": ("a7f391991808a748451a2d737a27b8beadaefd4501fff6791f743115a2a15aa6",
                "6ab80f7c39f73bfcc074be85329763a1e31fe1eff35633fd5a87eded4a31834e",
                "20fefb939b37e67d42ac71cf67093aaf864317985691a9438c14db5fd7a37ba7"),
    "clut-90-kuka": ("b8c2000709001c418090833a47af294da64e9b91b35a111bfe3020066dd089a0",
                     "98e0743567e6193bd4da4b365db01e69972fc5994b4d6a2842b3ac179eeef070",
                     "e04cfc9d81c462347b65405629001ca11eafdbf71f8713448d9f937bda22c99e"),
    "loc-45": ("d41f984a753b2947d80a89a1630229c1e519b0630606f9fd634ba53908163bdf",
               "2e82b877ca6310de708b2ff7338702906af123f7647994c974f0ae50724f1848",
               "8f1a3325be1c190947c605564131f3ca818f46f29444b7bf5aa575c47316f4dd"),
    "loc-67.5": ("52b55753fdb7be20767a67c6547d148d82d00cd2979d45be4a520d1b955a834c",
                 "59f73aa59fa5abd2a9e72daf95ce512ee4cdbc9f42f140ab218ca198fd64ef46",
                 "453ecffa55bfd28a14e4cfdd9369457599bcb7332bc4c0461751de5dcfe6ae1e"),
    "loc-90": ("3fa06967ea6a8deb95b8175a12439673b699e44b86afc8a071d6c42ecb069a8c",
               "b4cba4d3c59379d4287e266bf33939ed02c341b47ec8dee5f64f398dbb11faad",
               "3556b4af54e1c2aae914b2247c67c0c053af8ce5b9f09fac52e73db902661cdf"),
    "nat-off": ("b1997cb0c2716bfcdd283f2cc854d77a4fdd2ca89fed7a09328e7f13b9f93117",
                "60f0c0bf28011c6c1ad1882bf641fcb86ce5d3d4ffb26f275eb5cb65b74d6148",
                "45ef86569f72f5df5a3321f9f746dc12c1ad338dc85a9f5daa27a6df270ca75d"),
    "nat-on": ("f1c77fb3a157d40f8a81cb3497e393a1bfb0cf24b9e33101dcf9f51949e1cff4",
               "18d0abf9a813aba7ba11e736c23fba2756404925e89d500ff318aa790d899e9d",
               "87a200ed13f2fb5270625be7c624964eea5079992c195bc18a0d1e6463fc716f"),
    "ref-45": ("c2fe0feb0d65f665f13805f96bc255babaf31afaa51db4557f401808885c9dfd",
               "e750c056098564848dbb77e7f8e7a3e4fb7e91e278611e00a02a2aeef894a6eb",
               "91d22c4a66f0065b26d4f15322fd9aa4566ca360b73c540a79bc0ee82e1cb444"),
    "ref-45-kuka-reverse": ("17d6b8926f1b16ff82a46c744abc78150fc17aa2e0efbf6bdfed87d1dce60b46",
                            "cbd828c0d32b10fda06f6800193d6781337258e3e169fcd2ebb735e04ad562cf",
                            "fa2b466f7e5cd276f755485a8f6f19603ac6955f1f9e4c8181d3938161bd8d82"),
    "ref-67.5": ("20c794492d05c07a606b44b2cd4054ed9abb817e0dfec4e8b740c7f1a5fee5c1",
                 "d83523940ab72134d00aa4da84ac0a703ad24df61f544770a99679c9eccf049d",
                 "8232a08ef0cc55fd1bcf9a2583c67448e39cf4b81918eb633414c8ac8375f2ff"),
    "ref-90": ("34483fe3fd6874a8bafe9db0799bc3d06be40c9fe77dcfc0bd722b4564fd5c20",
               "bda153a4fd08b3f3b5950fed78249e5b539b183070b5511b461e32ee4fb0763b",
               "70603e1061e5a77cef9d45a21baca80da16055694a8ec4591332022567b044b8"),
    "verb-push": ("e5c030fa2c2f8bdbd091d37e2567baec0fc2e587b510a6fa7745c2d769f9d15a",
                  "2871ad0a942bdf88b5c06958a72d7c0b69ea23beba3a7f78ae65c582e70eb223",
                  "8737ab89bfdb1300b3b62b9640318aa304e4e99c2cc85c258d4904f4318084d4"),
    "loc-90-n4000": ("30dd48daa78dc16468db3a9ea6987658b9103bcb7493d395d6c45cc5047df2cd",
                     "7d1a03bfb66b0112af4f42521501d5d6bf676fd660eae46f9a1f44af7bf68abe"),
    "ref-67.5-n4000": ("8a28551f714b131a25ff28e1a7b0b8df61ca8e01c3d1a90746542f2438efe889",
                       "20cc242741eff18cde061e6b70a438cdf5ccae300dfe48b163e420c18fafc1cc"),
    "clut-67.5-n4000": ("357104e9d9bf38257ba8719a11740afcec0b02ea168ecb3c100d8d03da16ee5f",
                        "b1eb0970a38bfee6bad685ae1cb96ad33f70eee7428a292ec4242378c34fb900"),
}
STATS_DIGESTS = {
    "chi2-table1": "a02128eeb4f4c3e22e260b0a5cf748e8835ff9aaced0c61da7700182b124aeb0",
    "fisher-table1": "26540287727cb60244aa257187e7532ab810d7bfa19d9ff5294536a5071c4491",
    "tost-table1": "5a8bc1a6fd9ba6866a8badde0010e24747fb01283e34a0ba9c141c27eb753a5d",
    "chi2-all-rows": "721f61f801f49a0c3557d65d8bc46605992a3173d867949c3ee5ed4bbdd61ef5",
    "chi2-all-rows-csv": "ef4c4ddde9a31e21c2ca09b504a98cdd59799d2bfa2420d4fd9a0a6fe153c3e2",
    "fisher-table1-csv": "258745dddb2568c197d3a15656fbe840479dba37ef5df55b7c42e178d252ede7",
    "random-tables": "0de331c2f85375d4c8fcebbf066382795d82de2d31cbf5bf619ad79c7861f835",
}


def _invoke(*args: str) -> str:
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == 0, res.output
    return res.stdout


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


def sweep_digests(name: str, tmp: Path) -> tuple[str, str]:
    """sha256 of the trials and responses of one set of `SWEEPS`."""
    trials, resp = tmp / f"{name}.t.jsonl", tmp / f"{name}.r.jsonl"
    _invoke("gen", *SWEEPS[name], "--seed", SEED, "--out", str(trials))
    _invoke("run", "--in", str(trials), "--out", str(resp))
    return _sha(trials), _sha(resp)


def random_tables() -> list[tuple[str, ...]]:
    """`--cols`/`--table` flags of the subnormal table and 199 seeded r x c
    tables (r, c from 2 to 8) without a zero marginal.  Cells are drawn from
    [lo, hi] with hi 3, 40 or 400 and lo in [0, hi], so p spans 1 down to
    the deep tail."""
    rng = random.Random(8)
    tables = [SUBNORMAL_TABLE]
    while len(tables) < 200:
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        hi = rng.choice((3, 40, 400))
        lo = rng.randint(0, hi)
        rows = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
        if all(map(any, rows)) and all(map(any, zip(*rows))):
            tables.append(("--cols", str(c), "--table",
                           ",".join(str(v) for row in rows for v in row)))
    return tables


def stats_digest(name: str) -> str:
    """sha256 of the stdout of one `STATS_COMMANDS` entry or, for
    `random-tables`, of `stats --test chi2` over every `random_tables()`."""
    if name == "random-tables":
        out = "".join(_invoke("stats", "--test", "chi2", *flags)
                      for flags in random_tables())
    else:
        out = _invoke("stats", *STATS_COMMANDS[name])
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PAPER_SETS))
def test_paper_set_bytes(name, tmp_path):
    assert paper_digests(name, tmp_path) == DIGESTS[name]


def test_verb_set_bytes(tmp_path):
    assert paper_digests("verb-push", tmp_path) == DIGESTS["verb-push"]


@pytest.mark.parametrize("name", sorted(KUKA_SETS))
def test_kuka_set_bytes(name, tmp_path):
    assert paper_digests(name, tmp_path) == DIGESTS[name]


def test_locating_sweep_response_bytes(tmp_path):
    assert sweep_digests("loc-90-n4000", tmp_path)[1] == DIGESTS["loc-90-n4000"][1]


@pytest.mark.parametrize("name", ["ref-67.5-n4000", "clut-67.5-n4000"])
def test_discrete_sweep_response_bytes(name, tmp_path):
    assert sweep_digests(name, tmp_path)[1] == DIGESTS[name][1]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_trials_bytes(name, tmp_path):
    assert sweep_digests(name, tmp_path)[0] == DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(STATS_DIGESTS))
def test_stats_stdout_bytes(name):
    assert stats_digest(name) == STATS_DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        print("DIGESTS = {")
        for name in sorted(SETS):
            trials, responses, svg = paper_digests(name, tmp)
            pad = " " * (len(name) + 9)
            print(f'    "{name}": ("{trials}",\n{pad}"{responses}",\n{pad}"{svg}"),')
        for name in SWEEPS:
            trials, responses = sweep_digests(name, tmp)
            pad = " " * (len(name) + 9)
            print(f'    "{name}": ("{trials}",\n{pad}"{responses}"),')
        print("}")
    print("STATS_DIGESTS = {")
    for name in [*STATS_COMMANDS, "random-tables"]:
        print(f'    "{name}": "{stats_digest(name)}",')
    print("}")
