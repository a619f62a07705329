"""Byte stability: `gen`, `run`, `plot` and `stats` reproduce recorded bytes.

Each flag set below is regenerated through the CLI and every output file is
compared by sha256 with the digest recorded for it: the paper's 11 trial
sets, one tagged ref-vs-loc set and two kuka sets at n=8 (trials,
responses and SVG) and the three sets of the benchmark's sweeps at n=4000
(trials and responses).  The stdout of the `stats` commands in
`STATS_COMMANDS` and of a seeded list of r x c chi-squared tables is
pinned the same way.  A change that alters any byte of these outputs fails
here.  To record new digests after a deliberate output change, run

    PYTHONPATH=src python tests/test_byte_stability.py

and replace `DIGESTS` and `STATS_DIGESTS` with its output.  The sizes of
the sweep trials and responses files, which the benchmark's
`trials_bytes_per_trial` and `responses_bytes_per_trial` count, are pinned
in `SWEEP_TRIALS_SIZES` and `SWEEP_RESPONSES_SIZES`, kept by hand: a writer
change that lengthens the records fails there even once its digests are
recorded again.
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
        "verb-push": (("--condition", "ref-vs-loc", "--variant", "locating",
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
    "clut-45": ("3811aeebe6fbc90102bfd024492ac8286c86e0dae0f518d3b2937c3a4e5b3b9b",
                "8198974b063a5952d8b52562b5da2b78da3cdefa412608eabc1b3433dd5558e0",
                "e46e0004926cd51792aa8a160bc6e01674a6942b4f43c7dd4f9a17bd011b60b2"),
    "clut-67.5": ("5fc492f0937febc700f12205c1d363a6356e3d84d06bea8705c1614a5fa59f73",
                  "fa484debd8191b412596dfaddec98c1615abb21a1628b609732833f7ded4b237",
                  "5583821f8c887d3b7c0b91af3c0e221eb3c79b4f12165c045f8a5d16932ee636"),
    "clut-90": ("fd7b91e5d8f16b9f302d5ca37410805d90931e9e773d60317d5249a600df4fa2",
                "c5b2666ddaaf7519416d8dc2f0cb147ae301f127b9d607362d1cc9b5a27577c4",
                "20fefb939b37e67d42ac71cf67093aaf864317985691a9438c14db5fd7a37ba7"),
    "clut-90-kuka": ("fcc1352e1212fdec4b96ecceda8648fb5e4eb09b3dc38bf735c7c7bb6632c9b6",
                     "cec855594f9bcf6e0f3e73c115c784e45ca008ef11882d899a51309bef393d2d",
                     "e04cfc9d81c462347b65405629001ca11eafdbf71f8713448d9f937bda22c99e"),
    "loc-45": ("ec57f03593ed9da3b87df62529006c9e328916994a02a47a081a6af6fc8f9df2",
               "b9cfc64c84c8ffb09d803134e0820e5508b7c827693767bf0dd9c67ac00bcb71",
               "8f1a3325be1c190947c605564131f3ca818f46f29444b7bf5aa575c47316f4dd"),
    "loc-67.5": ("963fcce5957a11630e38c103b01af14e06d25dec55c4fb7513ffa111adf47a67",
                 "283d26923d5ff2fbf5b82d3772a1b74cff61f301048c6c20c1441bf25da54393",
                 "453ecffa55bfd28a14e4cfdd9369457599bcb7332bc4c0461751de5dcfe6ae1e"),
    "loc-90": ("b109e7c95023860f713511992ca90db9d5e6b132f0afeb02874d5574cc7ded49",
               "d143c25a1920672ef4e4a816316c001223f480145824ca5f3dafedec17a03f6f",
               "3556b4af54e1c2aae914b2247c67c0c053af8ce5b9f09fac52e73db902661cdf"),
    "nat-off": ("2ebab73f58e99ddd49dd731071f3a47c04be3d216fcfc6aa90ec837d9937ac60",
                "efc59203d9d3d91cbf77821b3ac80aaeda132f4e0b48044dee71edc9d66d0153",
                "45ef86569f72f5df5a3321f9f746dc12c1ad338dc85a9f5daa27a6df270ca75d"),
    "nat-on": ("6ba7c903c1aad288c79f03b07f482a3d65665a7d2260787bdbf1352bf8b98b3e",
               "7e7a0e0dfd833e982d827ba02108123c21066fe0b98031ecf991b78008fad2d3",
               "87a200ed13f2fb5270625be7c624964eea5079992c195bc18a0d1e6463fc716f"),
    "ref-45": ("76a7530bd50a745802212a6c84f0dbd393ae800bcfe1c6baeae988b87d180b5f",
               "287c0bbaeb5cd31cbabbbb17e0da4614f06dbe61121dddc14bb3b94e9db2348c",
               "91d22c4a66f0065b26d4f15322fd9aa4566ca360b73c540a79bc0ee82e1cb444"),
    "ref-45-kuka-reverse": ("c6cb9d3444b456f87fbfca32b67d4e986e10fc3e1d9fe3f3d55bba40e32957ac",
                            "fa066f988b192e97a3c7bbaa01b69ad6b90b73cc19587d59970a8ddd5b65dfca",
                            "fa2b466f7e5cd276f755485a8f6f19603ac6955f1f9e4c8181d3938161bd8d82"),
    "ref-67.5": ("67ed65284684a89671274a269adceb34931ae8e8b0b1e1d18534765b43553329",
                 "522f9207f3b0e24729485516ec54c465e91fdfba5193fb9857c61f2c73ca753a",
                 "8232a08ef0cc55fd1bcf9a2583c67448e39cf4b81918eb633414c8ac8375f2ff"),
    "ref-90": ("fcbccc72703a5cac6356831d8986d16eecc9a5fbe2e814805df2fa6662120bf3",
               "24f44c21d8666bef3d5b9ca6eb1691691df9c673d301e93ca414783515470bd5",
               "70603e1061e5a77cef9d45a21baca80da16055694a8ec4591332022567b044b8"),
    "verb-push": ("a92dc4b4e12b3f4ef7aad8fda5e9fa483ea1b52f14a27e5cc1808dd34d8d5d25",
                  "7204b3d4c3f17fe32e57ba7d589a40873ca93a36a8ed96e9e9388ca744cc40db",
                  "8737ab89bfdb1300b3b62b9640318aa304e4e99c2cc85c258d4904f4318084d4"),
    "loc-90-n4000": ("d8f0106424a401767857dc3dc2bb53fe942a3a17e9531e12fac74d315c34cbe2",
                     "7ba1acf0cc58ac83526596cc7bd638a74f13245e71a8d65b01b5b95e5441364f"),
    "ref-67.5-n4000": ("c5f67ef298290d5fc15eb15bf11417e0f3b3de933264cc3a693da38e8e46cf34",
                       "4262a3c3dd1d84573f6e245fc37278f29e000b233891e7bf12658051370cbb18"),
    "clut-67.5-n4000": ("b7540b3209e286da823f5a289f02e8a051f3a6edc30aa29de4b414a0432805c2",
                        "bdb89dfe8eb810021ae8057ac2a4f2ae82edb94b6f845fac2411bc1165ff5bc2"),
}
# name -> the size in bytes of the trials file of one set of `SWEEPS`
SWEEP_TRIALS_SIZES = {
    "loc-90-n4000": 192311,
    "ref-67.5-n4000": 231593,
    "clut-67.5-n4000": 336595,
}
# name -> the size in bytes of the responses file of one set of `SWEEPS`
SWEEP_RESPONSES_SIZES = {
    "loc-90-n4000": 400478,
    "ref-67.5-n4000": 390466,
    "clut-67.5-n4000": 605434,
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


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_trials_sizes(name, tmp_path):
    trials = tmp_path / "t.jsonl"
    _invoke("gen", *SWEEPS[name], "--seed", SEED, "--out", str(trials))
    assert trials.stat().st_size == SWEEP_TRIALS_SIZES[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_responses_sizes(name, tmp_path):
    trials, resp = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    _invoke("gen", *SWEEPS[name], "--seed", SEED, "--out", str(trials))
    _invoke("run", "--in", str(trials), "--out", str(resp))
    assert resp.stat().st_size == SWEEP_RESPONSES_SIZES[name]


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
