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
    "clut-45": ("abe80158a10142d0bedb1a3ac9aa5685a0ca29c06f396de3dd659019db8d19f4",
                "8198974b063a5952d8b52562b5da2b78da3cdefa412608eabc1b3433dd5558e0",
                "e46e0004926cd51792aa8a160bc6e01674a6942b4f43c7dd4f9a17bd011b60b2"),
    "clut-67.5": ("79a81bd32aa4908729daeef391187ccf05b6e94c08a6808f4277a8a835f95d8f",
                  "fa484debd8191b412596dfaddec98c1615abb21a1628b609732833f7ded4b237",
                  "5583821f8c887d3b7c0b91af3c0e221eb3c79b4f12165c045f8a5d16932ee636"),
    "clut-90": ("56802feb36f3293d4f1084a051e1f762c581c8ae742e0cc9442e00436b579646",
                "c5b2666ddaaf7519416d8dc2f0cb147ae301f127b9d607362d1cc9b5a27577c4",
                "20fefb939b37e67d42ac71cf67093aaf864317985691a9438c14db5fd7a37ba7"),
    "clut-90-kuka": ("d93012f8128bc4eb79a55ad624c7d51d016a6d4b06405a3a29ca199cb8c5d780",
                     "cec855594f9bcf6e0f3e73c115c784e45ca008ef11882d899a51309bef393d2d",
                     "e04cfc9d81c462347b65405629001ca11eafdbf71f8713448d9f937bda22c99e"),
    "loc-45": ("f4bd27473e45d3163113b3575a6f22f551ff2091cf12d03234dafb7e7d655c8b",
               "b9cfc64c84c8ffb09d803134e0820e5508b7c827693767bf0dd9c67ac00bcb71",
               "8f1a3325be1c190947c605564131f3ca818f46f29444b7bf5aa575c47316f4dd"),
    "loc-67.5": ("91b0fe2dd551735e384be2652a0cf4ac39f774d3e8898715f74fdb38c3f8ddde",
                 "283d26923d5ff2fbf5b82d3772a1b74cff61f301048c6c20c1441bf25da54393",
                 "453ecffa55bfd28a14e4cfdd9369457599bcb7332bc4c0461751de5dcfe6ae1e"),
    "loc-90": ("18fb70b1f0e8b48ecfefbed63a8aea4bc7f7accbec1c622333c0f98e05b8b83e",
               "d143c25a1920672ef4e4a816316c001223f480145824ca5f3dafedec17a03f6f",
               "3556b4af54e1c2aae914b2247c67c0c053af8ce5b9f09fac52e73db902661cdf"),
    "nat-off": ("19582dd92931bcac1a2d65999fdcb5190fbcfdb286f4d6706f5bffc8f3262081",
                "f96f6f24df26b91f9ad0f72ce9766d4b062ad4f3db0a10c466e98aedbbf4058f",
                "45ef86569f72f5df5a3321f9f746dc12c1ad338dc85a9f5daa27a6df270ca75d"),
    "nat-on": ("541dc0ba01e9b7fa86d8266b4932ccb796c5f58231fdd9f3445e4e2c5d0b53e5",
               "41df21c952df51c858215b1acd8bd89c7627d579c0b4126f3a31af6ae678200c",
               "87a200ed13f2fb5270625be7c624964eea5079992c195bc18a0d1e6463fc716f"),
    "ref-45": ("40b9813a6e43add6dc268638f1aedac9e71889e0cb176a645d95f1aacfd8b2dd",
               "287c0bbaeb5cd31cbabbbb17e0da4614f06dbe61121dddc14bb3b94e9db2348c",
               "91d22c4a66f0065b26d4f15322fd9aa4566ca360b73c540a79bc0ee82e1cb444"),
    "ref-45-kuka-reverse": ("17976c13a8f63aefb8ee5769b28ca9b16bccc745460d572162bfb2c1211b831f",
                            "fa066f988b192e97a3c7bbaa01b69ad6b90b73cc19587d59970a8ddd5b65dfca",
                            "fa2b466f7e5cd276f755485a8f6f19603ac6955f1f9e4c8181d3938161bd8d82"),
    "ref-67.5": ("88686e420f57ca8bf935e6bdde3d73bac3082b246755a6b51b21bda91b9aa5eb",
                 "522f9207f3b0e24729485516ec54c465e91fdfba5193fb9857c61f2c73ca753a",
                 "8232a08ef0cc55fd1bcf9a2583c67448e39cf4b81918eb633414c8ac8375f2ff"),
    "ref-90": ("6f151ae383d1b250194805ce2a277fdddb8bdcb41639c0533e9a031a44ce87f6",
               "24f44c21d8666bef3d5b9ca6eb1691691df9c673d301e93ca414783515470bd5",
               "70603e1061e5a77cef9d45a21baca80da16055694a8ec4591332022567b044b8"),
    "verb-push": ("be9e3b9aa5582e42cfcd0f22ad725ab6aba6a2e2fe43724991d817ecf0b18866",
                  "7204b3d4c3f17fe32e57ba7d589a40873ca93a36a8ed96e9e9388ca744cc40db",
                  "8737ab89bfdb1300b3b62b9640318aa304e4e99c2cc85c258d4904f4318084d4"),
    "loc-90-n4000": ("95c237eab949074c0ed12f685e29df3d6a60519016441d9c622e834132a649c3",
                     "7ba1acf0cc58ac83526596cc7bd638a74f13245e71a8d65b01b5b95e5441364f"),
    "ref-67.5-n4000": ("76c3e10f1583d1208713cd2a0eea321d229d16f08089cab64ddac9bc62d5d964",
                       "4262a3c3dd1d84573f6e245fc37278f29e000b233891e7bf12658051370cbb18"),
    "clut-67.5-n4000": ("566cd6ec89c15d06577db77a819dca4ff4ac0a3a25489eec089380682450958b",
                        "bdb89dfe8eb810021ae8057ac2a4f2ae82edb94b6f845fac2411bc1165ff5bc2"),
}
# name -> the size in bytes of the trials file of one set of `SWEEPS`
SWEEP_TRIALS_SIZES = {
    "loc-90-n4000": 192373,
    "ref-67.5-n4000": 231660,
    "clut-67.5-n4000": 336649,
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
