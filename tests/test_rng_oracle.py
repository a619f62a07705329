"""The in-package SeedSequence and PCG64 against `numpy.random`, the oracle.

`deixis.sampling` ports both bit for bit; no module of the package imports
`numpy.random`.  The `_np_*` functions are the numpy implementation of
`sample_positions` and `cluttered_pair` that the port replaced, kept here
unchanged as the reference for every draw order and float operation.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

import deixis
from deixis import sampling
from deixis.geometry import Ellipse, SurfacePoint
from deixis.sampling import (_QUADRANT_SIGNS, ClutteredPair, _int_words, _rng,
                             _seed_words, cluttered_pair, sample_positions,
                             substreams)

SEED_40_DIGITS = 10 ** 39 + 7
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, SEED_40_DIGITS]
SPAWN_KEYS = [*range(1000), 2 ** 32 - 1]
TILTED = Ellipse(SurfacePoint(0.3, -0.1), 0.8, 0.5, 0.6)


def _np_rng(seed):
    return Generator(PCG64(SeedSequence(entropy=seed)))


def _np_substream_seed(seed, index):
    ss = SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _np_fill_quadrant(rng, ellipse, quadrant, count):
    sx, sy = _QUADRANT_SIGNS[quadrant]
    a, b = ellipse.semi_major, ellipse.semi_minor
    out = []
    while len(out) < count:
        m = max(2 * (count - len(out)), 8)
        xs = rng.random(m) * a
        ys = rng.random(m) * b
        keep = (xs / a) ** 2 + (ys / b) ** 2 < 1.0
        for x, y in zip(xs[keep], ys[keep]):
            if len(out) == count:
                break
            out.append(ellipse.from_local(sx * float(x), sy * float(y)))
    return out


def _np_sample_positions(ellipse, n, seed):
    rng = _np_rng(seed)
    return [p for q in range(4) for p in _np_fill_quadrant(rng, ellipse, q, n // 4)]


def _np_cluttered_pair(ellipse, seed):
    rng = _np_rng(seed)
    d_full = 2.0 * ellipse.semi_major
    offset = float(rng.uniform(-d_full / 2.0, d_full / 2.0))
    p_plus = ellipse.from_local(offset + d_full / 2.0, 0.0)
    p_minus = ellipse.from_local(offset - d_full / 2.0, 0.0)
    d_plus, d_minus = abs(offset + d_full / 2.0), abs(offset - d_full / 2.0)
    if d_plus < d_minus:
        return ClutteredPair(p_plus, p_minus)
    if d_minus < d_plus:
        return ClutteredPair(p_minus, p_plus)
    if float(rng.random()) < 0.5:
        return ClutteredPair(p_plus, p_minus)
    return ClutteredPair(p_minus, p_plus)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_sequence_state_matches_numpy(seed):
    assert (_seed_words(_int_words(seed), 8)
            == SeedSequence(seed).generate_state(8).tolist())
    # a spawn key pads the entropy to the pool size, then follows it
    words = _int_words(seed)
    words += [0] * (4 - len(words))
    keys = np.array(SPAWN_KEYS, dtype=np.uint32)
    batch = _seed_words([np.full(len(keys), w, np.uint32) for w in words] + [keys], 4)
    for i, key in enumerate(SPAWN_KEYS):
        expected = SeedSequence(seed, spawn_key=(key,)).generate_state(4).tolist()
        assert [int(a[i]) for a in batch] == expected, key
        if key % 250 == 0 or key == SPAWN_KEYS[-1]:  # the int kernel too
            assert _seed_words(words + [key], 4) == expected, key


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_doubles_match_numpy(seed):
    rng = _rng(seed)
    assert [rng.random() for _ in range(1000)] == _np_rng(seed).random(1000).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_match_numpy(seed):
    for i, rng in enumerate(substreams(seed, 1000)):
        oracle = _np_rng(_np_substream_seed(seed, i))
        assert [rng.random(), rng.random()] == oracle.random(2).tolist(), i


@pytest.mark.parametrize("seed", [0, SEED_40_DIGITS])
def test_substreams_match_numpy_across_seeding_batches(seed):
    chunk = sampling.SEED_CHUNK
    n = 3 * chunk + 5
    edges = {i for k in range(1, 4) for i in (k * chunk - 1, k * chunk, k * chunk + 1)}
    streams = list(substreams(seed, n))
    assert len(streams) == n
    for i in sorted(edges | {0, n - 1}):
        oracle = _np_rng(_np_substream_seed(seed, i))
        assert [streams[i].random(), streams[i].random()] == oracle.random(2).tolist(), i


def test_uniform_and_the_next_draw_match_numpy():
    for seed, (lo, hi) in enumerate([(-0.5, 0.5), (0.0, 1.0), (-3.25, 7.0),
                                     (1e-300, 1e300), (2.0, 2.0)]):
        rng, oracle = _rng(seed), _np_rng(seed)
        assert rng.uniform(lo, hi) == oracle.uniform(lo, hi)
        assert rng.random() == oracle.random()


def test_tie_takes_the_second_draw_of_its_stream(monkeypatch):
    # an exact tie needs offset 0.0: force it, and the label must follow the
    # stream's next double as in the numpy implementation
    uniform = sampling.PCG64.uniform

    def tie(self, lo, hi):
        uniform(self, lo, hi)  # the offset's draw
        return 0.0

    monkeypatch.setattr(sampling.PCG64, "uniform", tie)
    plus = TILTED.from_local(TILTED.semi_major, 0.0)
    labels = set()
    for seed in range(40):
        oracle = _np_rng(seed)
        oracle.uniform(-1.0, 1.0)
        pair = cluttered_pair(TILTED, _rng(seed))
        assert (pair.x_object == plus) == (oracle.random() < 0.5), seed
        labels.add(pair.x_object == plus)
    assert labels == {True, False}


def test_sample_positions_match_the_numpy_implementation():
    for n in range(4, 404, 4):
        seed = 31 * n
        assert list(sample_positions(TILTED, n, seed)) == _np_sample_positions(TILTED, n, seed), n
    for seed in (2 ** 70, SEED_40_DIGITS):
        assert list(sample_positions(TILTED, 64, seed)) == _np_sample_positions(TILTED, 64, seed)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345, 2 ** 32 - 1, 2 ** 32 + 7, 2 ** 70,
                                  2 ** 140 + 3, 10 ** 6, SEED_40_DIGITS])
def test_cluttered_pairs_match_the_numpy_implementation(seed):
    got = [cluttered_pair(TILTED, rng) for rng in substreams(seed, 300)]
    assert got == [_np_cluttered_pair(TILTED, _np_substream_seed(seed, i))
                   for i in range(300)]


def _modules_after(code):
    env = {**os.environ, "PYTHONPATH": str(Path(deixis.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    return set(out.split())


def test_gen_does_not_import_numpy_random(tmp_path):
    code = f"""
import sys
from deixis.cli import main
for flags in (["ref-vs-loc", "--cone", "67.5"],
              ["ref-vs-loc", "--variant", "locating", "--cone", "90"],
              ["cluttered", "--cone", "67.5"]):
    try:
        main(["gen", "--condition", *flags, "--n", "8", "--seed", "1",
              "--out", {str(tmp_path / "t.jsonl")!r}])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(*sys.modules)
"""
    modules = _modules_after(code)
    assert "deixis.harness" in modules
    assert "numpy.random" not in modules


def test_importing_the_cli_loads_numpy():
    # the benchmark's set-up step times `import deixis.cli` with numpy in it
    assert "numpy" in _modules_after("import sys, deixis.cli; print(*sys.modules)")
