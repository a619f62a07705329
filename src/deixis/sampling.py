"""Seeded position generation inside a cone's elliptical section.

RNG contract: PCG64 seeded through SeedSequence(entropy=seed), both ported
here bit for bit from NumPy's random module (O'Neill, *PCG*, 2014; NumPy
NEP 19), which serves only as the test oracle.  `sample_positions(ellipse,
n, seed)` draws all n positions from that one stream, so position i of an
n-trial set depends on n.  Only cluttered pairs have one stream per trial
index: stream i of `substreams(seed, n)` is seeded by the 64-bit state of
SeedSequence(entropy=seed, spawn_key=(i,)), so pair i does not depend on n.
The SeedSequence kernel runs on ints for one seed, and on numpy uint32
arrays, one element per trial, for `SEED_CHUNK` substreams at a time.
Positions and streams are handed on as they are made, so none of them is
held beyond the batch it was drawn or seeded in.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import Ellipse, SurfacePoint

# local-frame sign pattern of quadrants q1..q4 (counter-clockwise)
_QUADRANT_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
# substreams seeded per batch: the lanes are independent, so the states do
# not depend on it.  Seeding 4000 streams in batches of 256 peaks at 0.13 MB
# under tracemalloc, against 2.0 MB in one batch
SEED_CHUNK = 256


def _seed_words(words: list, n_words: int) -> list:
    """SeedSequence's pool-4 hash of `words` (the entropy, 32-bit words
    little end first), then `generate_state(n_words)` as uint32 words.
    All words are ints, or all are uint32 arrays of one length."""
    c = 0x43B0D7E5

    def hashmix(v):
        nonlocal c
        v = v ^ c
        c = c * 0x931E8875 & _M32
        v = v * c & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    zero = words[0] & 0  # an absent pool word hashes as 0
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, c = [], 0x8B51F9DD
    for i in range(n_words):
        v = pool[i % _POOL] ^ c
        c = c * 0x58F38DED & _M32
        v = v * c & _M32
        out.append(v ^ v >> 16)
    return out


def _int_words(seed: int) -> list[int]:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]


class PCG64:
    """NumPy's PCG64: a 128-bit LCG with XSL-RR output, seeded from eight
    SeedSequence words as in `pcg64_set_seed`."""

    __slots__ = ("state", "inc")

    def __init__(self, words) -> None:
        v = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        s, i = v[0] << 64 | v[1], v[2] << 64 | v[3]
        self.inc = (i << 1 | 1) & _M128
        self.state = ((self.inc + s) * _PCG_MULT + self.inc) & _M128

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next 64-bit output."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        v, r = (s >> 64 ^ s) & _M64, s >> 122
        return (((v >> r | v << (64 - r)) & _M64) >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


def _rng(seed: int) -> PCG64:
    return PCG64(_seed_words(_int_words(seed), 8))


def substreams(seed: int, n: int) -> Iterator[PCG64]:
    """The n per-trial streams in order: stream i is seeded by
    SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1, uint64),
    in batches of `SEED_CHUNK` streams made as the last is handed on."""
    words = _int_words(seed)
    words += [0] * (_POOL - len(words))  # a spawn key pads the entropy to the pool

    def batch(start: int) -> list[PCG64]:
        keys = np.arange(start, min(start + SEED_CHUNK, n), dtype=np.uint32)
        spawned = _seed_words([np.full(len(keys), w, np.uint32) for w in words]
                              + [keys], 2)
        state = _seed_words(spawned, 8)  # a high word of 0 hashes as absent
        return [PCG64(w) for w in zip(*(a.tolist() for a in state))]

    return chain.from_iterable(map(batch, range(0, n, SEED_CHUNK)))


@dataclass(frozen=True)
class ClutteredPair:
    """Two positions on the section's major diametric line, separated by the
    section diameter: the object is the one nearer the center."""

    x_object: SurfacePoint
    x_distractor: SurfacePoint


def _fill_quadrant(rng: PCG64, ellipse: Ellipse, quadrant: int,
                   count: int) -> Iterator[SurfacePoint]:
    # Rejection sampling from the quadrant's bounding box; acceptance pi/4.
    # The stream's order is fixed: each batch draws m xs, then m ys, and
    # squares by multiplication, as numpy's float64 `square` does.
    sx, sy = _QUADRANT_SIGNS[quadrant]
    a, b = ellipse.semi_major, ellipse.semi_minor
    left = count
    while left:
        m = max(2 * left, 8)
        xs = [rng.random() * a for _ in range(m)]
        ys = [rng.random() * b for _ in range(m)]
        for x, y in zip(xs, ys):
            if not left:
                break
            tx, ty = x / a, y / b
            if tx * tx + ty * ty < 1.0:
                left -= 1
                yield ellipse.from_local(sx * x, sy * y)


def sample_positions(ellipse: Ellipse, n: int, seed: int) -> Iterator[SurfacePoint]:
    """n positions uniform within the section, exactly n/4 per quadrant,
    handed on as they are drawn."""
    if n <= 0 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    rng = _rng(seed)
    return chain.from_iterable(_fill_quadrant(rng, ellipse, q, n // 4) for q in range(4))


def cluttered_pair(ellipse: Ellipse, rng: PCG64) -> ClutteredPair:
    """Diametric object/distractor pair with a uniform random offset.

    Both points sit on the major diametric line, separated by the section
    diameter D = 2 * semi_major; the pair midpoint is displaced from the
    center by offset ~ Uniform[-D/2, D/2] along the same line.  The point
    nearer the center is labeled the object; an exact tie is labeled by the
    sign of the next draw from `rng`.  Only the two points are returned: the
    offset is the x of their midpoint in the ellipse's axis frame.
    """
    d_full = 2.0 * ellipse.semi_major
    offset = rng.uniform(-d_full / 2.0, d_full / 2.0)
    p_plus = ellipse.from_local(offset + d_full / 2.0, 0.0)
    p_minus = ellipse.from_local(offset - d_full / 2.0, 0.0)
    d_plus = abs(offset + d_full / 2.0)
    d_minus = abs(offset - d_full / 2.0)
    if d_plus < d_minus:
        nearer, farther = p_plus, p_minus
    elif d_minus < d_plus:
        nearer, farther = p_minus, p_plus
    elif rng.random() < 0.5:
        nearer, farther = p_plus, p_minus
    else:
        nearer, farther = p_minus, p_plus
    return ClutteredPair(x_object=nearer, x_distractor=farther)
