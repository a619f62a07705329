"""Seeded position generation inside a cone's elliptical section.

RNG contract: PCG64 seeded through numpy's SeedSequence(entropy=seed).
`sample_positions(ellipse, n, seed)` draws all n positions from that one
stream, so position i of an n-trial set depends on n.  Only cluttered pairs
have one substream per trial index: the harness seeds `cluttered_pair` for
trial i with `substream_seed(seed, i)`, derived from
SeedSequence(entropy=seed, spawn_key=(i,)), so pair i does not depend on n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCount
from .geometry import Ellipse, SurfacePoint

# local-frame sign pattern of quadrants q1..q4 (counter-clockwise)
_QUADRANT_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def substream_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit seed for the substream at `index`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))


@dataclass(frozen=True)
class ClutteredPair:
    """Two positions on the section's major diametric line, separated by the
    section diameter: the object is the one nearer the center."""

    x_object: SurfacePoint
    x_distractor: SurfacePoint


def _fill_quadrant(rng: np.random.Generator, ellipse: Ellipse, quadrant: int,
                   count: int) -> list[SurfacePoint]:
    # Rejection sampling from the quadrant's bounding box; acceptance pi/4.
    sx, sy = _QUADRANT_SIGNS[quadrant]
    a, b = ellipse.semi_major, ellipse.semi_minor
    out: list[SurfacePoint] = []
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


def sample_positions(ellipse: Ellipse, n: int, seed: int) -> list[SurfacePoint]:
    """n positions uniform within the section, exactly n/4 per quadrant."""
    if n <= 0 or n % 4 != 0:
        raise InvalidCount(f"n must be a positive multiple of 4, got {n}")
    rng = _rng(seed)
    points: list[SurfacePoint] = []
    for q in range(4):
        points.extend(_fill_quadrant(rng, ellipse, q, n // 4))
    return points


def cluttered_pair(ellipse: Ellipse, seed: int) -> ClutteredPair:
    """Diametric object/distractor pair with a uniform random offset.

    Both points sit on the major diametric line, separated by the section
    diameter D = 2 * semi_major; the pair midpoint is displaced from the
    center by offset ~ Uniform[-D/2, D/2] along the same line.  The point
    nearer the center is labeled the object; an exact tie is labeled by the
    sign of the next RNG draw.  Only the two points are returned: the offset
    is the x of their midpoint in the ellipse's axis frame.
    """
    rng = _rng(seed)
    d_full = 2.0 * ellipse.semi_major
    offset = float(rng.uniform(-d_full / 2.0, d_full / 2.0))
    p_plus = ellipse.from_local(offset + d_full / 2.0, 0.0)
    p_minus = ellipse.from_local(offset - d_full / 2.0, 0.0)
    d_plus = abs(offset + d_full / 2.0)
    d_minus = abs(offset - d_full / 2.0)
    if d_plus < d_minus:
        nearer, farther = p_plus, p_minus
    elif d_minus < d_plus:
        nearer, farther = p_minus, p_plus
    elif float(rng.random()) < 0.5:
        nearer, farther = p_plus, p_minus
    else:
        nearer, farther = p_minus, p_plus
    return ClutteredPair(x_object=nearer, x_distractor=farther)
