import math
from collections import Counter

import pytest

from deixis.errors import InvalidCount
from deixis.geometry import Ellipse, SurfacePoint, surface_distance
from deixis.sampling import (SampleConfig, cluttered_pair, sample_positions,
                             substream_seed)

CIRCLE = Ellipse(SurfacePoint(0.0, 0.0), 1.0, 1.0, 0.0)
TILTED = Ellipse(SurfacePoint(0.3, -0.1), 0.8, 0.5, 0.6)


def quadrant_of(ellipse, p):
    """Quadrant index 0..3, counter-clockwise from (+, +), in the ellipse's
    axis frame."""
    x, y = ellipse.to_local(p)
    for k, (sx, sy) in enumerate(((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))):
        if x * sx >= 0.0 and y * sy >= 0.0:
            return k
    raise AssertionError("unreachable")


class TestSamplePositions:
    def test_two_per_quadrant(self):
        pts = sample_positions(TILTED, SampleConfig(8, 0, math.radians(45)))
        assert len(pts) == 8
        counts = Counter(quadrant_of(TILTED, p) for p in pts)
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_containment(self):
        pts = sample_positions(TILTED, SampleConfig(400, 5, math.radians(67.5)))
        for p in pts:
            assert TILTED.contains(p)

    def test_determinism_and_seed_sensitivity(self):
        cfg = SampleConfig(16, 9, math.radians(45))
        a = sample_positions(TILTED, cfg)
        b = sample_positions(TILTED, cfg)
        c = sample_positions(TILTED, SampleConfig(16, 10, math.radians(45)))
        assert a == b
        assert a != c

    def test_invalid_count(self):
        with pytest.raises(InvalidCount):
            SampleConfig(7, 0, math.radians(45))
        with pytest.raises(InvalidCount):
            SampleConfig(0, 0, math.radians(45))

    def test_quadrant_uniformity(self):
        # 16 equal-area bins per quadrant: 4 angular x 4 radial-area slices
        pts = sample_positions(TILTED, SampleConfig(4000, 3, math.radians(90)))
        crit = 37.697  # chi-squared 0.999 quantile, df = 15
        for q in range(4):
            bins = Counter()
            n_q = 0
            for p in pts:
                if quadrant_of(TILTED, p) != q:
                    continue
                x, y = TILTED.to_local(p)
                r2 = (x / TILTED.semi_major) ** 2 + (y / TILTED.semi_minor) ** 2
                ang = math.atan2(abs(y) / TILTED.semi_minor,
                                 abs(x) / TILTED.semi_major)
                a_bin = min(3, int(ang / (math.pi / 8.0)))
                r_bin = min(3, int(r2 * 4.0))
                bins[(a_bin, r_bin)] += 1
                n_q += 1
            assert n_q == 1000
            exp = n_q / 16.0
            stat = sum((bins.get((i, j), 0) - exp) ** 2 / exp
                       for i in range(4) for j in range(4))
            assert stat < crit


class TestClutteredPair:
    def test_separation_is_diameter(self):
        for seed in range(50):
            pair = cluttered_pair(TILTED, seed)
            d = surface_distance(pair.x_object, pair.x_distractor)
            assert abs(d - 2.0 * TILTED.semi_major) <= 1e-9
            assert abs(pair.offset) <= TILTED.semi_major

    def test_object_is_nearer_to_center(self):
        for seed in range(50):
            pair = cluttered_pair(TILTED, seed)
            d_obj = surface_distance(pair.x_object, TILTED.center)
            d_dis = surface_distance(pair.x_distractor, TILTED.center)
            assert d_obj <= d_dis
            assert abs((d_dis - d_obj) - 2.0 * abs(pair.offset)) <= 1e-9

    def test_offset_uniformity_ks(self):
        d = 2.0 * TILTED.semi_major
        offsets = sorted(cluttered_pair(TILTED, s).offset for s in range(10_000))
        n = len(offsets)
        ks = max(max(abs((i + 1) / n - (x + d / 2) / d),
                     abs(i / n - (x + d / 2) / d))
                 for i, x in enumerate(offsets))
        assert ks < 0.02

    def test_determinism(self):
        assert cluttered_pair(CIRCLE, 42) == cluttered_pair(CIRCLE, 42)


class TestSubstreams:
    def test_substream_seed_stable(self):
        assert substream_seed(0, 0) == substream_seed(0, 0)
        seen = {substream_seed(5, i) for i in range(100)}
        assert len(seen) == 100

    def test_substream_independent_of_order(self):
        late = substream_seed(5, 99)
        early = substream_seed(5, 0)
        assert (substream_seed(5, 99), substream_seed(5, 0)) == (late, early)
