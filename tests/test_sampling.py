import math
from collections import Counter

import pytest

from deixis.geometry import Ellipse, SurfacePoint, surface_distance
from deixis.sampling import _rng, cluttered_pair, sample_positions, substreams
from ellipse_oracle import contains, to_local

CIRCLE = Ellipse(SurfacePoint(0.0, 0.0), 1.0, 1.0, 0.0)
TILTED = Ellipse(SurfacePoint(0.3, -0.1), 0.8, 0.5, 0.6)


def quadrant_of(ellipse, p):
    """Quadrant index 0..3, counter-clockwise from (+, +), in the ellipse's
    axis frame."""
    x, y = to_local(ellipse, p)
    for k, (sx, sy) in enumerate(((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))):
        if x * sx >= 0.0 and y * sy >= 0.0:
            return k
    raise AssertionError("unreachable")


class TestSamplePositions:
    def test_two_per_quadrant(self):
        pts = list(sample_positions(TILTED, 8, 0))
        assert len(pts) == 8
        counts = Counter(quadrant_of(TILTED, p) for p in pts)
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_containment(self):
        pts = list(sample_positions(TILTED, 400, 5))
        for p in pts:
            assert contains(TILTED, p)

    def test_determinism_and_seed_sensitivity(self):
        a = list(sample_positions(TILTED, 16, 9))
        b = list(sample_positions(TILTED, 16, 9))
        c = list(sample_positions(TILTED, 16, 10))
        assert a == b
        assert a != c

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="^n must be a positive multiple of 4, got 7$"):
            sample_positions(TILTED, 7, 0)
        with pytest.raises(ValueError, match="^n must be a positive multiple of 4, got 0$"):
            sample_positions(TILTED, 0, 0)

    def test_negative_seed(self):
        for draw in (lambda: sample_positions(TILTED, 8, -1), lambda: substreams(-1, 4)):
            with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
                draw()

    def test_quadrant_uniformity(self):
        # 16 equal-area bins per quadrant: 4 angular x 4 radial-area slices
        pts = list(sample_positions(TILTED, 4000, 3))
        crit = 37.697  # chi-squared 0.999 quantile, df = 15
        for q in range(4):
            bins = Counter()
            n_q = 0
            for p in pts:
                if quadrant_of(TILTED, p) != q:
                    continue
                x, y = to_local(TILTED, p)
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


def pair_offset(pair):
    """The pair midpoint's x in the ellipse's axis frame: the sampled offset."""
    mid = SurfacePoint((pair.x_object.u + pair.x_distractor.u) / 2.0,
                       (pair.x_object.v + pair.x_distractor.v) / 2.0)
    return to_local(TILTED, mid)[0]


class TestClutteredPair:
    def test_separation_is_diameter(self):
        for seed in range(50):
            pair = cluttered_pair(TILTED, _rng(seed))
            d = surface_distance(pair.x_object, pair.x_distractor)
            assert abs(d - 2.0 * TILTED.semi_major) <= 1e-9
            assert abs(pair_offset(pair)) <= TILTED.semi_major

    def test_object_is_nearer_to_center(self):
        for seed in range(50):
            pair = cluttered_pair(TILTED, _rng(seed))
            d_obj = surface_distance(pair.x_object, TILTED.center)
            d_dis = surface_distance(pair.x_distractor, TILTED.center)
            assert d_obj <= d_dis
            assert abs((d_dis - d_obj) - 2.0 * abs(pair_offset(pair))) <= 1e-9

    def test_offset_uniformity_ks(self):
        d = 2.0 * TILTED.semi_major
        offsets = sorted(pair_offset(cluttered_pair(TILTED, _rng(s))) for s in range(10_000))
        n = len(offsets)
        ks = max(max(abs((i + 1) / n - (x + d / 2) / d),
                     abs(i / n - (x + d / 2) / d))
                 for i, x in enumerate(offsets))
        assert ks < 0.02

    def test_determinism(self):
        assert cluttered_pair(CIRCLE, _rng(42)) == cluttered_pair(CIRCLE, _rng(42))


class TestSubstreams:
    def test_substreams_stable_and_distinct(self):
        first = [rng.random() for rng in substreams(5, 100)]
        assert first == [rng.random() for rng in substreams(5, 100)]
        assert len(set(first)) == 100

    def test_stream_i_does_not_depend_on_n(self):
        short, long = list(substreams(5, 8)), list(substreams(5, 4000))
        for i in range(8):
            assert ([short[i].random() for _ in range(3)]
                    == [long[i].random() for _ in range(3)])
        assert list(substreams(5, 0)) == []
