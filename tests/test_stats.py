import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from deixis.errors import DegenerateTable, InvalidCounts
from deixis.stats import (_FISHER_SLACK, ContingencyTable, _log_hypergeom,
                          chi_squared_test, chi_squared_upper_tail,
                          fisher_exact_2x2, norm_cdf, tost_equivalence)


def table(*rows):
    return ContingencyTable(tuple(tuple(r) for r in rows))


class TestContingencyTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            table((1, 2))
        with pytest.raises(ValueError):
            table((1,), (2,))
        with pytest.raises(ValueError):
            table((1, 2), (3,))
        with pytest.raises(ValueError):
            table((1, -2), (3, 4))
        with pytest.raises(ValueError):
            table((1.5, 2), (3, 4))

    def test_margins(self):
        t = table((1, 2, 3), (4, 5, 6))
        assert t.row_sums == (6, 15)
        assert t.col_sums == (5, 7, 9)
        assert t.total == 21


class TestGammaQ:
    """The chi-squared tail at (2x, 2s) is the regularized upper incomplete
    gamma Q(s, x), which scipy computes independently."""

    def test_against_scipy_grid(self):
        for s in (0.5, 1.0, 2.5, 7.5, 20.0, 100.0):
            for x in (0.0, 0.3, 1.0, 5.0, 25.0, 150.0):
                assert abs(chi_squared_upper_tail(2.0 * x, int(2.0 * s))
                           - scipy.special.gammaincc(s, x)) < 1e-12

    def test_large_dof_against_scipy(self):
        # the bulk (z standard deviations from the mean) and both flanks
        for dof in (1, 3, 40, 1000, 5000, 14000, 20000, 50000):
            sd = math.sqrt(2.0 * dof)
            for stat in [max(0.0, dof + z * sd) for z in (-3, -1, 0, 1, 3)] + [
                    0.5 * dof, 2.0 * dof]:
                assert abs(chi_squared_upper_tail(stat, dof)
                           - scipy.stats.chi2.sf(stat, dof)) < 1e-10, (stat, dof)

    def test_domain_errors(self):
        for stat, dof in ((-1.0, 1), (1.0, 0), (1.0, 2.5), (1.0, True)):
            with pytest.raises(ValueError):
                chi_squared_upper_tail(stat, dof)


class TestChiSquared:
    def test_known_example(self):
        res = chi_squared_test(table((10, 20), (20, 10)))
        assert res.statistic == pytest.approx(6.6667, abs=1e-4)
        assert res.dof == 1
        assert res.p_value == pytest.approx(0.009823, abs=1e-6)

    def test_tail_matches_integral_oracle(self):
        for dof in (1, 2, 5, 15):
            for stat in (0.5, 3.0, 10.0, 30.0):
                def pdf(t, k=dof):
                    return (t ** (k / 2.0 - 1.0) * math.exp(-t / 2.0)
                            / (2.0 ** (k / 2.0) * math.gamma(k / 2.0)))
                oracle, err = scipy.integrate.quad(pdf, stat, math.inf)
                assert abs(chi_squared_upper_tail(stat, dof) - oracle) < 1e-9 + err

    def test_proportional_table(self):
        res = chi_squared_test(table((10, 20), (20, 40)))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_permutation_invariance(self):
        base = chi_squared_test(table((3, 9, 5), (7, 2, 8)))
        swapped_rows = chi_squared_test(table((7, 2, 8), (3, 9, 5)))
        swapped_cols = chi_squared_test(table((5, 9, 3), (8, 2, 7)))
        assert base.statistic == pytest.approx(swapped_rows.statistic)
        assert base.statistic == pytest.approx(swapped_cols.statistic)

    @pytest.mark.parametrize("k", [2, 3])
    def test_pearson_scaling_identity(self, k):
        t1 = table((10, 20), (20, 10))
        tk = table((10 * k, 20 * k), (20 * k, 10 * k))
        assert (chi_squared_test(tk).statistic
                == pytest.approx(k * chi_squared_test(t1).statistic))

    def test_zero_marginal(self):
        with pytest.raises(DegenerateTable):
            chi_squared_test(table((0, 0), (3, 4)))

    def test_matches_scipy(self):
        for rows in [((10, 20), (20, 10)), ((26, 3, 1), (12, 9, 9)),
                     ((5, 7, 3), (2, 9, 4), (8, 1, 6))]:
            got = chi_squared_test(table(*rows))
            ref = scipy.stats.chi2_contingency(rows, correction=False)
            assert got.statistic == pytest.approx(ref.statistic, rel=1e-12)
            assert got.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def fisher_enum_oracle(a, b, c, d):
    """Two-sided p by brute-force hypergeometric enumeration (exact rationals
    via floats of lgamma are avoided: use math.comb)."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    denom = math.comb(n, c1)
    lo, hi = max(0, c1 - r2), min(r1, c1)
    p_obs = math.comb(r1, a) * math.comb(r2, c1 - a) / denom
    total = 0.0
    for k in range(lo, hi + 1):
        pk = math.comb(r1, k) * math.comb(r2, c1 - k) / denom
        if pk <= p_obs * (1.0 + 1e-12):
            total += pk
    return p_obs, min(1.0, total)


def fisher_full_range(a, b, c, d):
    """Two-sided p summed over every k in [lo, hi], underflowed terms too."""
    r1, r2, c1 = a + b, c + d, a + c
    p_obs = math.exp(_log_hypergeom(a, r1, r2, c1))
    p = 0.0
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        pk = math.exp(_log_hypergeom(k, r1, r2, c1))
        if pk <= p_obs * (1.0 + _FISHER_SLACK):
            p += pk
    return min(1.0, p)


class TestFisher:
    def test_known_examples(self):
        assert fisher_exact_2x2(table((3, 1), (1, 3))).p_value == pytest.approx(
            0.485714, abs=1e-6)
        assert fisher_exact_2x2(table((5, 0), (0, 5))).p_value == pytest.approx(
            2.0 / 252.0, abs=1e-6)

    def test_row_swap_symmetry(self):
        a = fisher_exact_2x2(table((7, 2), (2, 7)))
        b = fisher_exact_2x2(table((2, 7), (7, 2)))
        assert a.p_value == pytest.approx(b.p_value)

    def test_matches_scipy(self):
        for rows in [((3, 1), (1, 3)), ((12, 18), (9, 21)), ((1, 9), (11, 3)),
                     ((26, 4), (12, 18))]:
            got = fisher_exact_2x2(table(*rows))
            _, ref = scipy.stats.fisher_exact(rows, alternative="two-sided")
            assert got.p_value == pytest.approx(ref, abs=1e-9)

    def test_enumeration_sample(self):
        for a, b, c, d in itertools.product(range(0, 7, 2), repeat=4):
            if 0 in (a + b, c + d, a + c, b + d):
                continue
            got = fisher_exact_2x2(table((a, b), (c, d)))
            p_obs, p = fisher_enum_oracle(a, b, c, d)
            assert got.statistic == pytest.approx(p_obs, abs=1e-12)
            assert got.p_value == pytest.approx(p, abs=1e-10)

    def test_bitwise_equal_to_the_full_range_sum(self):
        rng, underflowing = random.Random(11), 0
        for _ in range(150):
            a, b, c, d = (rng.randint(1, rng.choice((30, 3000))) for _ in range(4))
            r1, r2, c1 = a + b, c + d, a + c
            got = fisher_exact_2x2(table((a, b), (c, d))).p_value
            assert got.hex() == fisher_full_range(a, b, c, d).hex(), (a, b, c, d)
            underflowing += _log_hypergeom(max(0, c1 - r2), r1, r2, c1) < -746.0
        assert underflowing >= 30  # tables where the interval skips terms

    def test_large_counts_finish_quickly(self):
        start = time.perf_counter()
        result = fisher_exact_2x2(table((10**7, 1), (1, 10**7)))
        assert time.perf_counter() - start < 2.0
        assert result.p_value == 0.0

    def test_underflowing_observed_table_bitwise_equal_to_the_full_range_sum(self):
        # the observed term underflows, so the early return must give the
        # statistic and p the full-range loop gives
        rng = random.Random(16)
        for _ in range(20):
            a, d = rng.randint(800, 2500), rng.randint(800, 2500)
            b, c = rng.randint(0, 12), rng.randint(0, 12)
            r1, r2, c1 = a + b, c + d, a + c
            assert _log_hypergeom(a, r1, r2, c1) < -746.0, (a, b, c, d)
            got = fisher_exact_2x2(table((a, b), (c, d)))
            assert got.statistic.hex() == math.exp(_log_hypergeom(a, r1, r2, c1)).hex()
            assert got.p_value.hex() == fisher_full_range(a, b, c, d).hex(), (a, b, c, d)

    def test_underflowing_huge_table_returns_at_once(self):
        start = time.perf_counter()
        result = fisher_exact_2x2(table((10**11, 1), (1, 10**11)))
        assert time.perf_counter() - start < 1.0
        assert (result.statistic, result.p_value) == (0.0, 0.0)

    def test_shape_and_marginals(self):
        with pytest.raises(DegenerateTable):
            fisher_exact_2x2(table((1, 2, 3), (4, 5, 6)))
        with pytest.raises(DegenerateTable):
            fisher_exact_2x2(table((0, 0), (1, 2)))


def fisher_exact_terms(a, b, c, d):
    """The exact hypergeometric numerators over the common denominator
    C(N, c1): (numerator of the observed table, {k: numerator}, C(N, c1))."""
    r1, r2, c1 = a + b, c + d, a + c
    terms = {k: math.comb(r1, k) * math.comb(r2, c1 - k)
             for k in range(max(0, c1 - r2), min(r1, c1) + 1)}
    return terms[a], terms, math.comb(r1 + r2, c1)


def ulps(x, exact):
    """|x - exact| in units of the last place of the double nearest `exact`."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


class TestFisherExactOracle:
    """`fisher_exact_2x2` against the exact two-sided p from `math.comb` and
    `Fraction`: the sum of every term at most the observed one."""

    # each log term is a sum of lgamma values near N ln N, each off by up to
    # an ulp of its size, so a term's relative error grows with N: the
    # tables below, N up to 1200, measured at most 13299 ulps
    MAX_ULPS = 2 ** 15

    def check(self, a, b, c, d):
        obs, terms, den = fisher_exact_terms(a, b, c, d)
        # the float rule keeps a term up to the slack above the observed
        # one: no term of these tables lies there, so both rules keep the same
        assert not [t for t in terms.values()
                    if obs < t <= obs * (1 + 2 * Fraction(_FISHER_SLACK))], (a, b, c, d)
        p = min(Fraction(1), Fraction(sum(t for t in terms.values() if t <= obs), den))
        got = fisher_exact_2x2(table((a, b), (c, d)))
        assert ulps(got.statistic, Fraction(obs, den)) <= self.MAX_ULPS, (a, b, c, d)
        assert ulps(got.p_value, p) <= self.MAX_ULPS, (a, b, c, d, float(p), got.p_value)

    def test_random_tables(self):
        rng = random.Random(17)
        for _ in range(300):
            a, b, c, d = (rng.randint(0, rng.choice((10, 60, 300))) for _ in range(4))
            if 0 not in (a + b, c + d, a + c, b + d):
                self.check(a, b, c, d)

    @pytest.mark.parametrize("a,b,c,d", [
        (279, 237, 255, 261), (161, 267, 177, 251), (258, 244, 264, 238),
        (224, 264, 234, 254), (180, 297, 267, 210), (103, 296, 258, 141)])
    def test_mirror_tied_tables(self, a, b, c, d):
        # equal row sums: the mirror table has exactly the observed
        # probability, and its float term exceeds the observed one by more
        # than 1e-12, so a 1e-12 slack left it out of p
        assert a + b == c + d
        self.check(a, b, c, d)

    def test_seeded_tied_tables(self):
        # equal row sums: each table but a centre of symmetry has an exact
        # twin term, its mirror
        rng, tied = random.Random(23), 0
        for _ in range(150):
            r = rng.randint(1, 300)
            c1 = rng.randint(1, 2 * r - 1)
            a = rng.randint(max(0, c1 - r), min(r, c1))
            obs, terms, _ = fisher_exact_terms(a, r - a, c1 - a, r - c1 + a)
            tied += list(terms.values()).count(obs) > 1
            self.check(a, r - a, c1 - a, r - c1 + a)
        assert tied >= 100


class TestNormCdf:
    def test_against_scipy(self):
        for z in (-5.0, -1.96, 0.0, 1.0, 3.3):
            assert norm_cdf(z) == pytest.approx(scipy.stats.norm.cdf(z), abs=1e-14)


class TestTost:
    def test_identical_proportions_equivalent(self):
        res = tost_equivalence(500, 1000, 500, 1000, margin=0.05)
        assert res.equivalent
        assert res.p_lower == pytest.approx(res.p_upper, abs=1e-12)
        # z oracle: margin / pooled SE
        se = math.sqrt(0.5 * 0.5 * (2.0 / 1000.0))
        assert res.z_lower == pytest.approx(0.05 / se)
        assert res.p_lower == pytest.approx(1.0 - norm_cdf(0.05 / se))

    def test_large_difference_not_equivalent(self):
        res = tost_equivalence(60, 100, 40, 100, margin=0.05)
        assert not res.equivalent
        assert max(res.p_lower, res.p_upper) >= 0.5

    def test_underpowered_not_equivalent(self):
        assert not tost_equivalence(3, 10, 3, 10, margin=0.05).equivalent

    def test_monotone_in_margin(self):
        margins = [0.02, 0.05, 0.1, 0.2]
        flags = [tost_equivalence(495, 1000, 505, 1000, m).equivalent
                 for m in margins]
        assert flags == sorted(flags)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            tost_equivalence(5, 0, 1, 10, 0.05)
        with pytest.raises(InvalidCounts):
            tost_equivalence(11, 10, 1, 10, 0.05)
        with pytest.raises(ValueError):
            tost_equivalence(5, 10, 5, 10, 0.0)

    @pytest.mark.parametrize("x1,n1,x2,n2,margin", [(500, 1000, 500, 1000, 0.2),
                                                    (990, 1000, 985, 1000, 0.05)])
    def test_far_tails_match_scipy(self, x1, n1, x2, n2, margin):
        # z beyond about 8.3, where 1 - cdf(z) cancels to 0
        res = tost_equivalence(x1, n1, x2, n2, margin)
        assert res.z_lower > 8.3
        assert math.isclose(res.p_lower, scipy.stats.norm.sf(res.z_lower), rel_tol=1e-12)
        assert math.isclose(res.p_upper, scipy.stats.norm.cdf(res.z_upper), rel_tol=1e-12)

    def test_degenerate_pooled_se(self):
        res = tost_equivalence(10, 10, 10, 10, margin=0.05)
        assert res.equivalent
        assert res.p_lower == 0.0 and res.p_upper == 0.0
