"""Categorical statistics: Pearson chi-squared, Fisher exact, TOST.

A contingency table's dof is a positive integer, so the chi-squared tail
is a finite sum with no iteration cut-off.  Against scipy.stats.chi2.sf its
absolute error was at most 5e-15 up to dof 100, 2e-11 up to dof 50000 and
6e-11 at dof 200000.  Its cost grows with dof: a few microseconds for a
paper-sized table, milliseconds at dof 20000.  Hypergeometric terms go
through log-gamma to avoid overflow.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain

from .errors import DeixisError

_FISHER_SLACK = 1e-7
_EXP_UNDERFLOW = -746.0  # math.exp of any lower log is exactly 0.0


@dataclass(frozen=True)
class ContingencyTable:
    counts: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        r = len(self.counts)
        if r < 2 or any(len(row) != len(self.counts[0]) for row in self.counts):
            raise ValueError("counts must be a rectangular table with >= 2 rows")
        if len(self.counts[0]) < 2:
            raise ValueError("counts must have >= 2 columns")
        for row in self.counts:
            for c in row:
                if not isinstance(c, int) or c < 0:
                    raise ValueError("counts must be nonnegative integers")
        if self.row_labels and len(self.row_labels) != r:
            raise ValueError("row label count mismatch")
        if self.col_labels and len(self.col_labels) != len(self.counts[0]):
            raise ValueError("column label count mismatch")

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))

    @property
    def total(self) -> int:
        return sum(self.row_sums)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int | None
    p_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value out of [0, 1]")


@dataclass(frozen=True)
class EquivalenceResult:
    z_lower: float
    z_upper: float
    p_lower: float
    p_upper: float
    equivalent: bool


def chi_squared_upper_tail(stat: float, dof: int) -> float:
    """P(X >= stat) for X ~ chi-squared with `dof` degrees of freedom.

    With y = stat / 2 this is the finite sum Q(dof/2, y) = erfc(sqrt(y))
    (odd dof only) + sum of e^-y y^a / Gamma(a + 1) over a = dof/2 - 1,
    dof/2 - 2, ... >= 0.  The terms are added in log space relative to the
    largest and exponentiated once, so a subnormal p is rounded only once.
    """
    if stat < 0.0 or type(dof) is not int or dof < 1:
        raise ValueError("require stat >= 0 and an integer dof >= 1")
    y = stat / 2.0
    if y == 0.0:
        return 1.0
    log_y = math.log(y)
    logs = [a * log_y - y - math.lgamma(a + 1.0)
            for a in (dof / 2.0 - i for i in range(1, dof // 2 + 1))]
    tail = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    if tail > 0.0:
        logs.append(math.log(tail))
    if not logs:
        return 0.0  # dof 1 and erfc underflowed
    top = max(logs)
    return min(1.0, math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs))))


def chi_squared_test(table: ContingencyTable) -> TestResult:
    """Pearson chi-squared test of independence, no continuity correction."""
    rs, cs, n = table.row_sums, table.col_sums, table.total
    if any(s == 0 for s in rs) or any(s == 0 for s in cs):
        raise DeixisError("table has a zero marginal")
    if n > sys.float_info.max:  # an expected count rs * cs / n could underflow to 0.0
        raise OverflowError("the table total is beyond float range")
    stat = 0.0
    for i, row in enumerate(table.counts):
        for j, obs in enumerate(row):
            exp = rs[i] * cs[j] / n
            stat += (obs - exp) ** 2 / exp
    dof = (len(rs) - 1) * (len(cs) - 1)
    return TestResult(statistic=stat, dof=dof, p_value=chi_squared_upper_tail(stat, dof))


def _log_hypergeom(a: int, r1: int, r2: int, c1: int) -> float:
    """log P(table) for the 2x2 table with top-left cell a and fixed margins."""
    n = r1 + r2
    return (math.lgamma(r1 + 1) - math.lgamma(a + 1) - math.lgamma(r1 - a + 1)
            + math.lgamma(r2 + 1) - math.lgamma(c1 - a + 1)
            - math.lgamma(r2 - (c1 - a) + 1)
            + math.lgamma(c1 + 1) + math.lgamma(n - c1 + 1) - math.lgamma(n + 1))


def fisher_exact_2x2(table: ContingencyTable) -> TestResult:
    """Two-sided Fisher exact test for a 2x2 table.

    The two-sided p sums the hypergeometric probabilities of every table
    with the same margins whose probability does not exceed the observed
    table's, within scipy's 1e-7 relative slack: from a few hundred counts
    per cell on, the lgamma-based terms of two exactly tied tables can
    differ by more than 1e-12, and from 10^7 on by more than 1e-7, so the
    mirror under a swap of equal rows or columns is always kept.  The
    statistic is the observed table's probability.

    The log-pmf is concave, so the k whose term does not underflow to 0.0
    form one interval around the mode, and the terms too large to keep form
    a middle inside it; the ends of both are found by bisection.  Only the
    two tails are evaluated, each in ascending order, and the upper one
    stops at the first term below half an ulp of the partial sum: the terms
    after it are smaller and would leave the sum as it is.  Every bound
    allows for the float log terms' error, so p is bit-identical to the sum
    over every k.
    """
    if len(table.counts) != 2 or len(table.counts[0]) != 2:
        raise ValueError("Fisher exact test requires a 2x2 table")
    (a, b), (c, d) = table.counts
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    if 0 in (r1, r2, c1, c2):
        raise DeixisError("table has a zero marginal")
    lo, hi = max(0, c1 - r2), min(r1, c1)

    def edge(inside: int, outside: int, floor: float) -> int:
        """The last k from `inside` toward `outside` whose log term is at
        least `floor`, found by bisection; `inside`'s must be."""
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            above = _log_hypergeom(mid, r1, r2, c1) >= floor
            inside, outside = (mid, outside) if above else (inside, mid)
        return inside

    p_obs = math.exp(_log_hypergeom(a, r1, r2, c1))
    if p_obs == 0.0:  # only terms equal to 0.0 could be kept: p is 0.0
        return TestResult(statistic=0.0, dof=None, p_value=0.0)
    bound = p_obs * (1.0 + _FISHER_SLACK)
    mode = min(max((r1 + 1) * (c1 + 1) // (r1 + r2 + 2), lo), hi)
    mirrors = {c1 - a if r1 == r2 else a, r1 - a if c1 == c2 else a}
    # the log of a float term that is a normal float is within `noise` of
    # the exact log: against mpmath, the log terms were off by at most 4
    # ulps of lgamma(N + 1) up to 10^11 per cell, and exp adds one ulp of 1
    noise = 64.0 * math.ulp(math.lgamma(r1 + r2 + 1))
    low = edge(mode, lo - 1, _EXP_UNDERFLOW)
    high = edge(mode, hi + 1, _EXP_UNDERFLOW)
    # The middle's ends have logs of at least `cut`, so every exact term
    # between them is above the bound, and the smallest normal float, by
    # 2 * noise: each float term there is normal and exceeds the bound, and
    # no mirror, whose exact term is the observed one's, lies there
    cut = math.log(max(bound, sys.float_info.min)) + 3.0 * noise
    if _log_hypergeom(mode, r1, r2, c1) >= cut:
        first, last = edge(mode, low - 1, cut), edge(mode, high + 1, cut)
    else:
        first, last = mode, mode - 1
    # past the mode no exact term exceeds the one before it, so once a
    # normal float term is below this share of an ulp of p, every later
    # term is below half an ulp and would leave p as it is
    stop = 0.5 * math.exp(-2.0 * noise)
    p = 0.0
    for k in chain(range(low, first), range(last + 1, high + 1)):
        pk = math.exp(_log_hypergeom(k, r1, r2, c1))
        if k > last and sys.float_info.min <= pk < stop * math.ulp(p):
            break
        if pk <= bound or k in mirrors:
            p += pk
    return TestResult(statistic=p_obs, dof=None, p_value=min(1.0, p))


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def tost_equivalence(x1: int, n1: int, x2: int, n2: int, margin: float,
                     alpha: float = 0.05) -> EquivalenceResult:
    """Two one-sided pooled z-tests for equivalence of two proportions.

    Uses the pooled standard error with no continuity correction; the
    proportions are declared equivalent when both one-sided p-values fall
    below `alpha`.
    """
    if n1 <= 0 or n2 <= 0 or not (0 <= x1 <= n1) or not (0 <= x2 <= n2):
        raise ValueError("require 0 <= x_i <= n_i and n_i > 0")
    if not 0.0 < margin < math.inf:  # NaN fails too
        raise ValueError("margin must be positive and finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    p1, p2 = x1 / n1, x2 / n2
    pooled = (x1 + x2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    diff = p1 - p2
    if se == 0.0:
        z_lower = math.inf if diff + margin > 0 else -math.inf
        z_upper = -math.inf if diff - margin < 0 else math.inf
    else:
        z_lower = (diff + margin) / se
        z_upper = (diff - margin) / se
    p_lower = norm_cdf(-z_lower)  # H0: p1 - p2 <= -margin; 1 - cdf(z) cancels to 0
    p_upper = norm_cdf(z_upper)   # H0: p1 - p2 >= +margin
    return EquivalenceResult(z_lower=z_lower, z_upper=z_upper,
                             p_lower=p_lower, p_upper=p_upper,
                             equivalent=max(p_lower, p_upper) < alpha)
