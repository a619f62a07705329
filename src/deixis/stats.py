"""Categorical statistics: Pearson chi-squared, Fisher exact, TOST.

The chi-squared tail is computed from the regularized incomplete gamma
function (series for small arguments, Lentz continued fraction otherwise),
accurate to well under 1e-10 absolute error.  Hypergeometric terms go
through log-gamma to avoid overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateTable, InvalidCounts

_FISHER_SLACK = 1e-12
_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 500


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
    margin: float


def _gamma_p_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma via power series (x < s + 1)."""
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_GAMMA_ITMAX):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))

def _gamma_q_contfrac(s: float, x: float) -> float:
    """Regularized upper incomplete gamma via Lentz's continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x)."""
    if s <= 0.0 or x < 0.0:
        raise ValueError("require s > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return max(0.0, min(1.0, 1.0 - _gamma_p_series(s, x)))
    return max(0.0, min(1.0, _gamma_q_contfrac(s, x)))


def chi_squared_upper_tail(stat: float, dof: int) -> float:
    """P(X >= stat) for X ~ chi-squared with `dof` degrees of freedom."""
    if stat < 0.0 or dof < 1:
        raise ValueError("require stat >= 0 and dof >= 1")
    return gamma_q(dof / 2.0, stat / 2.0)


def chi_squared_test(table: ContingencyTable) -> TestResult:
    """Pearson chi-squared test of independence, no continuity correction."""
    rs, cs, n = table.row_sums, table.col_sums, table.total
    if any(s == 0 for s in rs) or any(s == 0 for s in cs):
        raise DegenerateTable("table has a zero marginal")
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
    table's (within 1e-12 relative slack); the statistic is the observed
    table's probability.
    """
    if len(table.counts) != 2 or len(table.counts[0]) != 2:
        raise DegenerateTable("Fisher exact test requires a 2x2 table")
    (a, b), (c, d) = table.counts
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    if 0 in (r1, r2, c1, c2):
        raise DegenerateTable("table has a zero marginal")
    lo, hi = max(0, c1 - r2), min(r1, c1)
    log_obs = _log_hypergeom(a, r1, r2, c1)
    p_obs = math.exp(log_obs)
    p = 0.0
    for k in range(lo, hi + 1):
        pk = math.exp(_log_hypergeom(k, r1, r2, c1))
        if pk <= p_obs * (1.0 + _FISHER_SLACK):
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
        raise InvalidCounts("require 0 <= x_i <= n_i and n_i > 0")
    if margin <= 0.0:
        raise ValueError("margin must be positive")
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
    p_lower = 1.0 - norm_cdf(z_lower)  # H0: p1 - p2 <= -margin
    p_upper = norm_cdf(z_upper)        # H0: p1 - p2 >= +margin
    return EquivalenceResult(z_lower=z_lower, z_upper=z_upper,
                             p_lower=p_lower, p_upper=p_upper,
                             equivalent=max(p_lower, p_upper) < alpha,
                             margin=margin)
