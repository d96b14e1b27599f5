"""Empirical tail-risk measures over a sorted sample of portfolio losses.

Quantile convention (fixed): VaR(rho) is the nearest-rank upper quantile,
the smallest order statistic whose empirical CDF k/n weakly exceeds rho.
No interpolation - every reported figure is an exact sample value, so the
oracle tests in the suite are equality tests. CTE(rho) averages all sample
points >= VaR(rho), ties included.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, UndefinedMarginError

__all__ = [
    "EmpiricalDistribution",
    "RiskMetrics",
    "value_at_risk",
    "conditional_tail_expectation",
    "shortfall_probability",
    "expected_shortfall",
    "risk_margin_ratio",
]


class EmpiricalDistribution:
    """An ascending sample of nonnegative losses."""

    __slots__ = ("sorted_losses", "count", "_mean")

    def __init__(self, losses):
        arr = np.asarray(losses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("losses must be a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise DomainError("losses must be finite")
        if (arr < 0).any():
            raise DomainError("losses must be nonnegative")
        sorted_arr = np.sort(arr)
        sorted_arr += 0.0  # -0.0 reads as +0.0, so no measure carries its sign
        self._adopt(sorted_arr)

    @classmethod
    def from_sorted(cls, sorted_arr: np.ndarray) -> "EmpiricalDistribution":
        """Adopt an already-sorted array without copying (engine fast path)."""
        self = cls.__new__(cls)
        self._adopt(sorted_arr)
        return self

    def _adopt(self, sorted_arr: np.ndarray):
        self.sorted_losses = sorted_arr
        self.count = int(sorted_arr.size)
        self._mean = None

    def mean(self) -> float:
        """The sample mean, reduced once and then reused."""
        if self._mean is None:
            self._mean = float(self.sorted_losses.mean())
        return self._mean


@dataclass(frozen=True)
class RiskMetrics:
    """All measures of one loss sample against one premium pool.

    ``var`` and ``cte`` map confidence level -> loss; ``margin_ratio`` maps
    (measure name, level) -> Solvency-2 percentile ratio, and is empty when
    the expected loss is zero (the ratio is undefined there).
    """

    expected_loss: float
    shortfall_probability: float
    expected_shortfall: float
    var: dict
    cte: dict
    margin_ratio: dict

    def __post_init__(self):
        levels = sorted(self.var)
        for lo, hi in zip(levels, levels[1:]):
            if self.var[lo] > self.var[hi] or self.cte[lo] > self.cte[hi]:
                raise DomainError("VaR and CTE must be nondecreasing in the confidence level")
        for rho in levels:
            if self.cte[rho] < self.var[rho]:
                raise DomainError(f"CTE({rho}) below VaR({rho})")


def _nearest_rank(count: int, level: float) -> int:
    """1-based index of the nearest-rank upper quantile: the smallest k
    with k/count >= level in float arithmetic, by bisection, as k/count is
    nondecreasing in k; k = count qualifies for any level below 1."""
    return bisect.bisect_left(range(1, count + 1), level, key=lambda k: k / count) + 1


def value_at_risk(dist: EmpiricalDistribution, level: float) -> float:
    """Nearest-rank empirical quantile at confidence ``level`` in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")
    return float(dist.sorted_losses[_nearest_rank(dist.count, level) - 1])


def conditional_tail_expectation(dist: EmpiricalDistribution, level: float) -> float:
    """Mean of all sample points >= VaR(level), ties at the threshold included.

    The true tail mean dominates its threshold; the clamp repairs the
    one-ulp dips pairwise summation can produce on constant tails. A tail
    of the whole sample is the same reduction as the sample mean, so it
    reuses that."""
    threshold = value_at_risk(dist, level)
    start = np.searchsorted(dist.sorted_losses, threshold, side="left")
    tail_mean = dist.mean() if start == 0 else float(dist.sorted_losses[start:].mean())
    return max(tail_mean, threshold)


def _first_at_or_above(dist: EmpiricalDistribution, premium_pool: float) -> int:
    """Index of the first sample point >= ``premium_pool``, which must be a
    finite nonnegative amount."""
    if not (premium_pool >= 0 and math.isfinite(premium_pool)):
        raise DomainError(f"premium_pool must be finite and nonnegative, got {premium_pool}")
    return int(np.searchsorted(dist.sorted_losses, premium_pool, side="left"))


def shortfall_probability(dist: EmpiricalDistribution, premium_pool: float) -> float:
    """Fraction of sample points L with premium_pool <= L."""
    return (dist.count - _first_at_or_above(dist, premium_pool)) / dist.count


def expected_shortfall(dist: EmpiricalDistribution, premium_pool: float) -> float:
    """Sample mean of max(L - premium_pool, 0).

    Note the orientation: mean excess of losses over the pool, which is the
    only direction consistent with the reference results this models.
    """
    tail = dist.sorted_losses[_first_at_or_above(dist, premium_pool):]
    return float((tail - premium_pool).sum() / dist.count)


def risk_margin_ratio(measure_value: float, expected_loss: float) -> float:
    """Solvency-2 percentile method: (measure - E) / E."""
    if expected_loss == 0.0:
        raise UndefinedMarginError("risk margin ratio is undefined for zero expected loss")
    return (measure_value - expected_loss) / expected_loss
