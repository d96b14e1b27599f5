"""Empirical tail-risk measures over a sorted sample of portfolio losses.

Quantile convention (fixed): VaR(rho) is the nearest-rank upper quantile,
the smallest order statistic whose empirical CDF k/n weakly exceeds rho.
No interpolation - every reported figure is an exact sample value, so the
oracle tests in the suite are equality tests. CTE(rho) averages all sample
points >= VaR(rho), ties included.

A sample is held as its size and its drawn losses, sorted: every other
point is a zero, and no measure reads the zeros. Each measure equals,
bit for bit, the same measure reduced over the full sorted array.

Summation
---------
Every sum is numpy's pairwise sum (Higham 2002, ch. 4), as
``np.add.reduce`` computes it over n contiguous float64 entries: below 8
entries it adds them in order; up to 128 it adds the full blocks of 8
into 8 strided accumulators r0..r7, combines them as
((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the 0-7 remaining entries
in order; above 128 it adds the sums of its first m = n//2 - (n//2) % 8
entries and of the rest. ``ndarray.sum(axis=1)`` of a C-contiguous
block adds each row so. Three functions here are the only code in the
package that depends on that tree's shape: ``_padded_sum`` rebuilds it
to sum zeros followed by a sample's drawn losses without the zeros,
``_row_sums`` sums many rows of nonnegative entries, zero outside a band
of columns, by one ``ndarray.sum`` over the band's lanes (the count pmf
table's rows), and ``_row_totals`` sums the rows of a ragged array (the
engine's per-repetition totals). Where every row holds under 8 entries,
or every entry is a nonnegative integer (sign bit clear) and the longest
row times the largest entry is below 2**53, ``_row_totals`` sums all rows
in one ``bincount``: rows under 8 entries add in order, and otherwise
every partial sum is exact. It follows the tree only for the rows of 8
or more entries of any other batch. The tests check
numpy against this description by name.
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


def _padded_sum(tail: np.ndarray, n: int) -> float:
    """``np.add.reduce`` of ``n - len(tail)`` zeros followed by ``tail``,
    bit for bit, without the zeros: a node of the tree with no zeros
    reduces its slice of ``tail``, a node of zeros alone adds 0.0, and only
    the node that straddles both is split further."""
    zeros = n - len(tail)
    if zeros == 0:
        return np.add.reduce(tail)
    if n <= 128:
        return np.add.reduce(np.concatenate((np.zeros(zeros), tail)))
    half = n // 2 - (n // 2) % 8
    if zeros >= half:
        return _padded_sum(tail, n - half)  # 0.0 + s is s for the nonnegative s here
    return _padded_sum(tail[:half - zeros], half) + np.add.reduce(tail[half - zeros:])


def _row_sums(block: np.ndarray, n: np.ndarray, first: int, scratch: np.ndarray) -> np.ndarray:
    """``row[:n[i]].sum()`` for every row i of ``block``, bit for bit,
    where row i holds ``block[i]`` from column ``first`` on and +0.0
    elsewhere, and every entry is >= +0.0. ``scratch`` is a row of +0.0
    at least ``first + block.shape[1]`` entries long; it is returned as
    it came.

    In the tree stated above every run starts at a multiple of 8, so an
    entry's lane is its column mod 8. Adding +0.0 to a sum of nonnegative
    entries leaves its bits, so a row whose block lies in one unhalved run
    sums to that run's sum. Each row's halvings are followed to that run;
    then the lanes of all rows are one ``ndarray.sum`` per row of the
    block's columns from the multiple of 8 below ``first``, at most 128 of
    them, with the entries outside the row's lanes zeroed, and the run's
    last len % 8 entries are added in order. A row whose block a halving
    splits, and every row of a block over 128 columns, is written into
    ``scratch`` and summed there."""
    rows, stop = len(block), first + block.shape[1]
    base = first & -8
    width = (stop - base + 7) & -8
    if width > 128:
        sums, rest = np.empty(rows), range(rows)
    else:
        # follow each row's halvings to the run where its block starts; an
        # unhalved run's "half" is the whole run
        start, length = np.zeros(rows, dtype=np.int64), n
        while (halved := length > 128).any():
            half = np.where(halved, (length >> 1) & -8, length)
            split = start + half
            right = base >= split
            start = np.where(right, split, start)
            length = np.where(right, length - half, half)
        rest = np.flatnonzero(np.minimum(stop, n) > start + length).tolist()
        slab = np.zeros((rows, width))
        slab[:, first - base:stop - base] = block
        lanes_end = start + (length & -8)
        # the lanes' sum, then the run's last len % 8 entries in order: they
        # lie in the 8 columns from lanes_end (so group >= 0), past the
        # block's when the lanes hold the whole block, and the row is +0.0
        # past the run
        groups = slab.reshape(rows, -1, 8)
        group = (lanes_end - base) >> 3
        last = np.empty((rows, 8))
        last[:, 0] = np.where(np.arange(base, base + width) < lanes_end[:, None], slab, 0.0).sum(axis=1)
        last[:, 1:] = groups[np.arange(rows), group % groups.shape[1], :7]
        last[group >= groups.shape[1], 1:] = 0.0
        sums = np.cumsum(last, axis=1)[:, -1]
    for i in rest:
        scratch[first:stop] = block[i]
        sums[i] = scratch[:n[i]].sum()
    scratch[first:stop] = 0.0
    return sums


def _row_totals(values: np.ndarray, owner: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-row sums of a ragged array whose entry i lies in row ``owner[i]``
    of ``n_rows``, ``owner`` ascending, each bit-identical to ``ndarray.sum``
    of its row. Rows under 8 entries add in order, as ``ndarray.sum`` and
    ``bincount`` both do, so a batch of only such rows is one ``bincount``
    whatever its values. When every entry is an integer with its sign bit
    clear and the longest row times the largest entry is below 2**53,
    every partial sum is an exact integer, so one ``bincount`` sums all
    rows in any order. Otherwise longer rows, which ``ndarray.sum`` adds
    pairwise, are summed by it row by row."""
    totals = np.bincount(owner, weights=values, minlength=n_rows)
    lengths = np.bincount(owner, minlength=n_rows)
    longest = lengths.max(initial=0)
    if longest < 8:
        return totals
    if ((np.trunc(values) == values).all() and not np.signbit(values).any()
            and longest * values.max(initial=0.0) < 2 ** 53):
        return totals
    ends = np.cumsum(lengths)
    for row in np.flatnonzero(lengths >= 8):
        totals[row] = values[ends[row] - lengths[row]:ends[row]].sum()
    return totals


class EmpiricalDistribution:
    """A sample of ``count`` nonnegative losses, held as ``tail``: its
    largest ``len(tail)`` points ascending, with no -0.0. Every point
    below the tail is a zero."""

    __slots__ = ("count", "tail", "_mean")

    def __init__(self, losses):
        arr = np.asarray(losses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("losses must be a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise DomainError("losses must be finite")
        if (arr < 0).any():
            raise DomainError("losses must be nonnegative")
        # -0.0 is a zero too, so no measure carries its sign
        self._adopt(arr.size, np.sort(arr[arr > 0.0]))

    @classmethod
    def from_sorted(cls, count: int, tail: np.ndarray) -> "EmpiricalDistribution":
        """Adopt ``count`` losses whose largest are ``tail``, already
        ascending, without copying it (engine fast path)."""
        self = cls.__new__(cls)
        self._adopt(count, tail)
        return self

    def _adopt(self, count: int, tail: np.ndarray):
        self.count = int(count)
        self.tail = tail
        self._mean = None

    @property
    def sorted_losses(self) -> np.ndarray:
        """The whole sample ascending, its zeros materialized."""
        return np.concatenate((np.zeros(self.count - len(self.tail)), self.tail))

    def mean(self) -> float:
        """The sample mean, reduced once and then reused."""
        if self._mean is None:
            self._mean = float(_padded_sum(self.tail, self.count) / self.count)
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
    at = _nearest_rank(dist.count, level) - 1 - (dist.count - len(dist.tail))
    return float(dist.tail[at]) if at >= 0 else 0.0


def _at_or_above(dist: EmpiricalDistribution, value: float) -> np.ndarray:
    """The sample points >= ``value`` > 0: a slice of the tail, as every
    point below it is a zero."""
    return dist.tail[np.searchsorted(dist.tail, value, side="left"):]


def conditional_tail_expectation(dist: EmpiricalDistribution, level: float) -> float:
    """Mean of all sample points >= VaR(level), ties at the threshold included.

    The true tail mean dominates its threshold; the clamp repairs the
    one-ulp dips pairwise summation can produce on constant tails. A
    threshold of 0 takes in the whole sample, whose mean is reused."""
    threshold = value_at_risk(dist, level)
    tail_mean = dist.mean() if threshold == 0.0 else float(_at_or_above(dist, threshold).mean())
    return max(tail_mean, threshold)


def _check_pool(premium_pool: float):
    if not (premium_pool >= 0 and math.isfinite(premium_pool)):
        raise DomainError(f"premium_pool must be finite and nonnegative, got {premium_pool}")


def shortfall_probability(dist: EmpiricalDistribution, premium_pool: float) -> float:
    """Fraction of sample points L with premium_pool <= L."""
    _check_pool(premium_pool)
    if premium_pool == 0.0:
        return 1.0
    return len(_at_or_above(dist, premium_pool)) / dist.count


def expected_shortfall(dist: EmpiricalDistribution, premium_pool: float) -> float:
    """Sample mean of max(L - premium_pool, 0).

    Note the orientation: mean excess of losses over the pool, which is the
    only direction consistent with the reference results this models. Over
    a zero pool every loss is its own excess, so this is the sample mean.
    """
    _check_pool(premium_pool)
    if premium_pool == 0.0:
        return dist.mean()
    return float((_at_or_above(dist, premium_pool) - premium_pool).sum() / dist.count)


def risk_margin_ratio(measure_value: float, expected_loss: float) -> float:
    """Solvency-2 percentile method: (measure - E) / E."""
    if expected_loss == 0.0:
        raise UndefinedMarginError("risk margin ratio is undefined for zero expected loss")
    return (measure_value - expected_loss) / expected_loss
