"""Per-device and portfolio loss arithmetic.

A device accrues one loss-day per attack event (count model in
``distributions``), monetized at ``b`` currency units per day, discounted
one period, and zeroed entirely if the device does not survive the year:

    P = v * 1(survived) * b * min(m * M, horizon_days),  v = 1 / (1 + r),

where the per-attack loss-day multiplier m defaults to 1 (one event = one
day) and is the hook for costlier event classes. Loss-days are capped at
the horizon - a device cannot lose more days than the year contains;
callers can count how often the cap bound.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .distributions import CountDistributionParams, SeverityDistribution, compound_count_pmf_table
from .errors import DomainError

__all__ = [
    "DeviceParameters",
    "AggregateLossParams",
    "discount_factor",
    "expected_capped_loss_days",
    "expected_present_loss",
]


# Largest horizon that converts to float exactly, as the loss cap needs.
_MAX_HORIZON_DAYS = 1 << 53


@dataclass(frozen=True)
class DeviceParameters:
    """All constants of one device class."""

    daily_loss: float                 # b, currency units per loss-day
    discount_rate: float              # r, annual
    counts: CountDistributionParams   # attack-count model (theta, lambda)
    horizon_days: int = 365
    kill_rate: float = 0.0            # annual hazard of permanent stop; 0 = never
    loss_day_multiplier: float = 1.0  # loss-days per attack event

    def __post_init__(self):
        if not (self.daily_loss >= 0 and math.isfinite(self.daily_loss)):
            raise DomainError(f"daily_loss must be nonnegative, got {self.daily_loss}")
        if not (self.discount_rate > -1 and math.isfinite(self.discount_rate)):
            raise DomainError(f"discount_rate must exceed -1, got {self.discount_rate}")
        if not 1 <= self.horizon_days <= _MAX_HORIZON_DAYS:
            raise DomainError(f"horizon_days must lie in [1, 2**53], got {self.horizon_days}")
        if not (self.kill_rate >= 0 and math.isfinite(self.kill_rate)):
            raise DomainError(f"kill_rate must be nonnegative, got {self.kill_rate}")
        if not (self.loss_day_multiplier >= 0 and math.isfinite(self.loss_day_multiplier)):
            raise DomainError(
                f"loss_day_multiplier must be nonnegative, got {self.loss_day_multiplier}")
        # -0.0 passes the checks above; it is read as +0.0, so that no loss
        # or report figure carries the sign
        for name in ("daily_loss", "kill_rate", "loss_day_multiplier"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)


@dataclass(frozen=True)
class AggregateLossParams:
    """Common (portfolio-level) loss channel: a Poisson(event_rate) number
    of severity draws per horizon."""

    event_rate: float
    severity: SeverityDistribution

    def __post_init__(self):
        if not (self.event_rate >= 0 and math.isfinite(self.event_rate)):
            raise DomainError(f"event_rate must be nonnegative, got {self.event_rate}")
        object.__setattr__(self, "event_rate", self.event_rate + 0.0)  # -0.0 reads as +0.0


def discount_factor(discount_rate: float) -> float:
    """v = (1 + r)^-1."""
    if not (discount_rate > -1 and math.isfinite(discount_rate)):
        raise DomainError(f"discount rate must exceed -1, got {discount_rate}")
    return 1.0 / (1.0 + discount_rate)


def expected_capped_loss_days(counts: CountDistributionParams, horizon_days: int,
                              multiplier: float = 1.0) -> float:
    """E[min(multiplier * M, horizon)] evaluated from the exact count pmf.

    The pmf table is truncated at mean + 12 sigma past the horizon; the
    residual mass (< ~1e-12) is assigned the horizon value, which is the
    cap it would monetize at anyway. A table too large to allocate raises
    DomainError.
    """
    if horizon_days < 1:
        raise DomainError("horizon_days must be >= 1")
    if multiplier == 0.0:
        return 0.0
    mean, var = counts.mean, counts.variance
    if multiplier * (mean - 12.0 * math.sqrt(var)) > horizon_days:
        # cap binds with probability 1 - O(1e-30)
        return float(horizon_days)
    try:
        reach = int(horizon_days / multiplier)
    except OverflowError:  # the quotient is inf
        raise DomainError("a count pmf table of over 2**1024 rows needs over 2**1030 bytes, "
                          "more memory than can be allocated") from None
    n_max = int(mean + 12.0 * math.sqrt(var)) + reach + 48
    pmf = compound_count_pmf_table(n_max, counts)
    n = np.arange(n_max + 1)
    with np.errstate(over="ignore"):  # a product past the float range is capped like any other
        capped = np.minimum(multiplier * n, float(horizon_days))
    residual = max(0.0, 1.0 - pmf.sum())
    return float((pmf * capped).sum() + residual * horizon_days)


def expected_present_loss(params: DeviceParameters) -> float:
    """Model-implied E[P] per device:
    v * b * E[min(m * M, horizon)] * P(survive)."""
    v = discount_factor(params.discount_rate)
    survive = math.exp(-params.kill_rate)
    days = expected_capped_loss_days(params.counts, params.horizon_days,
                                     params.loss_day_multiplier)
    return v * params.daily_loss * days * survive
