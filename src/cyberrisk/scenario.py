"""Traffic-light risk-level calibration.

The baseline attacked proportion p follows the published worked chain:
exposed minutes = minutes_per_year * unrecorded_fraction; attack slots =
exposed / window; attacked fraction = slots / exposed; p = fraction /
population. With the defaults (525600, 0.5, 5 min, 10000) this gives
p = 0.2 / 10000 = 0.00002 exactly.

Levels scale the device attack intensity multiplicatively: Baseline and
Guarded x1, Elevated x2 (interpolated - not given by the source material,
configurable), High x10, Severe x20.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import enum
import sys

from .distributions import CountDistributionParams
from .errors import DomainError
from .loss_model import DeviceParameters

__all__ = [
    "RiskLevel",
    "ScenarioConfig",
    "baseline_proportion",
    "attacks_per_year",
    "level_parameters",
    "MINUTES_PER_YEAR",
]

MINUTES_PER_YEAR = 525600  # 365 * 24 * 60


class RiskLevel(enum.Enum):
    """The five scenario tiers. Codes are stable stream-layout constants:
    adding or removing report columns never perturbs another level's draws."""

    BASELINE = 0
    GUARDED = 1
    ELEVATED = 2
    HIGH = 3
    SEVERE = 4

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def code(self) -> int:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "RiskLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise DomainError(f"unknown risk level {name!r}") from None


_LABELS = {
    RiskLevel.BASELINE: "Baseline",
    RiskLevel.GUARDED: "Guarded (Green)",
    RiskLevel.ELEVATED: "Elevated (Yellow)",
    RiskLevel.HIGH: "High (Amber)",
    RiskLevel.SEVERE: "Severe (Red)",
}

_DEFAULT_MULTIPLIERS = {
    RiskLevel.BASELINE: 1.0,
    RiskLevel.GUARDED: 1.0,
    RiskLevel.ELEVATED: 2.0,
    RiskLevel.HIGH: 10.0,
    RiskLevel.SEVERE: 20.0,
}

# Default reading: only Guarded maturity earns the 0.9 mitigation factor.
_DEFAULT_ALPHAS = {
    level: (0.9 if level is RiskLevel.GUARDED else 1.0) for level in RiskLevel
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Per-level calibration: intensity multipliers and mitigation factors,
    plus the baseline-proportion inputs they were derived from."""

    base_proportion: float = 0.00002
    population: int = 10000
    attacks_per_year_base: float = 0.00002 * MINUTES_PER_YEAR
    intensity_multipliers: dict = field(default_factory=lambda: dict(_DEFAULT_MULTIPLIERS))
    mitigation_alphas: dict = field(default_factory=lambda: dict(_DEFAULT_ALPHAS))

    def __post_init__(self):
        if not (0.0 < self.base_proportion <= 1.0):
            raise DomainError(f"base_proportion must lie in (0, 1], got {self.base_proportion}")
        if self.population < 1:
            raise DomainError("population must be positive")
        if not (self.attacks_per_year_base > 0):
            raise DomainError("attacks_per_year_base must be positive")
        for level in RiskLevel:
            mult = self.intensity_multipliers.get(level)
            alpha = self.mitigation_alphas.get(level)
            if mult is None or not mult > 0:
                raise DomainError(f"intensity multiplier for {level.name} must be positive, got {mult}")
            if alpha is None or not (0.0 < alpha <= 1.0):
                raise DomainError(f"mitigation alpha for {level.name} must lie in (0, 1]")
        order = [RiskLevel.GUARDED, RiskLevel.ELEVATED, RiskLevel.HIGH, RiskLevel.SEVERE]
        mults = [self.intensity_multipliers[lv] for lv in order]
        if self.intensity_multipliers[RiskLevel.BASELINE] > mults[0]:
            raise DomainError("Baseline multiplier must not exceed Guarded's")
        if not all(a < b for a, b in zip(mults, mults[1:])):
            raise DomainError("multipliers must be strictly increasing Guarded < Elevated < High < Severe")


def baseline_proportion(minutes_per_year: int, unrecorded_fraction: float,
                        attack_window_minutes: float, population: int) -> float:
    """Baseline per-device attacked proportion from exposure arithmetic."""
    # an integer past the float range would overflow where it meets a float
    if not all(0 < x <= sys.float_info.max
               for x in (minutes_per_year, attack_window_minutes, population)):
        raise DomainError("minutes_per_year, attack_window_minutes and population must be "
                          f"positive and finite, at most {sys.float_info.max!r}")
    if not (0.0 < unrecorded_fraction <= 1.0):
        raise DomainError(f"unrecorded_fraction must lie in (0, 1], got {unrecorded_fraction}")
    exposed_minutes = minutes_per_year * unrecorded_fraction
    attacked_slots = exposed_minutes / attack_window_minutes
    attacked_fraction = attacked_slots / exposed_minutes
    return attacked_fraction / population


def attacks_per_year(proportion: float, minutes_per_year: int = MINUTES_PER_YEAR) -> float:
    """One Bernoulli(p) attack opportunity per minute, Poissonized:
    p = 0.00002 gives ~10.512 per year."""
    if not (0.0 <= proportion <= 1.0):
        raise DomainError(f"proportion must lie in [0, 1], got {proportion}")
    if minutes_per_year <= 0:
        raise DomainError("minutes_per_year must be positive")
    return proportion * minutes_per_year


def level_parameters(config: ScenarioConfig, level: RiskLevel,
                     base: DeviceParameters) -> DeviceParameters:
    """Device parameters at a risk level: attack intensity scaled by the
    level's multiplier, everything else unchanged."""
    mult = config.intensity_multipliers[level]
    counts = CountDistributionParams(theta=base.counts.theta * mult,
                                     lambda_cluster=base.counts.lambda_cluster)
    return replace(base, counts=counts)
