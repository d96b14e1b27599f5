"""Deterministic Monte Carlo engine for IoT cyber-risk loss quantification."""

from .distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    SeverityDistribution,
)
from .engine import RiskReport, SimulationSpec, run_simulation, summarize_level
from .loss_model import (
    AggregateLossParams,
    DeviceParameters,
    discount_factor,
)
from .risk_measures import (
    EmpiricalDistribution,
    RiskMetrics,
    conditional_tail_expectation,
    expected_shortfall,
    risk_margin_ratio,
    shortfall_probability,
    value_at_risk,
)
from .scenario import (
    RiskLevel,
    ScenarioConfig,
    attacks_per_year,
    baseline_proportion,
    level_parameters,
)
from .streams import RandomStream, derive_stream

__version__ = "0.1.0"
