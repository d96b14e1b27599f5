"""Versioned JSON configuration for the simulation engine.

Schema version 1. Unknown keys anywhere in the document are rejected so
typos fail loudly before any simulation starts. ``paper_config`` returns
the replication preset: b=1000, r=0.03, loading 0.1, mitigation 0.9
(applied at every level), kappa=1000, R=100000, p=0.00002 with level
multipliers 1/2/10/20, and the rare-compromise device calibration
(theta = p per device-year, cluster size 1 + Poisson(182) loss-days:
a compromise at a uniform time in the year costs on average half the
365-day horizon).
"""

from __future__ import annotations

import json

from .distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    SeverityDistribution,
)
from .engine import SimulationSpec
from .errors import ConfigError, DomainError, read_input
from .loss_model import AggregateLossParams, DeviceParameters
from .scenario import MINUTES_PER_YEAR, RiskLevel, ScenarioConfig

__all__ = ["CONFIG_VERSION", "paper_config", "load_config", "parse_config", "scenario_to_mapping",
           "spec_to_mapping"]

CONFIG_VERSION = 1

_LEVEL_NAMES = [level.name.lower() for level in RiskLevel]


def paper_config() -> dict:
    """The replication preset as a plain mapping (see module docstring)."""
    return {
        "version": CONFIG_VERSION,
        "seed": 42,
        "repetitions": 100_000,
        "portfolio_size": 1000,
        "confidence_levels": [0.90, 0.95, 0.99],
        "levels": ["guarded", "elevated", "high", "severe"],
        "device": {
            "daily_loss": 1000.0,
            "discount_rate": 0.03,
            "horizon_days": 365,
            "kill_rate": 0.0,
            "theta": 0.00002,
            "lambda_cluster": 182.0,
        },
        "schedule": {"loading": 0.1, "mitigation": 0.9},
        "scenario": {
            "base_proportion": 0.00002,
            "population": 10000,
            "attacks_per_year_base": 0.00002 * MINUTES_PER_YEAR,
            "intensity_multipliers": {
                "baseline": 1.0, "guarded": 1.0, "elevated": 2.0,
                "high": 10.0, "severe": 20.0,
            },
        },
        "aggregate_channel": None,
    }


# Optional device fields. Unlike the rest of the document they do not fall
# back to the replication preset: a device without lambda_cluster has
# single-event clusters.
_DEVICE_DEFAULTS = {"lambda_cluster": 0.0, "horizon_days": 365, "kill_rate": 0.0,
                    "loss_day_multiplier": 1.0}


def _require_keys(mapping: dict, allowed: set, required: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")


def _section(mapping: dict, key: str, allowed: set, required: set, defaults: dict) -> dict:
    """``mapping[key]`` checked to be an object holding only ``allowed`` keys
    and every ``required`` one, with absent keys filled from ``defaults``."""
    section = mapping.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    _require_keys(section, allowed, required, key)
    return {**defaults, **section}


def _float(value, what: str) -> float:
    """A checked JSON number as a float; an integer beyond float range is a
    ConfigError rather than an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is too large for a float") from None


def _number(mapping: dict, key: str, where: str) -> float:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return _float(value, f"{where}.{key}")


def _integer(mapping: dict, key: str, where: str) -> int:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _numbers(mapping: dict, key: str, where: str) -> tuple:
    value = mapping[key]
    if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, (int, float))
                                          for x in value):
        raise ConfigError(f"{where}.{key} must be a list of numbers, got {value!r}")
    return tuple(_float(x, f"{where}.{key}[{i}]") for i, x in enumerate(value))


def _levels(mapping: dict, key: str, where: str) -> tuple:
    value = mapping[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{where}.{key} must be a list of level names, got {value!r}")
    return tuple(RiskLevel.from_name(name) for name in value)


def _severity_from_mapping(mapping: dict, where: str) -> SeverityDistribution:
    if not isinstance(mapping, dict) or "kind" not in mapping:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = mapping["kind"]
    try:
        if kind == "lognormal":
            _require_keys(mapping, {"kind", "mu", "sigma"}, {"mu", "sigma"}, where)
            return Lognormal(mu=_number(mapping, "mu", where), sigma=_number(mapping, "sigma", where))
        if kind == "pareto":
            _require_keys(mapping, {"kind", "x_min", "alpha"}, {"x_min", "alpha"}, where)
            return Pareto(x_min=_number(mapping, "x_min", where), alpha=_number(mapping, "alpha", where))
        if kind == "fixed":
            _require_keys(mapping, {"kind", "value"}, {"value"}, where)
            return Fixed(value=_number(mapping, "value", where))
        if kind == "discrete":
            _require_keys(mapping, {"kind", "values", "probabilities"}, {"values", "probabilities"}, where)
            return DiscreteTable(values=_numbers(mapping, "values", where),
                                 probabilities=_numbers(mapping, "probabilities", where))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind must be one of lognormal/pareto/fixed/discrete, got {kind!r}")


def _severity_to_mapping(dist: SeverityDistribution) -> dict:
    if isinstance(dist, Lognormal):
        return {"kind": "lognormal", "mu": dist.mu, "sigma": dist.sigma}
    if isinstance(dist, Pareto):
        return {"kind": "pareto", "x_min": dist.x_min, "alpha": dist.alpha}
    if isinstance(dist, Fixed):
        return {"kind": "fixed", "value": dist.value}
    return {"kind": "discrete", "values": list(dist.values),
            "probabilities": list(dist.probabilities)}


def _level_map(mapping: dict, where: str) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object, got {mapping!r}")
    out = {}
    for name, value in mapping.items():
        if name not in _LEVEL_NAMES:
            raise ConfigError(f"unknown risk level in {where}: {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{name} must be a number, got {value!r}")
        out[RiskLevel.from_name(name)] = _float(value, f"{where}.{name}")
    return out


def parse_config(mapping: dict) -> SimulationSpec:
    """Validate a configuration mapping and build the simulation spec.

    Omitted fields take their ``paper_config()`` values, except the
    optional device fields, which take ``_DEVICE_DEFAULTS``."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(
        mapping,
        {"version", "seed", "repetitions", "portfolio_size", "confidence_levels",
         "levels", "device", "schedule", "scenario", "aggregate_channel"},
        {"version", "device"},
        "config",
    )
    if _integer(mapping, "version", "config") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {mapping['version']!r}; this build reads version {CONFIG_VERSION}")

    defaults = paper_config()
    top = {**defaults, **mapping}
    device_map = _section(mapping, "device",
                          {"daily_loss", "discount_rate", "horizon_days", "kill_rate",
                           "theta", "lambda_cluster", "loss_day_multiplier"},
                          {"daily_loss", "discount_rate", "theta"}, _DEVICE_DEFAULTS)
    schedule_map = _section(mapping, "schedule", {"loading", "mitigation"}, set(),
                            defaults["schedule"])
    scenario_map = _section(mapping, "scenario",
                            {"base_proportion", "population", "attacks_per_year_base",
                             "intensity_multipliers", "mitigation_alphas"},
                            set(), defaults["scenario"])

    try:
        device = DeviceParameters(
            daily_loss=_number(device_map, "daily_loss", "device"),
            discount_rate=_number(device_map, "discount_rate", "device"),
            counts=CountDistributionParams(
                theta=_number(device_map, "theta", "device"),
                lambda_cluster=_number(device_map, "lambda_cluster", "device")),
            horizon_days=_integer(device_map, "horizon_days", "device"),
            kill_rate=_number(device_map, "kill_rate", "device"),
            loss_day_multiplier=_number(device_map, "loss_day_multiplier", "device"),
        )

        mitigation = _number(schedule_map, "mitigation", "schedule")
        # absent alpha table = the replication reading: schedule mitigation everywhere
        alphas = {level: mitigation for level in RiskLevel}
        if "mitigation_alphas" in scenario_map:
            alphas.update(_level_map(scenario_map["mitigation_alphas"], "scenario.mitigation_alphas"))
        scenario = ScenarioConfig(
            base_proportion=_number(scenario_map, "base_proportion", "scenario"),
            population=_integer(scenario_map, "population", "scenario"),
            attacks_per_year_base=_number(scenario_map, "attacks_per_year_base", "scenario"),
            intensity_multipliers=_level_map(scenario_map["intensity_multipliers"],
                                             "scenario.intensity_multipliers"),
            mitigation_alphas=alphas,
        )

        channel = None
        if top["aggregate_channel"] is not None:
            channel_map = _section(mapping, "aggregate_channel", {"event_rate", "severity"},
                                   {"event_rate", "severity"}, {})
            channel = AggregateLossParams(
                event_rate=_number(channel_map, "event_rate", "aggregate_channel"),
                severity=_severity_from_mapping(channel_map["severity"], "aggregate_channel.severity"),
            )

        return SimulationSpec(
            device=device,
            loading=_number(schedule_map, "loading", "schedule"),
            mitigation=mitigation,
            portfolio_size=_integer(top, "portfolio_size", "config"),
            repetitions=_integer(top, "repetitions", "config"),
            seed=_integer(top, "seed", "config"),
            levels=_levels(top, "levels", "config"),
            scenario=scenario,
            aggregate_channel=channel,
            confidence_levels=_numbers(top, "confidence_levels", "config"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> SimulationSpec:
    raw = read_input(path, "config")
    try:
        mapping = json.loads(raw.decode("utf-8"))
    # bad UTF-8, bad JSON, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(mapping)


def scenario_to_mapping(scenario: ScenarioConfig) -> dict:
    """The ``scenario`` section of a configuration, as parse_config reads it."""
    return {
        "base_proportion": scenario.base_proportion,
        "population": scenario.population,
        "attacks_per_year_base": scenario.attacks_per_year_base,
        "intensity_multipliers": {
            level.name.lower(): scenario.intensity_multipliers[level] for level in RiskLevel
        },
        "mitigation_alphas": {
            level.name.lower(): scenario.mitigation_alphas[level] for level in RiskLevel
        },
    }


def spec_to_mapping(spec: SimulationSpec) -> dict:
    """Inverse of parse_config, used for provenance echo and round trips."""
    return {
        "version": CONFIG_VERSION,
        "seed": spec.seed,
        "repetitions": spec.repetitions,
        "portfolio_size": spec.portfolio_size,
        "confidence_levels": list(spec.confidence_levels),
        "levels": [level.name.lower() for level in spec.levels],
        "device": {
            "daily_loss": spec.device.daily_loss,
            "discount_rate": spec.device.discount_rate,
            "horizon_days": spec.device.horizon_days,
            "kill_rate": spec.device.kill_rate,
            "theta": spec.device.counts.theta,
            "lambda_cluster": spec.device.counts.lambda_cluster,
            "loss_day_multiplier": spec.device.loss_day_multiplier,
        },
        "schedule": {"loading": spec.loading, "mitigation": spec.mitigation},
        "scenario": scenario_to_mapping(spec.scenario),
        "aggregate_channel": None if spec.aggregate_channel is None else {
            "event_rate": spec.aggregate_channel.event_rate,
            "severity": _severity_to_mapping(spec.aggregate_channel.severity),
        },
    }
