"""Versioned JSON configuration for the simulation engine.

Schema version 1. Unknown keys anywhere in the document are rejected so
typos fail loudly before any simulation starts. ``paper_config`` returns
the replication preset: b=1000, r=0.03, loading 0.1, mitigation 0.9
(applied at every level), kappa=1000, R=100000, p=0.00002 with level
multipliers 1/2/10/20, and the rare-compromise device calibration
(theta = p per device-year, cluster size 1 + Poisson(182) loss-days:
a compromise at a uniform time in the year costs on average half the
365-day horizon).

Each JSON object of the schema is stated once, as an ordered table from
key to reader; the same table checks and fills the object in
``parse_config`` and writes it back, in table order, in ``spec_to_mapping``.
"""

from __future__ import annotations

import json

from .distributions import CountDistributionParams, DiscreteTable, Fixed, Lognormal, Pareto
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


# Readers: (value, where) -> value, where is the key's path in the document.

def _number(value, where: str) -> float:
    """A checked JSON number as a float; an integer beyond float range is a
    ConfigError rather than an OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, (int, float))
                                          for x in value):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(value))


def _levels(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{where} must be a list of level names, got {value!r}")
    return tuple(RiskLevel.from_name(name) for name in value)


def _level_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    out = {}
    for name, number in value.items():
        if name not in _LEVEL_NAMES:
            raise ConfigError(f"unknown risk level in {where}: {name!r}")
        out[RiskLevel.from_name(name)] = _number(number, f"{where}.{name}")
    return out


def _version(value, where: str) -> int:
    if _integer(value, where) != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {value!r}; this build reads version {CONFIG_VERSION}")
    return value


class _Object:
    """Reader of one JSON object. ``fields`` maps each key, in echo order,
    to its reader; a key is required unless ``defaults`` holds it. The read
    values go to ``build`` as keywords, and ``view`` maps a built object
    back to its values for ``echo``. An object with a ``name`` has one
    place in the document and reports under that name; a ``nullable`` one
    reads and echoes null as None."""

    def __init__(self, fields: dict, defaults: dict | None = None, build=dict, view=vars,
                 name: str | None = None, nullable: bool = False):
        self.fields, self.defaults = fields, defaults or {}
        self.required = fields.keys() - self.defaults.keys()
        self.build, self.view, self.name, self.nullable = build, view, name, nullable

    def __call__(self, value, where: str):
        where = self.name or where
        if value is None and self.nullable:
            return None
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        for problem, keys in (("unknown", value.keys() - self.fields.keys()),
                              ("missing", self.required - value.keys())):
            if keys:
                raise ConfigError(f"{problem} key(s) in {where}: {', '.join(sorted(keys))}")
        value = {**self.defaults, **value}
        return self.build(**{key: read(value[key], f"{where}.{key}")
                             for key, read in self.fields.items()})

    def echo(self, obj) -> dict | None:
        if obj is None:
            return None
        values = self.view(obj)
        return {key: _echo(values[key], read) for key, read in self.fields.items()}


# severity kind -> reader of its other keys; build is the distribution class
_KINDS = {
    "lognormal": _Object({"mu": _number, "sigma": _number}, build=Lognormal),
    "pareto": _Object({"x_min": _number, "alpha": _number}, build=Pareto),
    "fixed": _Object({"value": _number}, build=Fixed),
    "discrete": _Object({"values": _numbers, "probabilities": _numbers}, build=DiscreteTable),
}


class _Severity:
    """Reader of a severity object, whose ``kind`` picks its reader in ``_KINDS``."""

    def __call__(self, value, where: str):
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{where} must be an object with a 'kind' key")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:  # a list is not a hashable key
            raise ConfigError(f"{where}.kind must be one of {'/'.join(_KINDS)}, got {kind!r}")
        try:
            return _KINDS[kind]({key: x for key, x in value.items() if key != "kind"}, where)
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def echo(self, dist) -> dict:
        kind = next(kind for kind, read in _KINDS.items() if isinstance(dist, read.build))
        return {"kind": kind, **_KINDS[kind].echo(dist)}


def _echo(value, read):
    """A read value in its JSON form again."""
    if isinstance(read, (_Object, _Severity)):
        return read.echo(value)
    if isinstance(value, (tuple, list)):
        return [x.name.lower() if isinstance(x, RiskLevel) else x for x in value]
    if isinstance(value, dict):  # a level map, echoed whole
        return {level.name.lower(): value[level] for level in RiskLevel}
    return value


def _device(theta, lambda_cluster, **fields) -> DeviceParameters:
    return DeviceParameters(counts=CountDistributionParams(theta=theta, lambda_cluster=lambda_cluster),
                            **fields)


def _spec(version, schedule, scenario, **fields) -> SimulationSpec:
    """The schedule's values are spec fields; its mitigation is the alpha of
    every level ``scenario.mitigation_alphas`` omits."""
    alphas = {level: schedule["mitigation"] for level in RiskLevel} | scenario["mitigation_alphas"]
    return SimulationSpec(**schedule, **fields,
                          scenario=ScenarioConfig(**{**scenario, "mitigation_alphas": alphas}))


_PRESET = paper_config()
_DEVICE = _Object({
    "daily_loss": _number,
    "discount_rate": _number,
    "horizon_days": _integer,
    "kill_rate": _number,
    "theta": _number,
    "lambda_cluster": _number,
    "loss_day_multiplier": _number,
}, _DEVICE_DEFAULTS, build=_device, view=lambda device: {**vars(device), **vars(device.counts)},
    name="device")
_SCENARIO = _Object({
    "base_proportion": _number,
    "population": _integer,
    "attacks_per_year_base": _number,
    "intensity_multipliers": _level_map,
    "mitigation_alphas": _level_map,
}, {**_PRESET["scenario"], "mitigation_alphas": {}}, name="scenario")
# version and device are required; every other omitted key takes the preset's value
_CONFIG = _Object({
    "version": _version,
    "seed": _integer,
    "repetitions": _integer,
    "portfolio_size": _integer,
    "confidence_levels": _numbers,
    "levels": _levels,
    "device": _DEVICE,
    "schedule": _Object({"loading": _number, "mitigation": _number}, _PRESET["schedule"],
                        name="schedule"),
    "scenario": _SCENARIO,
    "aggregate_channel": _Object({"event_rate": _number, "severity": _Severity()},
                                 build=AggregateLossParams, name="aggregate_channel", nullable=True),
}, {key: value for key, value in _PRESET.items() if key not in ("version", "device")}, build=_spec,
    view=lambda spec: {**vars(spec), "version": CONFIG_VERSION, "schedule": spec}, name="config")


def parse_config(mapping: dict) -> SimulationSpec:
    """Validate a configuration mapping and build the simulation spec.

    Omitted fields take their ``paper_config()`` values, except the
    optional device fields, which take ``_DEVICE_DEFAULTS``, and the
    levels ``scenario.mitigation_alphas`` omits, which take
    ``schedule.mitigation``."""
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a JSON object")
    try:
        return _CONFIG(mapping, "config")
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
    return _SCENARIO.echo(scenario)


def spec_to_mapping(spec: SimulationSpec) -> dict:
    """Inverse of parse_config, used for provenance echo and round trips."""
    return _CONFIG.echo(spec)
