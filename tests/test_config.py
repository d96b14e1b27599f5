"""Config schema validation and round trips."""

import copy
import json
import math

from hypothesis import given, settings, strategies as st
import pytest

from cyberrisk.config import load_config, paper_config, parse_config, spec_to_mapping
from cyberrisk.engine import SimulationSpec
from cyberrisk.errors import ConfigError, InputError
from cyberrisk.scenario import RiskLevel


def test_paper_preset_parses_with_paper_defaults():
    spec = parse_config(paper_config())
    assert spec.portfolio_size == 1000
    assert spec.repetitions == 100_000
    assert spec.device.daily_loss == 1000.0
    assert spec.device.discount_rate == 0.03
    assert spec.loading == 0.1
    assert spec.mitigation == 0.9
    assert spec.scenario.base_proportion == 0.00002
    assert spec.scenario.intensity_multipliers[RiskLevel.HIGH] == 10.0
    assert spec.scenario.intensity_multipliers[RiskLevel.SEVERE] == 20.0
    # absent alpha table means the note reading: 0.9 at every level
    assert all(spec.scenario.mitigation_alphas[level] == 0.9 for level in RiskLevel)


def test_round_trip_through_mapping():
    spec = parse_config(paper_config())
    again = parse_config(spec_to_mapping(spec))
    assert again == spec


def test_version_field_is_mandatory():
    mapping = paper_config()
    del mapping["version"]
    with pytest.raises(ConfigError):
        parse_config(mapping)


def test_unknown_keys_rejected_everywhere():
    for path in ("top", "device", "scenario"):
        mapping = paper_config()
        if path == "top":
            mapping["bogus"] = 1
        elif path == "device":
            mapping["device"]["bogus"] = 1
        else:
            mapping["scenario"]["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(mapping)
        assert "bogus" in str(err.value)


def test_channel_severity_parsing():
    mapping = paper_config()
    mapping["aggregate_channel"] = {
        "event_rate": 0.5,
        "severity": {"kind": "pareto", "x_min": 100.0, "alpha": 1.7},
    }
    spec = parse_config(mapping)
    assert spec.aggregate_channel.event_rate == 0.5
    assert spec.aggregate_channel.severity.alpha == 1.7
    round_trip = parse_config(spec_to_mapping(spec))
    assert round_trip == spec


def test_sentence_reading_via_partial_alphas():
    mapping = paper_config()
    mapping["schedule"]["mitigation"] = 1.0
    mapping["scenario"]["mitigation_alphas"] = {"guarded": 0.9}
    spec = parse_config(mapping)
    assert spec.scenario.mitigation_alphas[RiskLevel.GUARDED] == 0.9
    assert spec.scenario.mitigation_alphas[RiskLevel.SEVERE] == 1.0


def test_domain_violations_become_config_errors():
    mapping = paper_config()
    mapping["device"]["theta"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(mapping)
    mapping = paper_config()
    mapping["confidence_levels"] = [0.9, 1.5]
    with pytest.raises(ConfigError):
        parse_config(mapping)


def test_load_config_missing_file():
    with pytest.raises(InputError):
        load_config("/nonexistent/config.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(paper_config()))
    assert load_config(str(path)) == parse_config(paper_config())


_MALFORMED = {
    "version-bool": (("version",), True),
    "device-null": (("device",), None),
    "device-list": (("device",), [1]),
    "schedule-null": (("schedule",), None),
    "scenario-null": (("scenario",), None),
    "scenario-pairs": (("scenario",), [["population", 3]]),
    "multipliers-null": (("scenario", "intensity_multipliers"), None),
    "alphas-null": (("scenario", "mitigation_alphas"), None),
    "channel-list": (("aggregate_channel",), [1]),
    "discrete-values-string": (("aggregate_channel", "severity", "values"), "ab"),
    "discrete-probabilities-string": (("aggregate_channel", "severity", "probabilities"), "ab"),
    "discrete-values-bool": (("aggregate_channel", "severity", "values"), [True, 2.0]),
    "confidence-string": (("confidence_levels",), ["0.9"]),
    "confidence-scalar": (("confidence_levels",), 0.9),
    "levels-string": (("levels",), "guarded"),
    "horizon-10**400": (("device", "horizon_days"), 10 ** 400),
    "horizon-2**53+1": (("device", "horizon_days"), 2 ** 53 + 1),
    "repetitions-2**52+1": (("repetitions",), 2 ** 52 + 1),
    "portfolio-2**64": (("portfolio_size",), 2 ** 64),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_documents_are_config_errors(case, tmp_path, capsys):
    from cyberrisk.cli import main

    mapping = paper_config()
    mapping["repetitions"] = 10
    mapping["aggregate_channel"] = {
        "event_rate": 1.0,
        "severity": {"kind": "discrete", "values": [1.0, 2.0], "probabilities": [0.5, 0.5]},
    }
    path, value = _MALFORMED[case]
    target = mapping
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError):
        parse_config(mapping)

    config = tmp_path / "config.json"
    config.write_text(json.dumps(mapping))
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_integer_too_long_to_parse_is_a_config_error(tmp_path, capsys):
    from cyberrisk.cli import main

    text = json.dumps(paper_config()).replace('"horizon_days": 365', '"horizon_days": 1' + "0" * 5000)
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(config))
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_omitted_device_fields_use_device_defaults():
    mapping = paper_config()
    mapping["device"] = {"daily_loss": 1000.0, "discount_rate": 0.03, "theta": 0.5}
    device = parse_config(mapping).device
    assert device.counts.lambda_cluster == 0.0
    assert device.horizon_days == 365
    assert device.kill_rate == 0.0
    assert device.loss_day_multiplier == 1.0


def _fuzz_base() -> dict:
    """The preset with every optional section present: a channel and a
    partial alpha table."""
    document = paper_config()
    document["aggregate_channel"] = {"event_rate": 2.0, "severity": {
        "kind": "lognormal", "mu": 8.0, "sigma": 1.5}}
    document["scenario"]["mitigation_alphas"] = {"high": 0.8, "severe": 0.7}
    return document


def _paths(node, prefix=()):
    """Every key and index path below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_DELETE = object()
_ODD_VALUES = [None, True, False, 0, -1, 2 ** 64, 10 ** 400, math.nan, math.inf, -math.inf,
               1e308, 1e-320, "", "0.9", "severe", [], [0.5], ["guarded"], {},
               {"guarded": 1.0}, {"kind": "fixed", "value": 1.0}]
_MUTATIONS = st.lists(st.tuples(st.sampled_from(list(_paths(_fuzz_base()))),
                                st.sampled_from([_DELETE] + _ODD_VALUES)),
                      min_size=1, max_size=3)


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(_MUTATIONS)
def test_mutated_documents_parse_or_raise_config_error(mutations):
    document = copy.deepcopy(_fuzz_base())
    for path, value in mutations:
        parent = document
        for key in path[:-1]:
            parent = parent[key] if _has(parent, key) else None
        if not _has(parent, path[-1]):
            continue  # an earlier mutation removed this path
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    try:
        spec = parse_config(document)
    except ConfigError:
        return
    assert isinstance(spec, SimulationSpec)
