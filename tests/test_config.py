"""Config schema validation and round trips."""

import copy
import json
import math
from pathlib import Path
import re

from hypothesis import given, settings, strategies as st
import pytest

from cyberrisk.cli import main
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


_SEVERITIES = {
    "lognormal": {"kind": "lognormal", "mu": 8.0, "sigma": 1.5},
    "pareto": {"kind": "pareto", "x_min": 100.0, "alpha": 1.7},
    "fixed": {"kind": "fixed", "value": 250.0},
    "discrete": {"kind": "discrete", "values": [1.0, 2.0], "probabilities": [0.25, 0.75]},
}


@pytest.mark.parametrize("kind", sorted(_SEVERITIES))
def test_round_trip_with_each_severity_kind(kind):
    mapping = paper_config()
    mapping["device"].update(horizon_days=180, kill_rate=0.5, loss_day_multiplier=2.0)
    mapping["scenario"]["mitigation_alphas"] = {"high": 0.8, "severe": 0.7}
    mapping["aggregate_channel"] = {"event_rate": 0.5, "severity": _SEVERITIES[kind]}
    spec = parse_config(mapping)
    echo = spec_to_mapping(spec)
    assert parse_config(echo) == spec
    assert echo["aggregate_channel"]["severity"] == _SEVERITIES[kind]
    assert echo["device"] == {**paper_config()["device"], "horizon_days": 180,
                              "kill_rate": 0.5, "loss_day_multiplier": 2.0}
    # the echo lists every level: omitted ones carry the schedule's mitigation
    assert echo["scenario"]["mitigation_alphas"] == {
        "baseline": 0.9, "guarded": 0.9, "elevated": 0.9, "high": 0.8, "severe": 0.7}


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


_DELETE = object()

# case -> (path, value or _DELETE, message); every document has one fault.
# schedule and scenario have no required key, so no missing-key case.
_MALFORMED = {
    "version-bool": (("version",), True, "config.version must be an integer, got True"),
    "version-2": (("version",), 2, "unsupported config version 2; this build reads version 1"),
    "config-unknown": (("bogus",), 1, "unknown key(s) in config: bogus"),
    "config-missing": (("device",), _DELETE, "missing key(s) in config: device"),
    "device-null": (("device",), None, "device must be an object, got None"),
    "device-list": (("device",), [1], "device must be an object, got [1]"),
    "device-unknown": (("device", "bogus"), 1, "unknown key(s) in device: bogus"),
    "device-missing": (("device", "theta"), _DELETE, "missing key(s) in device: theta"),
    "schedule-null": (("schedule",), None, "schedule must be an object, got None"),
    "schedule-unknown": (("schedule", "bogus"), 1, "unknown key(s) in schedule: bogus"),
    "scenario-null": (("scenario",), None, "scenario must be an object, got None"),
    "scenario-pairs": (("scenario",), [["population", 3]],
                       "scenario must be an object, got [['population', 3]]"),
    "scenario-unknown": (("scenario", "bogus"), 1, "unknown key(s) in scenario: bogus"),
    "multipliers-null": (("scenario", "intensity_multipliers"), None,
                         "scenario.intensity_multipliers must be an object, got None"),
    "multipliers-unknown": (("scenario", "intensity_multipliers", "bogus"), 1.0,
                            "unknown risk level in scenario.intensity_multipliers: 'bogus'"),
    "alphas-null": (("scenario", "mitigation_alphas"), None,
                    "scenario.mitigation_alphas must be an object, got None"),
    "alphas-unknown": (("scenario", "mitigation_alphas"), {"bogus": 0.5},
                       "unknown risk level in scenario.mitigation_alphas: 'bogus'"),
    "channel-list": (("aggregate_channel",), [1], "aggregate_channel must be an object, got [1]"),
    "channel-unknown": (("aggregate_channel", "bogus"), 1,
                        "unknown key(s) in aggregate_channel: bogus"),
    "channel-missing": (("aggregate_channel", "event_rate"), _DELETE,
                        "missing key(s) in aggregate_channel: event_rate"),
    "severity-unknown": (("aggregate_channel", "severity", "bogus"), 1,
                         "unknown key(s) in aggregate_channel.severity: bogus"),
    "severity-missing": (("aggregate_channel", "severity", "probabilities"), _DELETE,
                         "missing key(s) in aggregate_channel.severity: probabilities"),
    "kind-missing": (("aggregate_channel", "severity", "kind"), _DELETE,
                     "aggregate_channel.severity must be an object with a 'kind' key"),
    "kind-unknown": (("aggregate_channel", "severity", "kind"), "gamma",
                     "aggregate_channel.severity.kind must be one of "
                     "lognormal/pareto/fixed/discrete, got 'gamma'"),
    "kind-list": (("aggregate_channel", "severity", "kind"), ["discrete"],
                  "aggregate_channel.severity.kind must be one of "
                  "lognormal/pareto/fixed/discrete, got ['discrete']"),
    "discrete-values-string": (("aggregate_channel", "severity", "values"), "ab",
                               "aggregate_channel.severity.values must be a list of numbers, got 'ab'"),
    "discrete-probabilities-string": (
        ("aggregate_channel", "severity", "probabilities"), "ab",
        "aggregate_channel.severity.probabilities must be a list of numbers, got 'ab'"),
    "discrete-values-bool": (("aggregate_channel", "severity", "values"), [True, 2.0],
                             "aggregate_channel.severity.values must be a list of numbers, "
                             "got [True, 2.0]"),
    "confidence-string": (("confidence_levels",), ["0.9"],
                          "config.confidence_levels must be a list of numbers, got ['0.9']"),
    "confidence-scalar": (("confidence_levels",), 0.9,
                          "config.confidence_levels must be a list of numbers, got 0.9"),
    "levels-string": (("levels",), "guarded",
                      "config.levels must be a list of level names, got 'guarded'"),
    "horizon-10**400": (("device", "horizon_days"), 10 ** 400,
                        f"horizon_days must lie in [1, 2**53], got {10 ** 400}"),
    "horizon-2**53+1": (("device", "horizon_days"), 2 ** 53 + 1,
                        "horizon_days must lie in [1, 2**53], got 9007199254740993"),
    "repetitions-2**52+1": (("repetitions",), 2 ** 52 + 1,
                            "repetitions must lie in [1, 2**52], got 4503599627370497"),
    "portfolio-2**64": (("portfolio_size",), 2 ** 64,
                        "portfolio_size must lie in [1, 2**64 - 1], got 18446744073709551616"),
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
    path, value, message = _MALFORMED[case]
    target = mapping
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(mapping)
    assert str(err.value) == message

    config = tmp_path / "config.json"
    config.write_text(json.dumps(mapping))
    assert main(["simulate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def _fuzz_base(kind: str) -> dict:
    """The preset with every optional key and section present: the loss-day
    multiplier, a channel of the given severity kind and a partial alpha
    table."""
    document = paper_config()
    document["device"]["loss_day_multiplier"] = 1.0
    document["aggregate_channel"] = {"event_rate": 2.0, "severity": copy.deepcopy(_SEVERITIES[kind])}
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


_ODD_VALUES = [None, True, False, 0, -1, 2 ** 64, 10 ** 400, math.nan, math.inf, -math.inf,
               1e308, 1e-320, "", "0.9", "severe", [], [0.5], ["guarded"], {},
               {"guarded": 1.0}, {"kind": "fixed", "value": 1.0}]
_MUTATIONS = {kind: st.lists(st.tuples(st.sampled_from(list(_paths(_fuzz_base(kind)))),
                                        st.sampled_from([_DELETE] + _ODD_VALUES)),
                              min_size=1, max_size=3)
              for kind in _SEVERITIES}


def _get(node, path):
    """The value at ``path`` below ``node``."""
    for key in path:
        node = node[key]
    return node


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutated(kind: str, mutations) -> dict:
    """The fuzz base of ``kind`` with each (path, value) mutation applied in
    turn; a path an earlier mutation removed is skipped."""
    document = _fuzz_base(kind)
    for path, value in mutations:
        parent = document
        for key in path[:-1]:
            parent = parent[key] if _has(parent, key) else None
        if not _has(parent, path[-1]):
            continue
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return document


@pytest.mark.parametrize("kind", sorted(_SEVERITIES))
@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(data=st.data())
def test_mutated_documents_of_each_kind_parse_or_raise_config_error(kind, data):
    document = _mutated(kind, data.draw(_MUTATIONS[kind]))
    try:
        spec = parse_config(document)
    except ConfigError:
        return
    assert isinstance(spec, SimulationSpec)


# An odd number at a number's place parses more often than an odd value
# at any place, so these reach simulate.
_ODD_NUMBERS = [value for value in _ODD_VALUES if type(value) in (int, float)]


def _number_paths(document) -> list:
    """Every path below ``document`` that holds a number (not a bool)."""
    return [path for path in _paths(document) if type(_get(document, path)) in (int, float)]


def _simulate(document, reps: int, folder) -> int:
    """``simulate``'s exit code on ``document`` at ``reps`` repetitions."""
    (folder / "config.json").write_text(json.dumps(document))
    return main(["simulate", "--config", str(folder / "config.json"), "--reps", str(reps),
                 "--workers", "1", "--format", "json", "--out", str(folder / "report.json")])


@pytest.mark.parametrize("kind", sorted(_SEVERITIES))
def test_each_odd_number_in_each_place_simulates_or_exits_2_or_3(kind, tmp_path):
    """Each document with one odd number at one number's place that parses
    runs through ``simulate``, which returns 0, 2 (a spec the run cannot
    hold) or 3 (a numeric fault): never a traceback or a warning."""
    for path in _number_paths(_fuzz_base(kind)):
        for value in _ODD_NUMBERS:
            document = _mutated(kind, [(path, value)])
            try:
                parse_config(document)
            except ConfigError:
                continue
            assert _simulate(document, 100, tmp_path) in (0, 2, 3), (path, value)


@pytest.mark.parametrize("kind", sorted(_SEVERITIES))
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_odd_numbers_in_two_places_simulate_or_exit_2_or_3(kind, data, tmp_path_factory):
    paths = _number_paths(_fuzz_base(kind))
    document = _mutated(kind, data.draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(_ODD_NUMBERS)), min_size=2, max_size=2)))
    try:
        parse_config(document)
    except ConfigError:
        return
    reps = data.draw(st.integers(1, 100))
    assert _simulate(document, reps, tmp_path_factory.mktemp("simulate")) in (0, 2, 3)


def _keys(node):
    """Every object key below ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)


def test_readme_configuration_section_matches_the_schema():
    """README's "Configuration file" example parses, and the section names
    every key the schema reads. The echo walks the schema tables, so the
    echoes of one spec per severity kind hold every key."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration file\n", 1)[1].split("\n### ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert parse_config(json.loads(example)) == parse_config(paper_config())

    keys = set()
    for kind in _SEVERITIES:
        keys |= set(_keys(spec_to_mapping(parse_config(_fuzz_base(kind)))))
    unnamed = sorted(key for key in keys if not re.search(rf"\b{key}\b", section))
    assert unnamed == []
