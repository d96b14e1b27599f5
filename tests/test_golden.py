"""Golden report bytes, pinned across commits.

Each case is the paper preset with a few overrides, chosen so that
together they reach every draw path of layout v1: dense count inversion,
count PTRS regions, single-cluster regions with and without the
DETAIL_SPILL fallback, multi-cluster placement, survival words,
non-integer loss-day multipliers (whose totals depend on summation
order), and each channel severity kind, including CHANNEL regions.

The digests are SHA-256 of the table, CSV and JSON bytes. Regenerate them
only together with a ``DRAW_LAYOUT_VERSION`` or ``STREAM_FORMAT_VERSION``
bump, recorded in CHANGES.md.
"""

import hashlib

import pytest

from cyberrisk.config import paper_config, parse_config
from cyberrisk.engine import DRAW_LAYOUT_VERSION, run_simulation
from cyberrisk.report import render_csv, render_json, render_table
from cyberrisk.streams import STREAM_FORMAT_VERSION

_CHANNEL_LEVELS = ["guarded", "severe"]

CASES = {
    "dense_inversion": {"repetitions": 20_000},
    "count_ptrs_kappa_2e6": {"repetitions": 150, "portfolio_size": 2_000_000,
                             "levels": ["guarded", "elevated"]},
    "lambda_0": {"repetitions": 5_000, "device": {"theta": 2e-4, "lambda_cluster": 0.0}},
    "lambda_5": {"repetitions": 5_000, "device": {"theta": 2e-4, "lambda_cluster": 5.0}},
    "lambda_45_detail_spill": {"repetitions": 20_000, "levels": ["guarded", "elevated"],
                               "device": {"theta": 1e-3, "lambda_cluster": 45.0}},
    "kill_0.3": {"repetitions": 5_000, "device": {"theta": 2e-4, "kill_rate": 0.3}},
    "kappa_1e5_kill_0.1": {"repetitions": 1_000, "portfolio_size": 100_000,
                           "device": {"kill_rate": 0.1}},
    "theta_0.01_multiplier_0.7": {"repetitions": 500,
                                  "levels": ["guarded", "high"],
                                  "device": {"theta": 0.01, "loss_day_multiplier": 0.7}},
    "multiplier_1.37_horizon_200": {"repetitions": 5_000,
                                    "device": {"theta": 2e-4, "horizon_days": 200,
                                               "loss_day_multiplier": 1.37}},
    "channel_pareto_12": {"repetitions": 2_000, "levels": _CHANNEL_LEVELS,
                          "aggregate_channel": {"event_rate": 12.0, "severity": {
                              "kind": "pareto", "x_min": 1000.0, "alpha": 2.5}}},
    "channel_lognormal_45": {"repetitions": 2_000, "levels": _CHANNEL_LEVELS,
                             "aggregate_channel": {"event_rate": 45.0, "severity": {
                                 "kind": "lognormal", "mu": 8.0, "sigma": 1.5}}},
    "channel_fixed": {"repetitions": 2_000, "levels": _CHANNEL_LEVELS,
                      "aggregate_channel": {"event_rate": 3.0, "severity": {
                          "kind": "fixed", "value": 5000.0}}},
    "channel_discrete": {"repetitions": 2_000, "levels": _CHANNEL_LEVELS,
                         "aggregate_channel": {"event_rate": 2.0, "severity": {
                             "kind": "discrete", "values": [100.0, 1000.0, 10000.0],
                             "probabilities": [0.5, 0.25, 0.25]}}},
}

# (table, csv, json) SHA-256, captured before batched stream resolution.
PINS = {
    "dense_inversion": (
        "4b351580b11fb2557567970cde8dba333bd70bec2f34444beff8a515c98aeb0c",
        "e55535453d08706a9163cf35e6081e95fdc747a52f986cd4c7c5a2510e7afe1f",
        "a3afa721b21d3414d42d366ccc51a2b812ad66acf0e2c335a4d863193bd47792",
    ),
    "count_ptrs_kappa_2e6": (
        "b7ee799c78f814a7235521f866e15e0bfb593475314b62f7206d239a2a39d578",
        "9bc40315af7095d2ecc6b5b151e868ef2c2730688b939ecd638e9eaa5fc5bec1",
        "cdb6e0224adee3d476b5668f2808b0d978f39906ec00923d07e251f24f805082",
    ),
    "lambda_0": (
        "948b26ac9a2bf34a8836cf7bae74d090ccf227631dd7cc13ff964d45e2f1f306",
        "c6b9ff7ecce1d7da663f4f52dbb0a1b7a6a0433c8e5f7f76a82b336f26ae3b13",
        "d201f63f16f812615a57c9368db83757c17aa505489b7ac49d2e3bc8bfb41459",
    ),
    "lambda_5": (
        "3cc6671a46663e50387ce98c3761c09506b6fa60e4b32f289b25499e4ddda359",
        "51de8bfada2d7f1924d39c71b79762f8f09d1c1d422250e1c6eab4f7ea756519",
        "c2e999c5cc9b114926c25cd405c0b7f51a04ff0381fd614bb3643fdf0572897e",
    ),
    "lambda_45_detail_spill": (
        "66f4ef4277dda6be00cc28db7c6cdf5d284b6f6eeff3cbb1942a3ff10418b592",
        "8de16a6af9bea54da784c2ac8933b26ba8fd56ebc78764efe845eab710c73293",
        "77049c0a40acf3c52b6eb54b6fa5faf273699e817e2a540042204fb195cd8a71",
    ),
    "kill_0.3": (
        "c1799f0e10919f6c9876a61b04a24d7b04e7eda837c676a01f1df4301488100e",
        "4ceab6551a3f0e302dd33fa949318faeb2539ad2a9132d6a09c25e5dc48059ae",
        "357d7b8b621bbcab1faa2df3b22f669696d7e02d78263bcef320a43c2f018181",
    ),
    "kappa_1e5_kill_0.1": (
        "d78f39043ba44a2ebb3b22c9657b7b971fea4c323376792f9a0fc22f105874a2",
        "a8a717f6e18d51851862c6a9a1ab92467b4f60dd1c048bcc16c578426c2d7f6b",
        "1c915b53fcb14b4071f15e1bf14daf28e6fdaa95c903fb87e037f516082a9d00",
    ),
    "theta_0.01_multiplier_0.7": (
        "b0fbaf0f104cf903e3ed0a9128fc9f5047a1dd6b3d3cfb23945993b7cedaf008",
        "0a7a0fd0b6435e736ac2e023953c43408355ec06e5cb2160ce18b48ceb76e319",
        "96eb84cc03413fdaf9ae0acd9dd2ba2e614863ea1543ee5568f0b3e621d98f1f",
    ),
    "multiplier_1.37_horizon_200": (
        "a1b8209dcc3c72df67e162474e9b52f9c5330a148a70a6d9c14c544ce7c9be4e",
        "6fe14450e7401c641aa2048261e42f38958f1a83f485dd21ba23f7b8c32f3e32",
        "f97c7e0d933439935dda27976d1ae8afaa97429696ce87b0a35ab4f0f5e0efa8",
    ),
    "channel_pareto_12": (
        "687d800da4459bb3d0ad1d0126ad115719ba27f04c0e90ef72e328a06749bd55",
        "f2dd5756a6d6979595f17a01157c227537961c3d3e1c60a195cdb18aad0c57c2",
        "e3f599f78d91a0339b766a459c70f9efe5fad1cb5f4cd343e8a8dbd405967fab",
    ),
    "channel_lognormal_45": (
        "fc5b0eb90e8f9980f240fc6fcb2909800a48eb3e1d5d6f68ed4424fd7f9875c7",
        "0cd8ae17efb7ef3781c6a5fc2ef92d543912516a2eaf420ed10fd0d6b8ae7c84",
        "8e08d9e82c415ec4a1dc90710d8a48d7ce7082e92b04fe2921fba44a10467cab",
    ),
    "channel_fixed": (
        "28f38013acfe090ca6eb89934e5fbe056fc1da402e46d49bc8c7982e389cd08e",
        "6ea9f25b798ef7528fa3c761d5220911e435365ff7627ac8219840d5f77e4955",
        "ca8ba47ba116d2bd4aa8556beddf29fd1879cb1cf1d5ea1c28ba24446e39e031",
    ),
    "channel_discrete": (
        "e169382c35deef71dc2783ddc2b7e3c75d9f3104506c75de63989787201d8f20",
        "22220f9918d8cca6efdd5b7c11a8ca58e91126b31323f66c0aa3c37dd08ff73f",
        "ca5c7cd6db5ca5968f26aaa3f6b406295e0aec607f72f26c124a19e4191e3524",
    ),
}


def case_document(name: str) -> dict:
    document = paper_config()
    for key, value in CASES[name].items():
        if key == "device":
            document["device"] = {**document["device"], **value}
        else:
            document[key] = value
    return document


def case_digests(name: str) -> tuple:
    report = run_simulation(parse_config(case_document(name)), workers=1)
    return tuple(hashlib.sha256(render(report).encode("utf-8")).hexdigest()
                 for render in (render_table, render_csv, render_json))


def test_pins_belong_to_layout_v1():
    assert DRAW_LAYOUT_VERSION == 1
    assert STREAM_FORMAT_VERSION == 1
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_pins(name):
    assert case_digests(name) == PINS[name]
