"""CLI contract: flags, formats, exit codes, deterministic bytes."""

import datetime as dt
import json
import math
import os
from pathlib import Path
import re
import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

import cyberrisk
from cyberrisk import cli, errors
from cyberrisk.cli import main
from cyberrisk.config import CONFIG_VERSION, paper_config, parse_config
from cyberrisk.distributions import Pareto, sample_severity_batch
import cyberrisk.engine as engine
from cyberrisk.streams import derive_stream


@pytest.fixture()
def small_config(tmp_path):
    """Paper preset shrunk to test size."""
    mapping = paper_config()
    mapping["repetitions"] = 3000
    mapping["portfolio_size"] = 200
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_json_runs_are_byte_identical(self, capsys, small_config):
        code1, out1, _ = run_cli(capsys, "simulate", "--config", small_config,
                                 "--seed", "7", "--format", "json")
        code2, out2, _ = run_cli(capsys, "simulate", "--config", small_config,
                                 "--seed", "7", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip()

    def test_workers_flag_does_not_change_bytes(self, capsys, monkeypatch, small_config):
        # 396 expected drawn rows cut into 4 tasks: one worker on 1 CPU scans
        # counts on one thread, one worker on 2 CPUs with no helper
        # threshold on two, and 2 workers run a pool
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 100)
        monkeypatch.setattr(engine, "_HELPER_WORDS", 0)
        assert engine._task_count(parse_config(json.loads(Path(small_config).read_text()))) == 4
        outs = []
        for cpus, workers in [(1, "1"), (2, "1"), (2, "2")]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            outs.append(run_cli(capsys, "simulate", "--config", small_config,
                                "--format", "json", "--workers", workers)[1])
        assert outs[0].strip()
        assert outs == [outs[0]] * 3

    def test_json_round_trips(self, capsys, small_config):
        _, out, _ = run_cli(capsys, "simulate", "--config", small_config, "--format", "json")
        document = json.loads(out)
        assert json.dumps(document, indent=2) + "\n" == out
        assert document["report_version"] == 1
        assert document["provenance"]["seed"] == 42
        assert [lv["level"] for lv in document["levels"]] == [
            "guarded", "elevated", "high", "severe"]
        # monetary fields are fixed six-fraction-digit decimal strings
        for lv in document["levels"]:
            assert len(lv["expected_present_loss"].rsplit(".", 1)[1]) == 6
            assert "," not in lv["premium_pool"]

    def test_table_has_expected_rows_in_order(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "simulate", "--config", small_config, "--format", "table")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        names = [line.split("  ")[0].strip() for line in lines]
        wanted = ["E(P1)", "Prob(Shortfall)", "E(Shortfall)",
                  "VAR(.90)", "VAR(.95)", "VAR(.99)",
                  "CTE(.90)", "CTE(.95)", "CTE(.99)"]
        positions = [names.index(w) for w in wanted]
        assert positions == sorted(positions)
        assert len(wanted) >= 9
        header = lines[0]
        for label in ("Guarded (Green)", "Elevated (Yellow)", "High (Amber)", "Severe (Red)"):
            assert label in header

    def test_csv_output(self, capsys, small_config, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", small_config,
                               "--format", "csv", "--out", str(out_path))
        assert code == 0
        assert out == ""
        content = out_path.read_text()
        body = [line for line in content.splitlines() if not line.startswith("#")]
        assert body[0].startswith("metric,")
        assert "," in body[1]
        assert "# seed=42" in content

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("levels, labels", [
        ([0.9, 0.9], [".90"]),
        ([0.9, 0.90000000001], [".90", ".90000000001"]),
    ])
    def test_each_distinct_level_prints_once_under_its_own_label(self, capsys, tmp_path,
                                                                 fmt, levels, labels):
        mapping = paper_config()
        mapping.update(repetitions=500, portfolio_size=200, confidence_levels=levels)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(mapping))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--format", fmt)
        assert code == 0
        separator = "," if fmt == "csv" else "  "
        names = [line.split(separator)[0] for line in out.splitlines()]
        assert [name for name in names if "(." in name] == [
            f"{metric}({label})" for metric in ("VAR", "CTE", "Margin VAR", "Margin CTE")
            for label in labels]

    def test_out_into_missing_directory_exits_1(self, capsys, small_config, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "simulate", "--config", small_config, "--reps", "10",
                                 "--out", str(out_path))
        assert code == 1
        assert out == "" and not out_path.exists()
        # the run's wall-time line comes first, as in a fresh `cyberrisk simulate`
        timing, error = err.splitlines()
        assert re.fullmatch(r"cyberrisk: simulated 4 levels x 10 repetitions in \d+\.\d\ds", timing)
        assert error.startswith("error: cannot write report to ") and "report.json" in error

    def test_seed_and_reps_overrides(self, capsys, small_config):
        _, out_a, _ = run_cli(capsys, "simulate", "--config", small_config,
                              "--seed", "1", "--reps", "500", "--format", "json")
        _, out_b, _ = run_cli(capsys, "simulate", "--config", small_config,
                              "--seed", "2", "--reps", "500", "--format", "json")
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        assert doc_a["provenance"]["repetitions"] == 500
        assert doc_a["provenance"]["seed"] == 1 and doc_b["provenance"]["seed"] == 2
        assert out_a != out_b

    def test_missing_config_exits_1_and_names_path(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, _, err = run_cli(capsys, "simulate", "--config", missing)
        assert code == 1
        assert "nope.json" in err

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        mapping = paper_config()
        mapping["surprise"] = 1
        path.write_text(json.dumps(mapping))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "surprise" in err

    def test_too_deeply_nested_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"error: config file {path} is not valid JSON: maximum recursion depth "
                       "exceeded while decoding a JSON array from a unicode string\n")

    @pytest.mark.parametrize("flags", [("--reps", "0"), ("--seed", "-1"),
                                       ("--seed", str(2 ** 64))])
    def test_out_of_range_overrides_exit_2(self, capsys, small_config, flags):
        code, out, err = run_cli(capsys, "simulate", "--config", small_config, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_wrong_version_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        mapping = paper_config()
        mapping["version"] = CONFIG_VERSION + 1
        path.write_text(json.dumps(mapping))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("path", [("schedule", "loading"), ("device", "theta"),
                                      ("confidence_levels", 1),
                                      ("scenario", "intensity_multipliers", "high")])
    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path, path):
        mapping = paper_config()
        target = mapping
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10 ** 400
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(mapping))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "too large for a float" in err

    @pytest.mark.parametrize("theta", [1e15, 1e300])
    def test_count_rate_beyond_bound_exits_2(self, capsys, tmp_path, theta):
        # kappa * theta far past 2**20: the cluster count would need more
        # memory than any host has, or overflow the PTRS count
        mapping = paper_config()
        mapping["repetitions"] = 10
        mapping["device"]["theta"] = theta
        config = tmp_path / "rate.json"
        config.write_text(json.dumps(mapping))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at most 2**20" in err

    def test_loss_array_beyond_memory_exits_2(self, capsys, tmp_path):
        # 2**52 repetitions are legal, but the 21.1 PiB buffer of every
        # level's ceil(2**52 * rate) expected drawn losses (rates 0.02, 0.04,
        # 0.2 and 0.4) is not allocatable on any host; the run fails before
        # any task starts
        mapping = paper_config()
        mapping["repetitions"] = 2 ** 52
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(mapping))
        message = (f"error: repetitions {2 ** 52} need a 23779006032516232-byte loss buffer, "
                   "more memory than can be allocated\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out, err) == (2, "", message)
        done = _run_module(["simulate", "--config", str(config)])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)


    @pytest.mark.parametrize("field, value", [("loss_day_multiplier", 1e-320),
                                              ("loss_day_multiplier", 1e-300),
                                              ("loss_day_multiplier", 1e-12),
                                              ("horizon_days", 10 ** 12),
                                              ("horizon_days", 2 ** 53)])
    def test_pmf_table_beyond_memory_exits_2(self, capsys, tmp_path, field, value):
        # the Baseline expected loss needs a count pmf table of about
        # horizon_days / loss_day_multiplier rows: past 2**1024 rows, past
        # numpy's largest dimension, or petabytes
        mapping = paper_config()
        mapping["repetitions"] = 10
        mapping["device"][field] = value
        config = tmp_path / "table.json"
        config.write_text(json.dumps(mapping))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        done = _run_module(["simulate", "--config", str(config)])
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert (code, out) == (2, "")
        rows = re.fullmatch(r"error: a count pmf table of (over 2\*\*1024|\d+) rows needs "
                            r"(over 2\*\*1030|\d+) bytes, more memory than can be allocated\n",
                            err)
        assert rows is not None, err
        if value != 1e-320:
            device = mapping["device"]
            reach = device["horizon_days"] / device.get("loss_day_multiplier", 1.0)
            # the build's peak, 15 float64s per row
            assert int(rows[2]) == 8 * 15 * int(rows[1]) > 8 * 15 * reach


    def test_pmf_table_build_out_of_memory_exits_2(self, tmp_path):
        # the Baseline table has about 1.46e8 rows (1.17 GB); under a 2 GiB
        # address-space limit it is allocated, and a later array of its
        # build is not. Unlimited, this input runs for hours.
        mapping = paper_config()
        mapping.update(repetitions=10, portfolio_size=1, levels=["guarded"])
        mapping["device"].update(theta=52.4288, lambda_cluster=2 ** 20)
        config = tmp_path / "table.json"
        config.write_text(json.dumps(mapping))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(cyberrisk.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-m", "cyberrisk.cli", "simulate", "--config",
                               str(config)], capture_output=True, text=True, env=env,
                              preexec_fn=limit_memory, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert re.fullmatch(r"error: a count pmf table of \d+ rows needs \d+ bytes, "
                            r"more memory than can be allocated\n", done.stderr), done.stderr

    # NaN at Baseline, and theta * multiplier underflowing to 0.0 at Baseline
    # (where nothing is drawn) and at every level
    @pytest.mark.parametrize("theta, multipliers", [
        (None, {"baseline": math.nan}),
        (None, {"baseline": 1e-320}),
        (1e-300, {"baseline": 1e-30, "guarded": 1e-30, "elevated": 2e-30, "high": 1e-29,
                  "severe": 2e-29}),
    ])
    def test_intensity_multiplier_without_a_positive_rate_exits_2(self, capsys, tmp_path, theta,
                                                                  multipliers):
        mapping = paper_config()
        mapping["repetitions"] = 10
        if theta is not None:
            mapping["device"]["theta"] = theta
        mapping["scenario"]["intensity_multipliers"].update(multipliers)
        config = tmp_path / "multipliers.json"
        config.write_text(json.dumps(mapping))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: (intensity multiplier for BASELINE must be positive, got nan"
                            r"|theta \* intensity multiplier at BASELINE must be positive, "
                            r"got \S+ \* \S+ = 0\.0)\n", err), err

    # 1e305: every loss is finite, their mean is not; 1e307: a loss overflows
    @pytest.mark.parametrize("daily_loss", [1e305, 1e307])
    def test_overflow_is_a_numeric_fault_without_a_warning(self, tmp_path, daily_loss):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "version": 1, "repetitions": 10, "portfolio_size": 1, "levels": ["severe"],
            "device": {"daily_loss": daily_loss, "discount_rate": 0.0, "theta": 5.0,
                       "lambda_cluster": 400.0}}))
        done = _run_module(["simulate", "--config", str(path), "--format", "json"])
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("error: numeric fault: ")
        assert done.stderr.count("\n") == 1


class TestCalibrate:
    def test_defaults_reproduce_published_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == 0
        fragment = json.loads(out)["scenario"]
        assert fragment["base_proportion"] == 0.00002
        assert fragment["attacks_per_year_base"] == pytest.approx(10.512, abs=1e-9)
        assert fragment["intensity_multipliers"]["high"] == 10.0
        assert fragment["intensity_multipliers"]["severe"] == 20.0

    def test_population_scaling(self, capsys):
        _, out, _ = run_cli(capsys, "calibrate", "--population", "20000")
        assert json.loads(out)["scenario"]["base_proportion"] == pytest.approx(0.00001, rel=1e-12)

    def test_zero_window_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--attack-window-min", "0")
        assert code == 2

    def test_underflowing_proportion_exits_2(self, capsys):
        # p = 1 / (1e308 * 1e16) underflows to 0, which no config accepts
        code, out, err = run_cli(capsys, "calibrate", "--attack-window-min", "1e308",
                                 "--population", "10000000000000000")
        assert code == 2
        assert out == ""
        assert err == "error: base_proportion must lie in (0, 1], got 0.0\n"

    @pytest.mark.parametrize("window", ["inf", "nan"])
    def test_nonfinite_window_exits_2(self, capsys, window):
        code, out, err = run_cli(capsys, "calibrate", "--attack-window-min", window)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("flag", ["--population", "--minutes-per-year"])
    def test_integer_past_the_float_range_exits_2(self, capsys, flag):
        # 10**400 parses as an int, and overflows where it meets a float
        code, out, err = run_cli(capsys, "calibrate", flag, str(10 ** 400))
        assert (code, out) == (2, "")
        assert err.startswith("error: minutes_per_year, attack_window_minutes and population "
                              "must be positive and finite")
        assert err.count("\n") == 1


def _events_csv(tmp_path, losses):
    """An events CSV with one event and one loss a day from 2020-01-01."""
    lines = ["date,category,event_count,loss_amount"]
    day = dt.date(2020, 1, 1)
    lines += [f"{day + dt.timedelta(days=i)},c,1,{float(x)!r}" for i, x in enumerate(losses)]
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _python(*args):
    """A fresh interpreter on this package, run with ``args``."""
    src = str(Path(cyberrisk.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_module(argv):
    """``python -m cyberrisk.cli`` in a fresh interpreter on this package."""
    return _python("-m", "cyberrisk.cli", *argv)


class TestFit:
    def test_generate_then_recover_roundtrip(self, capsys, tmp_path):
        import numpy as np

        from cyberrisk.distributions import Lognormal, sample_poisson_batch, sample_severity_batch
        from cyberrisk.streams import derive_stream

        counts = sample_poisson_batch(derive_stream(5, 50), 3.0, 1000)
        losses = sample_severity_batch(derive_stream(5, 51), Lognormal(1.5, 0.7), 1000)
        lines = ["date,category,event_count,loss_amount"]
        base = np.datetime64("2018-01-01")
        for i in range(1000):
            lines.append(f"{base + np.timedelta64(i, 'D')},syn,{int(counts[i])},{float(losses[i])!r}")
        path = tmp_path / "events.csv"
        path.write_text("\n".join(lines) + "\n")

        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        fragment = json.loads(out)
        assert abs(fragment["intensity_per_day"] - 3.0) < 0.2
        assert abs(fragment["severity"]["mu"] - 1.5) < 0.1
        assert abs(fragment["severity"]["sigma"] - 0.7) < 0.1
        assert fragment["sample_sizes"]["records"] == 1000

    def test_pareto_requires_x_min(self, capsys, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("date,category,event_count,loss_amount\n2020-01-01,c,1,5.0\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path), "--severity", "pareto")
        assert code == 2
        assert "--x-min" in err

    def test_empty_csv_exits_4(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("date,category,event_count,loss_amount\n")
        code, _, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 4

    def test_pareto_fit_recovers_alpha(self, capsys, tmp_path):
        # 2,000 Pareto(x_min 1000, alpha 2.5) losses and 300 below x_min;
        # the Hill estimate has standard error alpha / sqrt(n), so it must
        # land within 4 of them: |alpha - 2.5| < 4 * 2.5 / sqrt(2000) = 0.224
        n = 2000
        tail = sample_severity_batch(derive_stream(9, 60), Pareto(x_min=1000.0, alpha=2.5), n)
        path = _events_csv(tmp_path, list(tail) + [500.0] * 300)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--severity", "pareto",
                                 "--x-min", "1000")
        assert code == 0 and err == ""
        fragment = json.loads(out)
        assert fragment["severity"]["kind"] == "pareto"
        assert fragment["severity"]["x_min"] == 1000.0
        assert abs(fragment["severity"]["alpha"] - 2.5) < 4 * 2.5 / math.sqrt(n)
        assert fragment["sample_sizes"]["losses_used"] == n == sum(tail >= 1000.0)
        assert "warnings" not in fragment

    def test_pareto_fit_warns_on_a_heavy_tail(self, capsys, tmp_path):
        # alpha 0.8 has no finite mean; the estimate falls below 1
        u = derive_stream(9, 61).uniforms(2000)
        path = _events_csv(tmp_path, list(1000.0 * u ** (-1.0 / 0.8)))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--severity", "pareto",
                               "--x-min", "1000")
        assert code == 0
        fragment = json.loads(out)
        assert fragment["severity"]["alpha"] < 1.0
        assert any("tail index" in w and "(1, 3)" in w for w in fragment["warnings"])

    @pytest.mark.parametrize("window", [("--from", "2020-13-01"), ("--to", "01/02/2020"),
                                        ("--from", "2020-03-01", "--to", "2020-02-01")],
                             ids=["bad_from", "bad_to", "to_before_from"])
    def test_bad_window_exits_2(self, capsys, tmp_path, window):
        path = _events_csv(tmp_path, [10.0, 20.0, 30.0])
        code, out, err = run_cli(capsys, "fit", "--input", str(path), *window)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and window[-2] in err

    def test_overlong_csv_field_exits_2_without_a_traceback(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("date,category,event_count,loss_amount\n"
                        f"2020-01-01,{'x' * 200_000},1,\n")
        result = _run_module(["fit", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: CSV line 2: field larger than field limit")

    def test_lognormal_fit_of_equal_losses_warns_on_sigma_0(self, capsys, tmp_path):
        path = _events_csv(tmp_path, [500.0, 500.0, 500.0])
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--severity", "lognormal")
        assert code == 0 and err == ""
        fragment = json.loads(out)
        assert fragment["severity"] == {"kind": "lognormal", "mu": math.log(500.0), "sigma": 0.0}
        assert fragment["warnings"] == [
            "all positive losses are equal: lognormal sigma is 0, "
            "which a config rejects (sigma must be positive)"]

    @pytest.mark.parametrize("losses, window", [([10.0, 20.0, 30.0], ("--from", "2020-01-03")),
                                                ([0.0, 0.0, 30.0], ())],
                             ids=["window", "zero_losses"])
    def test_lognormal_fit_of_one_positive_loss_exits_4(self, capsys, tmp_path, losses, window):
        path = _events_csv(tmp_path, losses)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), *window)
        assert code == 4
        assert out == ""
        assert err == "error: lognormal fit needs >= 2 positive loss amounts in window, got 1\n"

    def test_event_count_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(f"date,category,event_count,loss_amount\n2020-01-01,c,{10 ** 400},\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: event count in window is too large for a float intensity\n"

    def test_more_than_20_rejects_list_the_first_20(self, capsys, tmp_path):
        path = _events_csv(tmp_path, [1.0] * 30)
        with path.open("a") as handle:
            handle.writelines(f"day {i},c,1,\n" for i in range(25))
        code, _, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "rejected 25 row(s):"
        assert lines[1:21] == [f"  line {32 + i}: field date: not ISO-8601: 'day {i}'"
                               for i in range(20)]
        assert lines[21:] == ["  ... and 5 more"]

    def test_rejects_go_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("date,category,event_count,loss_amount\n"
                        "2020-01-01,c,1,5.0\n"
                        "2020-01-02,c,2,6.0\n"
                        "06/01/2020,c,1,7.0\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        assert "rejected 1 row" in err
        assert "line 4" in err


class TestReport:
    def test_counting_oracle_values(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("# synthetic sample\n" + "\n".join(str(x) for x in range(1, 101)) + "\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path), "--premium-pool", "90")
        assert code == 0
        assert "VAR(.90)" in out and "90.000000" in out
        assert "CTE(.90)" in out and "95.000000" in out
        assert "0.11" in out
        assert "0.55" in out

    def test_overflowing_sum_is_a_numeric_fault_without_a_warning(self, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("1e308\n1e308\n")
        done = _run_module(["report", "--samples", str(path)])
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == ("error: numeric fault: nonfinite risk measure: "
                               "a sum over the losses overflows\n")

    @staticmethod
    def _mostly_zeros(path):
        """300 losses, 288 of them zeros (some written -0.0)."""
        lines = [repr(1e3 * 1.1 ** (i // 25) / 3) if i % 25 == 3 else "-0.0" if i % 7 == 0 else "0"
                 for i in range(300)]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("pool, shortfall", [
        ("0", ["premium pool      0.000000", "Prob(Shortfall)   1.0",
               "E(Shortfall)      23.760315"]),
        ("500", ["premium pool      500.000000", "Prob(Shortfall)   0.023333333333333334",
                 "E(Shortfall)      5.310204"]),
    ])
    def test_sample_of_zeros_prints_the_full_array_figures(self, capsys, tmp_path, pool, shortfall):
        # the output of the full-array measures: rank 288 (.96) is the last
        # zero, rank 289 (.961) the first drawn loss
        path = tmp_path / "losses.txt"
        self._mostly_zeros(path)
        code, out, _ = run_cli(capsys, "report", "--samples", str(path), "--premium-pool", pool,
                               "--levels", "0.5,0.9,0.96,0.961,0.99")
        assert code == 0
        assert out.splitlines() == [
            "samples           300",
            "expected loss     23.760315",
            *shortfall,
            "VAR(.50)          0.000000",
            "VAR(.90)          0.000000",
            "VAR(.96)          0.000000",
            "VAR(.961)          333.333333",
            "VAR(.99)          714.529603",
            "CTE(.50)          23.760315",
            "CTE(.90)          23.760315",
            "CTE(.96)          23.760315",
            "CTE(.961)          594.007882",
            "CTE(.99)          829.032972",
            "Margin VAR(.50)   -1.0",
            "Margin VAR(.90)   -1.0",
            "Margin VAR(.96)   -1.0",
            "Margin VAR(.961)   13.028994530086184",
            "Margin VAR(.99)   29.072395690243976",
            "Margin CTE(.50)   0.0",
            "Margin CTE(.90)   0.0",
            "Margin CTE(.96)   0.0",
            "Margin CTE(.961)   24.000000000000004",
            "Margin CTE(.99)   33.89149709960557",
        ]

    def test_overflowing_sum_past_zeros_is_a_numeric_fault(self, tmp_path):
        # the mean's sum runs over 200 zeros that are never read
        path = tmp_path / "losses.txt"
        path.write_text("0\n" * 200 + "1e308\n1e308\n")
        done = _run_module(["report", "--samples", str(path)])
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == ("error: numeric fault: nonfinite risk measure: "
                               "a sum over the losses overflows\n")

    def test_single_value_pool_zero(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("12.5\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path))
        assert code == 0
        assert "E(Shortfall)      12.500000" in out
        assert "Prob(Shortfall)   1.0" in out

    # and an infinite pool, which 1e400 also reads as
    @pytest.mark.parametrize("pool", ["-1", "nan", "inf", "1e400"])
    def test_negative_or_nan_pool_exits_2(self, capsys, tmp_path, pool):
        path = tmp_path / "losses.txt"
        path.write_text("1\n2\n")
        code, out, err = run_cli(capsys, "report", "--samples", str(path), "--premium-pool", pool)
        assert code == 2
        assert out == ""
        assert err == f"error: premium_pool must be finite and nonnegative, got {float(pool)}\n"

    def test_negative_zero_pool_prints_unsigned(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("1\n2\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path), "--premium-pool", "-0")
        assert code == 0
        assert "premium pool      0.000000" in out
        assert "-0" not in out
        assert run_cli(capsys, "report", "--samples", str(path), "--premium-pool", "0")[1] == out

    def test_negative_zero_samples_print_unsigned(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("-0\n-0.0\n0\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path))
        assert code == 0
        assert "-0" not in out
        assert "VAR(.90)          0.000000" in out

    def test_out_of_range_level_exits_2(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("1\n2\n")
        code, _, _ = run_cli(capsys, "report", "--samples", str(path), "--levels", "1.5")
        assert code == 2

    def test_non_utf8_samples_exit_1_with_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n")
        code, out, err = run_cli(capsys, "report", "--samples", str(path))  # returns, no raise
        assert code == 1
        assert out == ""
        assert err == (f"error: samples file {path} is not valid UTF-8: 'utf-8' codec can't "
                       "decode byte 0xff in position 4: invalid start byte\n")

    def test_samples_split_on_any_newline_convention(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_bytes(b"1\r2\r\n3\n4")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path))
        assert code == 0
        assert out.startswith("samples           4\nexpected loss     2.500000\n")

    @pytest.mark.parametrize("levels, message", [
        ("0.9,x", "--levels must be comma-separated numbers, got '0.9,x'"),
        (" , ", "--levels must name at least one confidence level")])
    def test_malformed_levels_exit_2(self, capsys, tmp_path, levels, message):
        path = tmp_path / "losses.txt"
        path.write_text("1\n2\n")
        code, out, err = run_cli(capsys, "report", "--samples", str(path), "--levels", levels)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unparseable_sample_exits_2(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("12.5\nbananas\n")
        code, _, err = run_cli(capsys, "report", "--samples", str(path))
        assert code == 2
        assert "line 2" in err


def _report_text(*rows):
    return "".join(row + "\n" for row in rows)


_COUNTING_HEAD = ("samples           100", "expected loss     50.500000")
_CALIBRATE_TAIL = (
    '    "intensity_multipliers": {',
    '      "baseline": 1.0,',
    '      "guarded": 1.0,',
    '      "elevated": 2.0,',
    '      "high": 10.0,',
    '      "severe": 20.0',
    "    },",
    '    "mitigation_alphas": {',
    '      "baseline": 1.0,',
    '      "guarded": 0.9,',
    '      "elevated": 1.0,',
    '      "high": 1.0,',
    '      "severe": 1.0',
    "    }",
    "  }",
    "}",
)


class TestPinnedText:
    """Exact stdout bytes of ``report`` and ``calibrate``."""

    @pytest.fixture()
    def counting(self, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("# synthetic sample\n" + "\n".join(str(x) for x in range(1, 101)) + "\n")
        return str(path)

    def test_report_counting_sample_with_pool(self, capsys, counting):
        code, out, _ = run_cli(capsys, "report", "--samples", counting, "--premium-pool", "90")
        assert code == 0
        assert out == _report_text(
            *_COUNTING_HEAD,
            "premium pool      90.000000",
            "Prob(Shortfall)   0.11",
            "E(Shortfall)      0.550000",
            "VAR(.90)          90.000000",
            "VAR(.95)          95.000000",
            "VAR(.99)          99.000000",
            "CTE(.90)          95.000000",
            "CTE(.95)          97.500000",
            "CTE(.99)          99.500000",
            "Margin VAR(.90)   0.7821782178217822",
            "Margin VAR(.95)   0.8811881188118812",
            "Margin VAR(.99)   0.9603960396039604",
            "Margin CTE(.90)   0.8811881188118812",
            "Margin CTE(.95)   0.9306930693069307",
            "Margin CTE(.99)   0.9702970297029703",
        )

    def test_report_all_zero_sample_omits_margins(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n0.0\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path))
        assert code == 0
        assert out == _report_text(
            "samples           3",
            "expected loss     0.000000",
            "premium pool      0.000000",
            "Prob(Shortfall)   1.0",
            "E(Shortfall)      0.000000",
            "VAR(.90)          0.000000",
            "VAR(.95)          0.000000",
            "VAR(.99)          0.000000",
            "CTE(.90)          0.000000",
            "CTE(.95)          0.000000",
            "CTE(.99)          0.000000",
        )

    def test_report_unsorted_levels_print_ascending(self, capsys, counting):
        code, out, _ = run_cli(capsys, "report", "--samples", counting,
                               "--levels", "0.99,0.5,0.975")
        assert code == 0
        assert out == _report_text(
            *_COUNTING_HEAD,
            "premium pool      0.000000",
            "Prob(Shortfall)   1.0",
            "E(Shortfall)      50.500000",
            "VAR(.50)          50.000000",
            "VAR(.975)          98.000000",
            "VAR(.99)          99.000000",
            "CTE(.50)          75.000000",
            "CTE(.975)          99.000000",
            "CTE(.99)          99.500000",
            "Margin VAR(.50)   -0.009900990099009901",
            "Margin VAR(.975)   0.9405940594059405",
            "Margin VAR(.99)   0.9603960396039604",
            "Margin CTE(.50)   0.48514851485148514",
            "Margin CTE(.975)   0.9603960396039604",
            "Margin CTE(.99)   0.9702970297029703",
        )

    def test_report_duplicate_levels_print_once(self, capsys, counting):
        code, out, _ = run_cli(capsys, "report", "--samples", counting, "--levels", "0.9,0.9")
        assert code == 0
        assert out == _report_text(
            *_COUNTING_HEAD,
            "premium pool      0.000000",
            "Prob(Shortfall)   1.0",
            "E(Shortfall)      50.500000",
            "VAR(.90)          90.000000",
            "CTE(.90)          95.000000",
            "Margin VAR(.90)   0.7821782178217822",
            "Margin CTE(.90)   0.8811881188118812",
        )

    def test_report_levels_apart_past_the_10th_digit_get_their_own_labels(self, capsys, counting):
        code, out, _ = run_cli(capsys, "report", "--samples", counting,
                               "--levels", "0.9,0.90000000001")
        assert code == 0
        assert out == _report_text(
            *_COUNTING_HEAD,
            "premium pool      0.000000",
            "Prob(Shortfall)   1.0",
            "E(Shortfall)      50.500000",
            "VAR(.90)          90.000000",
            "VAR(.90000000001)          91.000000",
            "CTE(.90)          95.000000",
            "CTE(.90000000001)          95.500000",
            "Margin VAR(.90)   0.7821782178217822",
            "Margin VAR(.90000000001)   0.801980198019802",
            "Margin CTE(.90)   0.8811881188118812",
            "Margin CTE(.90000000001)   0.8910891089108911",
        )

    def test_calibrate_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == 0
        assert out == _report_text(
            "{",
            '  "scenario": {',
            '    "base_proportion": 2e-05,',
            '    "population": 10000,',
            '    "attacks_per_year_base": 10.512,',
            *_CALIBRATE_TAIL,
        )

    def test_calibrate_population(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--population", "20000")
        assert code == 0
        assert out == _report_text(
            "{",
            '  "scenario": {',
            '    "base_proportion": 1e-05,',
            '    "population": 20000,',
            '    "attacks_per_year_base": 5.256,',
            *_CALIBRATE_TAIL,
        )

class TestWorkersResolution:
    def test_clamped_to_tasks_and_cpus(self):
        from cyberrisk.engine import resolve_workers
        from cyberrisk.errors import ConfigError

        assert resolve_workers(10 ** 6, tasks=28, cpus=2) == 2
        assert resolve_workers(10 ** 6, tasks=3, cpus=64) == 3
        assert resolve_workers(1, tasks=100, cpus=8) == 1
        with pytest.raises(ConfigError):
            resolve_workers(0, tasks=4, cpus=4)


def test_numeric_fault_exits_3(capsys, tmp_path):
    mapping = paper_config()
    mapping["repetitions"] = 64
    mapping["portfolio_size"] = 2
    mapping["aggregate_channel"] = {
        "event_rate": 5.0,
        "severity": {"kind": "lognormal", "mu": 800.0, "sigma": 1.0},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(mapping))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 3
    assert "numeric fault" in err


def test_fit_zero_intensity_warns(capsys, tmp_path):
    path = tmp_path / "quiet.csv"
    path.write_text("date,category,event_count,loss_amount\n"
                    "2020-01-01,c,0,10.0\n"
                    "2020-01-02,c,0,20.0\n")
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0
    fragment = json.loads(out)
    assert fragment["intensity_per_day"] == 0.0
    assert any("low-data" in w for w in fragment["warnings"])


def test_console_entry_point_runs():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "cyberrisk.cli", "calibrate"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["scenario"]["base_proportion"] == 0.00002


def test_simulate_never_loads_scipy(small_config, tmp_path):
    """The runtime needs numpy only: importing the package and its CLI and
    running a simulate load no scipy module."""
    import os
    from pathlib import Path
    import subprocess
    import sys

    import cyberrisk

    script = (
        "import sys, cyberrisk, cyberrisk.cli\n"
        f"code = cyberrisk.cli.main(['simulate', '--config', {small_config!r}, '--reps', '200',\n"
        f"                           '--format', 'json', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cyberrisk.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "0 []\n"


def test_importing_the_cli_loads_no_multiprocessing():
    """The process pool is made only for more than one worker, so a
    1-worker run does not pay for loading ``multiprocessing``."""
    done = _python("-c", "import sys, cyberrisk.cli\n"
                         "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_one_worker_simulate_loads_no_ingestion(small_config, tmp_path):
    """Only ``fit`` parses datasets, so a one-worker ``simulate`` loads
    neither ``cyberrisk.ingestion`` nor the process pool."""
    done = _python("-c", "import sys, cyberrisk.cli\n"
                         f"code = cyberrisk.cli.main(['simulate', '--config', {small_config!r},\n"
                         "    '--reps', '200', '--workers', '1', '--format', 'json',\n"
                         f"    '--out', {str(tmp_path / 'r.json')!r}])\n"
                         "print(code, [m for m in ('cyberrisk.ingestion', 'concurrent.futures')\n"
                         "             if m in sys.modules])")
    assert (done.returncode, done.stdout) == (0, "0 []\n"), done.stderr


@pytest.mark.parametrize("argv, what", [(("simulate", "--config"), "config"),
                                        (("fit", "--input"), "input"),
                                        (("report", "--samples"), "samples")],
                         ids=["config", "input", "samples"])
def test_unreadable_input_file_exits_1_naming_it(capsys, tmp_path, argv, what):
    missing = str(tmp_path / "gone")
    code, out, err = run_cli(capsys, *argv, missing)
    assert code == 1
    assert out == ""
    assert err == (f"error: cannot read {what} file {missing}: "
                   f"[Errno 2] No such file or directory: {missing!r}\n")


# {class name: exit code}, the table in the errors.py docstring
_EXIT_TABLE = {m[1]: int(m[2]) for m in re.finditer(r"^ +(\w+) +(\d)$", errors.__doc__, re.M)}


def _documented_exit_code(cls) -> int:
    """The row of the nearest class in ``cls``'s method resolution order."""
    assert _EXIT_TABLE.keys() <= set(vars(errors)) and "CyberRiskError" in _EXIT_TABLE
    return next(_EXIT_TABLE[base.__name__] for base in cls.__mro__ if base.__name__ in _EXIT_TABLE)


_ERROR_CLASSES = sorted((obj for obj in vars(errors).values()
                         if isinstance(obj, type) and issubclass(obj, errors.CyberRiskError)),
                        key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_documented_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setitem(cli._HANDLERS, "calibrate", fail)
    code, out, err = run_cli(capsys, "calibrate")
    assert code == _documented_exit_code(cls)
    assert out == ""
    assert err == ("error: numeric fault: boom\n" if cls is errors.NumericFault
                   else "error: boom\n")


def test_os_error_exits_1(capsys, monkeypatch):
    def fail(args):
        raise PermissionError("denied")

    monkeypatch.setitem(cli._HANDLERS, "calibrate", fail)
    assert run_cli(capsys, "calibrate") == (1, "", "error: denied\n")


# Arbitrary bytes, and lines the parsers look for, so that some examples
# get past decoding into the row and value checks.
_INPUT_LINES = st.lists(st.sampled_from([
    b"2020-01-01,c,1,500", b"2020-01-02,c,2,", b"2020-01-03,c,0,7.5,x", b"01/02/2020,c,1,",
    b'{"date": "2020-01-03", "event_count": 3, "loss_amount": 2.5}', b'{"date": "x"}', b"[1]",
    b"0", b"12.5", b"1e308", b"-1", b"inf", b"abc", b"# note", b"", b" \r", b"{",
    b'{"version": 1, "device": {"daily_loss": 1, "discount_rate": 0, "theta": 0.001}}',
]), max_size=12).map(b"\n".join)
_INPUT_BYTES = st.one_of(
    st.binary(max_size=300),
    st.tuples(st.sampled_from([b"", b"date,category,event_count,loss_amount\n"]),
              _INPUT_LINES).map(b"".join),
)


@pytest.mark.parametrize("argv", [("report", "--samples"),
                                  ("fit", "--format", "csv", "--input"),
                                  ("fit", "--format", "jsonl", "--input"),
                                  ("simulate", "--reps", "10", "--config")],
                         ids=["samples", "csv", "jsonl", "config"])
@settings(derandomize=True, deadline=None, database=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_INPUT_BYTES)
def test_arbitrary_input_bytes_end_in_a_documented_exit_code(capsys, tmp_path, argv, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code in {0, *_EXIT_TABLE.values()}
    assert code == 0 or err.splitlines()[-1].startswith("error: ")
