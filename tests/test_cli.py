"""CLI contract: flags, formats, exit codes, deterministic bytes."""

import json

import pytest

from cyberrisk.cli import main
from cyberrisk.config import CONFIG_VERSION, paper_config


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

    def test_workers_flag_does_not_change_bytes(self, capsys, small_config):
        _, out1, _ = run_cli(capsys, "simulate", "--config", small_config,
                             "--format", "json", "--workers", "1")
        _, out2, _ = run_cli(capsys, "simulate", "--config", small_config,
                             "--format", "json", "--workers", "2")
        assert out1 == out2

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

    def test_single_value_pool_zero(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("12.5\n")
        code, out, _ = run_cli(capsys, "report", "--samples", str(path))
        assert code == 0
        assert "E(Shortfall)      12.500000" in out
        assert "Prob(Shortfall)   1.0" in out

    def test_out_of_range_level_exits_2(self, capsys, tmp_path):
        path = tmp_path / "losses.txt"
        path.write_text("1\n2\n")
        code, _, _ = run_cli(capsys, "report", "--samples", str(path), "--levels", "1.5")
        assert code == 2

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
    def test_env_fallback(self, monkeypatch):
        from cyberrisk.engine import resolve_workers

        monkeypatch.setenv("CYBERRISK_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5  # explicit beats env
        monkeypatch.setenv("CYBERRISK_WORKERS", "bogus")
        from cyberrisk.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_workers(None)

    def test_clamped_to_tasks_and_cpus(self, monkeypatch):
        from cyberrisk.engine import resolve_workers
        from cyberrisk.errors import ConfigError

        monkeypatch.delenv("CYBERRISK_WORKERS", raising=False)
        assert resolve_workers(10 ** 6, tasks=28, cpus=2) == 2
        assert resolve_workers(10 ** 6, tasks=3, cpus=64) == 3
        assert resolve_workers(1, tasks=100, cpus=8) == 1
        assert resolve_workers(7) == 7
        monkeypatch.setenv("CYBERRISK_WORKERS", str(10 ** 6))
        assert resolve_workers(None, tasks=4, cpus=4) == 4
        with pytest.raises(ConfigError):
            resolve_workers(0, tasks=4, cpus=4)

    def test_env_does_not_change_bytes(self, capsys, small_config, monkeypatch):
        _, out1, _ = run_cli(capsys, "simulate", "--config", small_config, "--format", "json")
        monkeypatch.setenv("CYBERRISK_WORKERS", "2")
        _, out2, _ = run_cli(capsys, "simulate", "--config", small_config, "--format", "json")
        assert out1 == out2


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
