"""What the benchmark under bench/ needs from the package.

bench/run.py traces a run by replacing module attributes through
``vars(owner)[name]``, and bench/layers.py imports public functions by
name. Both read the names from the bench sources, so a rename in the
package fails here rather than in a benchmark run. Likewise a change of
report bytes fails here against bench/pins.json, which a benchmark run
would otherwise count as incorrect output.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
import sys

import cyberrisk.engine as engine
from cyberrisk.config import parse_config
from cyberrisk.distributions import CountDistributionParams
from cyberrisk.loss_model import DeviceParameters
from cyberrisk.report import render_json
from cyberrisk.scenario import RiskLevel
from cyberrisk.streams import RandomStream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _patch_points():
    """(owner expression, attribute) of every traced call in bench/run.py."""
    tree = ast.parse((BENCH / "run.py").read_text())
    points = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.elts[1:])):
            points.append((ast.unparse(node.elts[0]), node.elts[1].value))
    return points


def test_every_patched_engine_name_is_a_module_attribute():
    points = _patch_points()
    engine_names = [attr for owner, attr in points if owner == "engine"]
    assert {"run_simulation", "summarize_level", "expected_present_loss",
            "sample_poisson_batch", "sample_severity_batch", "chunk_words",
            "derive_stream"} <= set(engine_names)
    for name in engine_names:
        assert name in vars(engine), name
    assert ("streams.RandomStream", "raw_words") in points
    assert "raw_words" in vars(RandomStream)


def test_bench_imports_resolve():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyberrisk"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_each_run_reaches_expected_present_loss_once(monkeypatch):
    # bench/run.py --trace 1 times loss_model.expected_present_loss from the
    # calls that pass through this module attribute, one span per run
    calls = []
    price = vars(engine)["expected_present_loss"]

    def spy(device):
        calls.append(device)
        return price(device)

    monkeypatch.setattr(engine, "expected_present_loss", spy)
    device = DeviceParameters(1000.0, 0.03, CountDistributionParams(2e-5, 182.0))
    spec = engine.SimulationSpec(device=device, portfolio_size=10, repetitions=50,
                                 levels=(RiskLevel.GUARDED,))
    for _ in range(2):
        engine.run_simulation(spec, workers=1)
        assert len(calls) == 1
        calls.clear()


def _bench_run_module(monkeypatch):
    """bench/run.py, imported without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_42_reports_match_bench_pins(monkeypatch):
    # every workload at seed 42, full size and tiny, its config built and its
    # pin read by bench/run.py's own functions, rendered on one worker as the
    # pins were
    run = _bench_run_module(monkeypatch)
    table = run.load_workloads()
    assert set(table["workloads"]) == {"paper", "channel", "dense"}
    for tiny in (False, True):
        for name in table["workloads"]:
            spec = parse_config(run.workload_doc(table, name, 42, tiny))
            digest = run.sha256(render_json(engine.run_simulation(spec, workers=1)))
            assert digest == run.load_pin(name, 42, tiny), (name, tiny)
