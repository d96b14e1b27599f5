"""What the benchmark under bench/ needs from the package.

bench/run.py traces a run by replacing module attributes through
``vars(owner)[name]``, and bench/layers.py imports public functions by
name. Both read the names from the bench sources, so a rename in the
package fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import cyberrisk.engine as engine
from cyberrisk.distributions import CountDistributionParams
from cyberrisk.loss_model import DeviceParameters
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
