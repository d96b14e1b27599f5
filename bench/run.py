#!/usr/bin/env python3
"""Benchmark of the cyberrisk simulate path.

Drives the documented library path ``config.parse_config`` ->
``engine.run_simulation`` -> ``report.render_json`` on the workloads in
``workloads.json``. Every run's report bytes are checked against the
SHA-256 pin in ``pins.json`` (for an unpinned seed: against the first run
of the invocation) and against structural invariants of the report.

    python3 bench/run.py --workload paper [--seed 42] [--seconds 15] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload, one table
    python3 bench/run.py --self-check        # tiny-R check of the harness
    python3 bench/run.py --write-pins        # re-record pins (layout bumps only)

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; README.md defines them. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
from importlib.metadata import version
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed, to_reference
from tracing import Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 42
PIN_SEEDS = range(64)       # full-size pins; tiny pins exist for DEFAULT_SEED only
LEVELS = ("guarded", "elevated", "high", "severe")
MIN_RUNS = 3                # timed runs per invocation, however short --seconds is
SETUP_PROBES = 5            # fresh-interpreter set-up probes per invocation
EXTRA_LEVEL_REPS = 100_000  # repetitions of a traced level the workload itself does not run


# ---------------------------------------------------------------------------
# workloads, pins and report checks
# ---------------------------------------------------------------------------

def load_workloads() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def merged(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def workload_doc(table: dict, name: str, seed: int, tiny: bool) -> dict:
    entry = table["workloads"][name]
    doc = merged(table["base"], entry["overrides"])
    if tiny:
        doc = merged(doc, entry["tiny"])
    doc["seed"] = seed
    return doc


def load_pin(name: str, seed: int, tiny: bool) -> str | None:
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    return pins["tiny" if tiny else "full"].get(name, {}).get(str(seed))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_problems(text: str, doc: dict) -> list:
    """Invariants every correct render_json report of ``doc`` satisfies."""
    try:
        report = json.loads(text)
        if json.dumps(report, indent=2) + "\n" != text:
            return ["JSON does not re-dump to the same bytes"]
        problems = []
        provenance = report["provenance"]
        for key in ("seed", "repetitions", "portfolio_size"):
            if provenance[key] != doc[key]:
                problems.append(f"provenance {key} is {provenance[key]!r}, not {doc[key]!r}")
        names = [item["level"] for item in report["levels"]]
        if names != doc["levels"]:
            problems.append(f"levels {names} are not {doc['levels']}")
        rhos = [repr(float(rho)) for rho in doc["confidence_levels"]]
        for item in report["levels"]:
            var = [float(item["var"][rho]) for rho in rhos]
            cte = [float(item["cte"][rho]) for rho in rhos]
            mean = float(item["expected_loss"])
            if var != sorted(var):
                problems.append(f"{item['level']}: VaR falls as rho rises")
            if any(c < v for c, v in zip(cte, var)) or not 0.0 <= mean <= cte[0]:
                problems.append(f"{item['level']}: CTE below VaR or below the mean")
            if not 0.0 <= item["shortfall_probability"] <= 1.0:
                problems.append(f"{item['level']}: shortfall probability outside [0, 1]")
            if float(item["expected_shortfall"]) < 0 or item["cap_events"] < 0:
                problems.append(f"{item['level']}: negative shortfall or cap count")
        return problems
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


class Checker:
    """Counts attempted and failed runs of one invocation.

    A run fails when it raises, when its report bytes differ from the
    expected digest (the pin, or else the invocation's first report), or
    when the report breaks an invariant."""

    def __init__(self, doc: dict, pin: str | None):
        self.doc = doc
        self.expected = pin
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def count(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            note = f"{label}: {'; '.join(problems)}"
            self.notes.append(note)
            print(f"FAIL {note}", file=sys.stderr)

    def check_full(self, label: str, text: str):
        self.check_digest(label, sha256(text), report_problems(text, self.doc))

    def check_digest(self, label: str, digest: str, problems=()):
        problems = list(problems)
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"report sha256 {digest[:16]}... is not the expected "
                            f"{self.expected[:16]}...")
        self.count(label, problems)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_once(spec, workers: int, tracer: Tracer):
    """One run_simulation + render_json inside a ``bench.run`` span."""
    from cyberrisk.engine import run_simulation
    from cyberrisk.report import render_json

    def simulate():
        report = run_simulation(spec, workers=workers)
        return report, render_json(report)

    (report, text), seconds = tracer.timed("bench.run", simulate)
    return seconds, report, text


def attempt(checker: Checker, label: str, spec, workers: int, tracer: Tracer):
    """run_once, counting a raised exception as a failed run (returns None)."""
    try:
        return run_once(spec, workers, tracer)
    except Exception as exc:  # every failure of the program is counted, not fatal
        traceback.print_exc()
        checker.count(label, [f"raised {exc!r}"])
        return None


def timed_runs(checker: Checker, label: str, spec, workers: int, seconds: float,
               min_runs: int, tracer: Tracer, host: HostSpeed | None = None):
    """Checked full runs until ``seconds`` have passed (at least
    ``min_runs``). Returns (run seconds, the same in reference seconds when
    ``host`` calibrates around each run, last result)."""
    times, scaled, last, runs = [], [], None, 0
    after = host.calibrate() if host else None
    deadline = time.perf_counter() + seconds
    while runs < min_runs or time.perf_counter() < deadline:
        tracer.run = f"{label} {runs}"
        user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        result = attempt(checker, tracer.run, spec, workers, tracer)
        user = resource.getrusage(resource.RUSAGE_SELF).ru_utime - user
        runs += 1
        before, after = after, host.calibrate() if host else None
        if result is not None:
            checker.check_full(tracer.run, result[2])
            times.append(result[0])
            if host:
                scaled.append(to_reference(result[0], (before + after) / 2, user))
            last = result
    return times, scaled, last


def warm_up(checker: Checker, spec, tracer: Tracer):
    """One unmeasured run on a single worker: it loads lazy state, and for a
    multi-worker workload it makes every timed run also check that the
    bytes do not depend on the worker count."""
    tracer.run = "warm-up"
    result = attempt(checker, "warm-up (1 worker)", spec, 1, tracer)
    if result is not None:
        checker.check_full("warm-up (1 worker)", result[2])
    return result


def probe(doc: dict, run_workers: int | None = None) -> dict:
    """One fresh interpreter running probe.py on ``doc``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # Probes import cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, str(BENCH_DIR / "probe.py")]
    if run_workers is not None:
        command += ["--run", str(run_workers)]
    done = subprocess.run(command, input=json.dumps(doc), capture_output=True, text=True,
                          env=env, timeout=170, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(record["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"probe imported {record['module']}, not the checkout's {SRC}")
    return record


def setup_probes(doc: dict, probes: int, host: HostSpeed | None = None) -> list:
    """Import + parse seconds of ``probes`` fresh interpreters (in reference
    seconds when ``host`` calibrates before each), after one discarded
    probe that writes bytecode and warms the file cache."""
    records = []
    for _ in range(probes + 1):
        kernel = host.calibrate() if host else REFERENCE_S
        record = probe(doc)
        records.append({"import_s": to_reference(record["import_s"], kernel),
                        "parse_s": to_reference(record["parse_s"], kernel)})
    return records[1:]


def measure(name: str, entry: dict, doc: dict, args, checker: Checker, tracer: Tracer) -> dict:
    """End-to-end metrics, tracing off."""
    from cyberrisk.config import parse_config

    spec = parse_config(doc)
    workers = entry["workers"]
    host = HostSpeed()
    warm_up(checker, spec, tracer)
    times, scaled, _ = timed_runs(checker, "run", spec, workers, args.seconds, MIN_RUNS, tracer, host)
    # Peak memory of one run in a fresh process, so the harness's own
    # history (warm-up, earlier runs, freed heap) cannot move it.
    memory = probe(doc, workers)
    checker.check_digest("memory probe", memory["sha256"])
    rss_kib = memory["maxrss_kib"] + (memory["children_maxrss_kib"] if workers > 1 else 0)
    setup = [p["import_s"] + p["parse_s"]
             for p in setup_probes(doc, 1 if args.tiny else SETUP_PROBES, host)]
    run_s = statistics.median(scaled)
    print(f"runs: {len(times)}; wall s: median {statistics.median(times):.4f}, "
          f"min {min(times):.4f}, max {max(times):.4f}; reference s: "
          f"{' '.join(f'{t:.4f}' for t in scaled)}")
    print(f"calibration kernel ms (reference {REFERENCE_S * 1e3:.3f}): "
          f"{' '.join(f'{k * 1e3:.3f}' for k in host.kernel_s)}; set-up probes, reference s: "
          f"{' '.join(f'{s:.4f}' for s in setup)}")
    return {
        "run_s": run_s,
        "device_years_per_s": doc["repetitions"] * doc["portfolio_size"] * len(doc["levels"]) / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def trace(name: str, entry: dict, doc: dict, args, checker: Checker, tracer: Tracer) -> dict:
    """Per-layer metrics from spans around calls into each module."""
    import cyberrisk.engine as engine
    import cyberrisk.report as report_module
    import cyberrisk.streams as streams
    from cyberrisk.config import parse_config

    import layers

    spec = parse_config(doc)
    workers = entry["workers"]
    share = args.seconds / 3
    values = {}
    warm_up(checker, spec, tracer)
    untraced, _, _ = timed_runs(checker, "untraced", spec, workers, share, 2, tracer)

    # The traced run: spans around the engine's calls into the other layers.
    captured = []
    summarize = engine.summarize_level

    def keep_sample(samples, premium_pool, levels):
        captured[:] = [(samples, premium_pool, levels)]
        return summarize(samples, premium_pool, levels)

    points = [
        (engine, "run_simulation", "engine.run_simulation"),
        (engine, "summarize_level", "engine.summarize_level"),
        (engine, "expected_present_loss", "loss_model.expected_present_loss"),
        (engine, "sample_poisson_batch", "distributions.sample_poisson_batch"),
        (engine, "sample_severity_batch", "distributions.sample_severity_batch"),
        (engine, "chunk_words", "streams.chunk_words"),
        (engine, "derive_stream", "streams.derive_stream"),
        (streams.RandomStream, "raw_words", "streams.raw_words"),
        (report_module, "render_json", "report.render_json"),
    ]
    engine.summarize_level = keep_sample
    try:
        with patched(tracer, points):
            traced, _, last = timed_runs(checker, "traced", spec, workers, share, 2, tracer)
    finally:
        engine.summarize_level = summarize
    values["trace.run_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(untraced)
    values["loss_model.expected_present_loss_s"] = tracer.median("loss_model.expected_present_loss")

    # One level per run; level streams are keyed by level code, so a level's
    # payload must equal its column in the full report.
    full = {item["level"]: item for item in json.loads(last[2])["levels"]}
    for level in LEVELS:
        level_doc = dict(doc, levels=[level])
        if level not in full:
            level_doc["repetitions"] = min(doc["repetitions"], EXTRA_LEVEL_REPS)
        tracer.run = label = f"level.{level}"
        result = attempt(checker, label, parse_config(level_doc), workers, tracer)
        if result is None:
            continue
        seconds, report, text = result
        problems = report_problems(text, level_doc)
        if level in full and json.loads(text)["levels"][0] != full[level]:
            problems.append("level payload differs from the full run's")
        checker.count(label, problems)
        values[f"engine.level_s.{level}"] = seconds
        values[f"engine.reps_per_s.{level}"] = level_doc["repetitions"] / seconds
        values[f"engine.cap_events.{level}"] = report.levels[0].cap_events

    other = 1 if workers > 1 else 2
    other_times, _, _ = timed_runs(checker, f"workers.{other}", spec, other, 0.0, 2, tracer)
    by_workers = {workers: statistics.median(untraced), other: statistics.median(other_times)}
    values["engine.speedup_2w"] = by_workers[1] / by_workers[2]

    values.update(layers.streams_layer(tracer, args.seed))
    values.update(layers.distributions_layer(tracer, args.seed))
    samples, premium_pool, levels = captured[0]
    values.update(layers.risk_measures_layer(tracer, args.seed, samples, premium_pool, levels))
    values.update(layers.report_layer(tracer, last[1]))

    probes = setup_probes(doc, 1 if args.tiny else SETUP_PROBES)
    values["config.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["config.parse_s"] = statistics.median(p["parse_s"] for p in probes)

    tracer.write(OUT_DIR / f"spans-{name}-seed{args.seed}.json")
    print(f"{'span':44s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}")
    for span_name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span_name:44s} {row['count']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    return values


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    """HEAD's commit, read from the checkout's own .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, table: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": git_revision(),
        "seed": seed,
        "workers": {name: entry["workers"] for name, entry in table["workloads"].items()},
    }


def metric_units(trace_mode: int) -> dict:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in catalogue["per_layer" if trace_mode else "end_to_end"]}


def result_line(values: dict, checker: Checker, trace_mode: int) -> dict:
    units = metric_units(trace_mode)
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
                           f"unlisted {sorted(set(values) - set(units))}")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"nonfinite metrics: {bad}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def print_table(rows):
    """rows: (workload, metric, value, unit)."""
    for workload, metric, value, unit in rows:
        print(f"{workload:10s} {metric:44s} {value:16.6g} {unit}")


def run_workload(args) -> int:
    table = load_workloads()
    entry = table["workloads"][args.workload]
    doc = workload_doc(table, args.workload, args.seed, args.tiny)
    pin = load_pin(args.workload, args.seed, args.tiny)
    if args.corrupt_pin and pin is not None:
        pin = sha256("corrupted " + pin)
    env = environment(args.seed, table)
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: workers {entry['workers']}, pin "
          f"{'none (determinism check)' if pin is None else pin[:16] + '...'}")
    checker = Checker(doc, pin)
    tracer = Tracer()
    collect = trace if args.trace else measure
    values = collect(args.workload, entry, doc, args, checker, tracer)
    result = result_line(values, checker, args.trace)
    print_table([(args.workload, n, m["value"], m["unit"]) for n, m in result["metrics"].items()])
    print_table([(args.workload, "fail_frac", checker.failed / checker.attempted, "ratio")])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "workload": args.workload, "tiny": args.tiny, "trace": args.trace,
              "seconds": args.seconds, "config": doc, "notes": checker.notes,
              "runs": [[s[4], (s[2] - s[1]) * 1e-9] for s in tracer.spans if s[0] == "bench.run"],
              **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def child(args, workload: str, *extra: str) -> dict:
    """Run this benchmark on one workload in a fresh process; return its result line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write("".join(f"[{workload}] {line}" for line in done.stderr.splitlines(keepends=True)))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command[1:])} exited {done.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    names = list(load_workloads()["workloads"])
    results = {name: child(args, name, *(["--tiny"] if args.tiny else [])) for name in names}
    rows = []
    for name, result in results.items():
        rows += [(name, n, m["value"], m["unit"]) for n, m in result["metrics"].items()]
        rows.append((name, "fail_frac", result["failed"] / result["attempted"], "ratio"))
    print_table(rows)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{n}": m for name, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def self_check(args) -> int:
    """Tiny-R runs of every workload in both modes: each must pass its pin
    and emit every BENCHMARK.json metric with its unit. A corrupted pin
    must fail every run, and an unpinned seed must still pass."""
    failures = []

    def expect(label, result, trace_mode, corrupt=False):
        units = metric_units(trace_mode)
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        problems = []
        if got != units:
            problems.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
        if result["attempted"] < 1:
            problems.append("no runs attempted")
        if corrupt and (result["correct"] or result["failed"] != result["attempted"]):
            problems.append(f"corrupted pin not counted: {result['failed']}/{result['attempted']} failed")
        if not corrupt and (not result["correct"] or result["failed"]):
            problems.append(f"{result['failed']}/{result['attempted']} runs failed")
        print(f"{'PASS' if not problems else 'FAIL'} {label} "
              f"(attempted {result['attempted']}, failed {result['failed']}) {'; '.join(problems)}")
        failures.extend(problems)

    args.seconds = 0.0
    for trace_mode in (0, 1):
        args.trace = trace_mode
        for name in load_workloads()["workloads"]:
            args.seed = DEFAULT_SEED
            expect(f"{name} trace {trace_mode}", child(args, name, "--tiny"), trace_mode)
    args.trace = 0
    expect("paper, corrupted pin", child(args, "paper", "--tiny", "--corrupt-pin"), 0, corrupt=True)
    args.seed = DEFAULT_SEED + 1
    expect("paper, unpinned seed", child(args, "paper", "--tiny"), 0)
    print("self-check " + ("passed" if not failures else f"FAILED ({len(failures)} problems)"))
    return 0 if not failures else 1


def write_pins() -> int:
    """Record render_json SHA-256 pins for every workload. Pins change only
    with a STREAM_FORMAT_VERSION or DRAW_LAYOUT_VERSION bump."""
    from cyberrisk.config import parse_config
    from cyberrisk.engine import run_simulation
    from cyberrisk.report import render_json

    table = load_workloads()
    pins = {"full": {}, "tiny": {}}
    jobs = [(name, seed, False) for name in table["workloads"] for seed in PIN_SEEDS]
    jobs += [(name, DEFAULT_SEED, True) for name in table["workloads"]]
    for name, seed, tiny in jobs:
        spec = parse_config(workload_doc(table, name, seed, tiny))
        digest = sha256(render_json(run_simulation(spec, workers=1)))
        pins["tiny" if tiny else "full"].setdefault(name, {})[str(seed)] = digest
        print(f"{'tiny' if tiny else 'full'} {name} seed {seed}: {digest}", flush=True)
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*load_workloads()["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per invocation (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny-R inputs (self-check)")
    parser.add_argument("--corrupt-pin", action="store_true",
                        help="replace the pin with a wrong digest (self-check)")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.write_pins):
        parser.error("one of --workload, --self-check or --write-pins is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyberrisk" / "__init__.py").is_file():
        print(f"bench: no cyberrisk sources at {SRC}; run from a cyberrisk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_pins:
        return write_pins()
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
