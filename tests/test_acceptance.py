"""Acceptance suite.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``) and enforces its stated runtime
budget. Budgets assume a laptop; this suite measures single-process wall
time, which is the pessimistic case.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np

import cyberrisk.engine as engine
from cyberrisk.config import paper_config, parse_config
from cyberrisk.distributions import (
    CountDistributionParams,
    DiscreteTable,
    Lognormal,
    Pareto,
    compound_count_pmf_table,
    sample_poisson_batch,
    sample_severity_batch,
)
from cyberrisk.engine import _simulate_chunk, run_simulation
from cyberrisk.ingestion import estimate_intensity, fit_lognormal, fit_pareto_tail
from cyberrisk.loss_model import AggregateLossParams
from cyberrisk.report import render_json
from cyberrisk.risk_measures import (
    EmpiricalDistribution,
    conditional_tail_expectation,
    expected_shortfall,
    risk_margin_ratio,
    shortfall_probability,
    value_at_risk,
)
from cyberrisk.scenario import RiskLevel, baseline_proportion
from cyberrisk.streams import derive_stream

from oracles import (
    compound_count_pmf_bruteforce,
    expected_shortfall_bruteforce,
    nearest_rank_var_bruteforce,
    panjer_compound_poisson_cdf,
    scatter_chunk,
    shortfall_prob_bruteforce,
    tail_mean_bruteforce,
)


def _verdict(number: int, description: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed <= budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_compound_count_pmf():
    started = time.perf_counter()
    ok = True
    for theta in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            params = CountDistributionParams(theta=theta, lambda_cluster=lam)
            oracle = compound_count_pmf_bruteforce(20, theta, lam)
            ok &= all(
                abs(compound_count_pmf_table(n, params)[n] - oracle[n]) <= 1e-10
                for n in range(21))
            n_max = int(params.mean + 12 * math.sqrt(params.variance)) + 24
            ok &= abs(compound_count_pmf_table(n_max, params).sum() - 1.0) <= 1e-9
    _verdict(1, "compound-count pmf matches brute-force convolution and normalizes",
             ok, time.perf_counter() - started, 1.0)


def test_criterion_2_aggregate_loss_panjer():
    """The engine's own channel (``_simulate_chunk``) against Panjer, with no
    device losses; rate 45 draws its counts in PTRS regions."""
    started = time.perf_counter()
    severity = DiscreteTable(values=(1.0, 2.0, 5.0, 10.0), probabilities=(0.4, 0.3, 0.2, 0.1))
    spec = parse_config(paper_config())
    spec = replace(spec, device=replace(spec.device, daily_loss=0.0), repetitions=100_000)
    grid = np.arange(0.0, 400.0, 1.0)  # past rate 45: mean 144, sd 27
    ok = True
    for rate in (1.0, 2.0, 3.0, 5.0, 45.0):
        channel = AggregateLossParams(event_rate=rate, severity=severity)
        draws, _ = scatter_chunk(_simulate_chunk(replace(spec, aggregate_channel=channel,
                                                         levels=(RiskLevel.GUARDED,)),
                                                 0, spec.repetitions)[0],
                                 spec.repetitions)
        oracle = panjer_compound_poisson_cdf(rate, severity.values, severity.probabilities, grid)
        empirical = np.searchsorted(np.sort(draws), grid, side="right") / len(draws)
        ok &= float(np.max(np.abs(empirical - oracle))) <= 0.01
    _verdict(2, "Monte Carlo aggregate-loss CDF matches the Panjer recursion",
             ok, time.perf_counter() - started, 10.0)


def test_criterion_3_risk_measure_exactness():
    started = time.perf_counter()
    dist = EmpiricalDistribution(np.arange(1.0, 101.0))
    ok = value_at_risk(dist, 0.90) == 90.0
    ok &= conditional_tail_expectation(dist, 0.90) == 95.0
    ok &= shortfall_probability(dist, 90.0) == 0.11
    ok &= expected_shortfall(dist, 90.0) == 0.55
    ok &= risk_margin_ratio(conditional_tail_expectation(dist, 0.90), 50.5) == (95.0 - 50.5) / 50.5

    rng = np.random.default_rng(31337)
    rho_grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    for case in range(1000):
        n = int(rng.integers(1, 100))
        values = (rng.integers(0, 40, size=n).astype(float) if case % 2
                  else rng.exponential(50.0, size=n))
        sample = EmpiricalDistribution(values)
        rhos = sorted(rng.choice(rho_grid, size=2, replace=False))
        vars_ = [value_at_risk(sample, r) for r in rhos]
        ctes = [conditional_tail_expectation(sample, r) for r in rhos]
        ok &= vars_[0] <= vars_[1] and ctes[0] <= ctes[1] + 1e-12
        ok &= all(c >= v for c, v in zip(ctes, vars_))
        ok &= vars_[0] == nearest_rank_var_bruteforce(sample.sorted_losses, rhos[0])
        ok &= abs(ctes[0] - tail_mean_bruteforce(values, vars_[0])) <= 1e-9 * max(1.0, ctes[0])
        pool = float(rng.uniform(0, max(values.max(), 1.0)))
        ok &= shortfall_probability(sample, pool) == shortfall_prob_bruteforce(values, pool)
        ok &= abs(expected_shortfall(sample, pool)
                  - expected_shortfall_bruteforce(values, pool)) <= 1e-9
        # translation and scale equivariance (exact: integer shift, pow-2 scale)
        shift, scale = float(rng.integers(1, 100)), 2.0
        shifted = EmpiricalDistribution(values + shift)
        scaled = EmpiricalDistribution(values * scale)
        ok &= value_at_risk(shifted, rhos[0]) == vars_[0] + shift
        ok &= value_at_risk(scaled, rhos[0]) == scale * vars_[0]
        ok &= shortfall_probability(shifted, pool + shift) == shortfall_probability(sample, pool)
        ok &= abs(expected_shortfall(scaled, scale * pool)
                  - scale * expected_shortfall(sample, pool)) <= 1e-9
    _verdict(3, "risk measures exact on the counting oracle plus 1000 property cases",
             ok, time.perf_counter() - started, 5.0)


def test_criterion_4_calibration_reproduction():
    started = time.perf_counter()
    p = baseline_proportion(525600, 0.5, 5.0, 10000)
    ok = (p == 0.00002)
    spec = parse_config(paper_config())
    mults = spec.scenario.intensity_multipliers
    ok &= mults[RiskLevel.HIGH] == 10.0 and mults[RiskLevel.SEVERE] == 20.0
    base = spec.device.counts.theta
    from cyberrisk.scenario import level_parameters

    ok &= level_parameters(spec.scenario, RiskLevel.HIGH, spec.device).counts.theta == 10.0 * base
    ok &= level_parameters(spec.scenario, RiskLevel.SEVERE, spec.device).counts.theta == 20.0 * base
    _verdict(4, "baseline proportion is exactly 0.00002 with x10/x20 level multipliers",
             ok, time.perf_counter() - started, 1.0)


def test_criterion_5_table_structure_across_seeds():
    started = time.perf_counter()
    spec = parse_config(paper_config())
    good = 0
    seeds = range(100, 120)
    for seed in seeds:
        report = run_simulation(replace(spec, seed=seed), workers=1)
        probs = [it.metrics.shortfall_probability for it in report.levels]
        ctes = [it.metrics.cte[0.99] for it in report.levels]
        seed_ok = all(a < b for a, b in zip(probs, probs[1:]))
        seed_ok &= all(a < b for a, b in zip(ctes, ctes[1:]))
        for it in report.levels:
            m = it.metrics
            seed_ok &= m.var[0.99] >= m.var[0.95] >= m.var[0.90]
            seed_ok &= all(m.cte[r] >= m.var[r] for r in (0.90, 0.95, 0.99))
        seed_ok &= probs[0] > 0 and probs[-1] >= 5.0 * probs[0]
        good += bool(seed_ok)
    ok = good >= 19
    _verdict(5, f"risk metrics grow Guarded->Severe in {good}/20 seeds (need >= 19)",
             ok, time.perf_counter() - started, 180.0)


def test_criterion_6_determinism_across_workers(monkeypatch):
    # the paper's 66,000 expected drawn rows cut into 4 tasks, so that one
    # worker on 1 CPU scans counts on one thread, one worker on 2 CPUs with
    # no helper threshold on two, and 2 and 8 workers run a pool of 2 and 4
    started = time.perf_counter()
    spec = parse_config(paper_config())
    monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 20_000)
    monkeypatch.setattr(engine, "_HELPER_WORDS", 0)
    ok = engine._task_count(spec) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    reference = render_json(run_simulation(spec, workers=1))
    ok &= bool(reference)
    for cpus, workers in [(2, 1), (2, 2), (8, 8)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ok &= render_json(run_simulation(spec, workers=workers)) == reference
    ok &= render_json(run_simulation(spec, workers=1)) == reference  # consecutive rerun
    document = json.loads(reference)
    ok &= json.dumps(document, indent=2) + "\n" == reference  # byte-stable round trip
    _verdict(6, "bitwise-identical JSON across 1/2/8 workers, 4 tasks, and reruns",
             ok, time.perf_counter() - started, 120.0)


def test_criterion_7_generate_then_recover():
    started = time.perf_counter()
    counts = sample_poisson_batch(derive_stream(7001, 0), 3.0, 1000)
    lambda_hat = counts.sum() / 1000.0  # 1000 one-day buckets
    ok = abs(lambda_hat - 3.0) <= 0.07 * 3.0

    ln_draws = sample_severity_batch(derive_stream(7001, 1), Lognormal(1.5, 0.7), 100_000)
    mu, sigma = fit_lognormal(ln_draws)
    ok &= abs(mu - 1.5) <= 0.02 and abs(sigma - 0.7) <= 0.02

    pareto_draws = sample_severity_batch(derive_stream(7001, 2), Pareto(1.0, 1.5), 100_000)
    alpha, _ = fit_pareto_tail(pareto_draws, x_min=1.0)
    ok &= abs(alpha - 1.5) <= 0.02
    _verdict(7, "intensity/lognormal/Pareto parameters recovered within tolerance",
             ok, time.perf_counter() - started, 30.0)


def test_criterion_8_performance():
    spec = parse_config(paper_config())
    started = time.perf_counter()
    report = run_simulation(spec)  # default workers = machine parallelism
    elapsed = time.perf_counter() - started
    ok = len(report.levels) == 4 and report.spec.repetitions == 100_000
    _verdict(8, "paper-default run (R=100000, kappa=1000, 4 levels) within budget",
             ok, elapsed, 60.0)


def _estimate_intensity_consistency():
    """Criterion 7's intensity check via the ingestion API (secondary route)."""
    import datetime as dt

    from cyberrisk.ingestion import ThreatRecord

    counts = sample_poisson_batch(derive_stream(7001, 3), 3.0, 1000)
    records = [
        ThreatRecord(dt.date(2019, 1, 1) + dt.timedelta(days=i), "syn", int(c), None)
        for i, c in enumerate(counts)
    ]
    window = (dt.date(2019, 1, 1), dt.date(2019, 1, 1) + dt.timedelta(days=999))
    return estimate_intensity(records, window)


def test_criterion_7_intensity_via_ingestion_api():
    value = _estimate_intensity_consistency()
    assert abs(value - 3.0) <= 0.21
