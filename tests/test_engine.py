"""Engine orchestration: determinism, reduction, and model equivalences."""

from collections import Counter
import concurrent.futures
from dataclasses import replace
import hashlib
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import threading
import tracemalloc
import weakref

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import cyberrisk.engine as engine
import cyberrisk.streams as streams
from cyberrisk.config import paper_config, parse_config
from cyberrisk.distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    poisson_regions,
)
from cyberrisk.engine import (
    SimulationSpec,
    _batches,
    _multi_cluster_days,
    _simulate_chunk,
    run_simulation,
    summarize_level,
)
from cyberrisk.errors import ConfigError, NumericFault
from cyberrisk.loss_model import AggregateLossParams, DeviceParameters
from cyberrisk.report import render_json
from cyberrisk.risk_measures import EmpiricalDistribution
from cyberrisk.scenario import RiskLevel, ScenarioConfig
from cyberrisk.streams import RandomStream, pack_stream_id

from oracles import (
    compound_count_draws,
    detail_spill_days,
    reference_chunk,
    scatter_chunk,
    scatter_regions,
)


def _paper_device(theta=2e-5, lam=182.0, kill=0.0):
    return DeviceParameters(
        daily_loss=1000.0, discount_rate=0.03, horizon_days=365, kill_rate=kill,
        counts=CountDistributionParams(theta=theta, lambda_cluster=lam),
    )


def _paper_spec(**overrides):
    defaults = dict(
        device=_paper_device(),
        loading=0.1,
        mitigation=0.9,
        portfolio_size=1000,
        repetitions=20_000,
        seed=42,
        scenario=ScenarioConfig(mitigation_alphas={level: 0.9 for level in RiskLevel}),
    )
    defaults.update(overrides)
    return SimulationSpec(**defaults)


class TestSummarizeLevel:
    def test_constant_sample_at_pool_boundary(self):
        dist = EmpiricalDistribution([7.0] * 10)
        metrics = summarize_level(dist, premium_pool=7.0, levels=(0.9,))
        assert metrics.shortfall_probability == 1.0  # <= comparison
        assert metrics.expected_shortfall == 0.0

    def test_counting_example(self):
        dist = EmpiricalDistribution(np.arange(1.0, 101.0))
        metrics = summarize_level(dist, premium_pool=90.0, levels=(0.90,))
        assert metrics.var[0.90] == 90.0
        assert metrics.cte[0.90] == 95.0
        assert metrics.shortfall_probability == 0.11
        assert metrics.expected_shortfall == 0.55
        assert metrics.expected_loss == 50.5
        assert metrics.margin_ratio[("cte", 0.90)] == (95.0 - 50.5) / 50.5

    def test_scale_equivariance(self):
        values = np.array([3.0, 9.0, 27.0, 81.0])
        s = 4.0  # power of two: exact
        a = summarize_level(EmpiricalDistribution(values), 10.0, (0.5, 0.9))
        b = summarize_level(EmpiricalDistribution(values * s), 10.0 * s, (0.5, 0.9))
        assert b.shortfall_probability == a.shortfall_probability
        assert b.expected_shortfall == s * a.expected_shortfall
        for rho in (0.5, 0.9):
            assert b.var[rho] == s * a.var[rho]
            assert b.margin_ratio[("var", rho)] == pytest.approx(
                a.margin_ratio[("var", rho)], rel=1e-12)

    def test_zero_sample_omits_margins(self):
        metrics = summarize_level(EmpiricalDistribution([0.0, 0.0]), 1.0, (0.9,))
        assert metrics.margin_ratio == {}
        assert metrics.expected_loss == 0.0


class TestTrivialRun:
    def test_no_attacks_means_zero_metrics_positive_pool(self):
        spec = _paper_spec(
            device=_paper_device(theta=1e-12, lam=0.0),
            portfolio_size=1,
            repetitions=1,
        )
        report = run_simulation(spec, workers=1)
        item = report.levels[0]
        assert item.metrics.expected_loss == 0.0
        assert item.metrics.expected_shortfall == 0.0
        assert all(v == 0.0 for v in item.metrics.var.values())
        assert item.metrics.shortfall_probability == 0.0
        assert item.premium_pool > 0.0
        assert item.metrics.margin_ratio == {}


class TestDeterminism:
    def test_worker_counts_and_reruns(self):
        spec = _paper_spec(repetitions=6000)
        reference = render_json(run_simulation(spec, workers=1))
        assert render_json(run_simulation(spec, workers=2)) == reference
        assert render_json(run_simulation(spec, workers=3)) == reference
        assert render_json(run_simulation(spec, workers=1)) == reference

    def test_report_equal_across_workers_and_task_sizes(self, monkeypatch):
        spec = _paper_spec(repetitions=6000)
        reference = run_simulation(spec, workers=1)
        assert reference.spec == spec
        assert run_simulation(spec, workers=2) == reference
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 50)
        assert engine._task_count(spec) == 80  # 3,960 expected drawn rows
        assert run_simulation(spec, workers=1) == reference
        assert run_simulation(spec, workers=2) == reference

    def test_adding_levels_does_not_perturb_existing(self):
        spec_two = _paper_spec(repetitions=4000,
                               levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        spec_four = _paper_spec(repetitions=4000)
        two = {item.level: item for item in run_simulation(spec_two, workers=1).levels}
        four = {item.level: item for item in run_simulation(spec_four, workers=1).levels}
        for level in (RiskLevel.GUARDED, RiskLevel.SEVERE):
            a, b = two[level], four[level]
            assert a.metrics == b.metrics
            assert a.premium_pool == b.premium_pool

    def test_seed_changes_results(self):
        a = run_simulation(_paper_spec(repetitions=4000), workers=1)
        b = run_simulation(_paper_spec(repetitions=4000, seed=43), workers=1)
        assert a.levels[0].metrics.expected_loss != b.levels[0].metrics.expected_loss


def _bench_workload(name: str, tiny: bool = False) -> SimulationSpec:
    """The spec of one workload of ``bench/workloads.json``, or of its tiny
    form."""
    document = json.loads((Path(__file__).parents[1] / "bench" / "workloads.json").read_text())
    entry = document["workloads"][name]
    return parse_config({**document["base"], **entry["overrides"], **(entry["tiny"] if tiny else {})})


class TestTaskCount:
    """A run is cut into tasks, each over every level, by the rows its
    levels expect to draw, not by the repetitions it scans."""

    def test_bench_workload_task_counts(self, monkeypatch):
        """The workers follow the tasks: paper and channel, one task each,
        run in one process at any worker count, on 2 CPUs or more. The
        run stops once it has resolved its workers."""
        resolve, resolved = engine.resolve_workers, []

        class Resolved(Exception):
            pass

        def spy(*args):
            resolved.append(resolve(*args))
            raise Resolved

        monkeypatch.setattr(engine, "resolve_workers", spy)
        # paper and channel expect 66,000 and 40,000 drawn rows, dense 240,000
        for name, tasks, workers in [("paper", 1, 1), ("channel", 1, 1), ("dense", 2, 2)]:
            spec = _bench_workload(name)
            assert engine._task_count(spec) == tasks, name
            for cpus in (2, 3):
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                for asked in (None, 2, 3):
                    with pytest.raises(Resolved):
                        run_simulation(spec, workers=asked)
                    assert resolved.pop() == workers, (name, cpus, asked)

    def test_a_paper_run_takes_one_task(self, monkeypatch):
        spans = []
        task = engine._chunk_task

        def spy(args, **options):
            spans.append(args[1:])
            return task(args, **options)

        monkeypatch.setattr(engine, "_chunk_task", spy)
        run_simulation(parse_config(paper_config()), workers=1)
        assert spans == [(0, 100_000)]

    def test_a_task_expects_at_most_2_17_drawn_rows(self):
        # 660,000 expected drawn rows at R = 1e6, Severe's 400,000 among them
        spec = replace(parse_config(paper_config()), repetitions=1_000_000)
        assert engine._task_count(spec) == 6
        assert engine._task_count(replace(spec, repetitions=7)) == 1

    def test_bytes_equal_across_one_two_and_three_workers(self, monkeypatch):
        spec = replace(parse_config(paper_config()), repetitions=50_000)
        reference = render_json(run_simulation(spec, workers=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers also on two CPUs
        # 33,000 expected drawn rows: four tasks, so three workers start
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 10_000)
        assert engine._task_count(spec) == 4
        for workers in (2, 3):
            assert render_json(run_simulation(spec, workers=workers)) == reference

    def test_a_pool_runs_at_most_two_tasks_per_worker_ahead(self, monkeypatch):
        """Tasks are submitted as their results are consumed, at most
        2 * workers of them ahead; the bytes do not depend on it."""
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 200)
        spec = _paper_spec(device=_paper_device(theta=2e-4), repetitions=3_000,
                           levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        tasks = engine._task_count(spec)
        assert tasks == 18  # 3,600 expected drawn rows
        reference = render_json(run_simulation(spec, workers=1))
        calls = Counter()

        class Ran:
            """A future whose task ran on submission; it is consumed when
            its result is read."""

            def __init__(self, value):
                self.value = value

            def result(self):
                calls["consumed"] += 1
                return self.value

        class InlinePool:
            def __init__(self, max_workers):
                calls["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, function, task):
                calls["submitted"] += 1
                calls["most"] = max(calls["most"], calls["submitted"] - calls["consumed"])
                return Ran(function(task))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for workers in (2, 3):
            calls.clear()
            assert render_json(run_simulation(spec, workers=workers)) == reference
            assert calls["workers"] == workers
            assert calls["most"] == 2 * workers
            assert calls["submitted"] == calls["consumed"] == tasks


_FUSION_CHANNEL = AggregateLossParams(event_rate=1.0, severity=Lognormal(mu=8.0, sigma=1.5))


class TestAllLevelTasks:
    """A task resolves every level of its repetition range at once; each
    level's losses and cap events equal those of a run of that level
    alone, bit for bit, and so does the fault a run raises."""

    @pytest.mark.parametrize("channel", [None, _FUSION_CHANNEL], ids=["no_channel", "channel"])
    @pytest.mark.parametrize("kill", [0.0, 0.3])
    def test_each_level_of_a_task_equals_its_one_level_task(self, kill, channel):
        spec = _paper_spec(device=_paper_device(theta=2e-4, kill=kill), repetitions=5_000,
                           aggregate_channel=channel)
        for lo, hi in [(0, 5_000), (1_234, 4_321)]:
            chunks = _simulate_chunk(spec, lo, hi)
            tasks = engine._chunk_task((spec, lo, hi))
            assert len(chunks) == len(tasks) == len(spec.levels)
            for level, (rows, losses, caps), task in zip(spec.levels, chunks, tasks):
                one = replace(spec, levels=(level,))
                one_rows, one_losses, one_caps = _simulate_chunk(one, lo, hi)[0]
                assert rows.tobytes() == one_rows.tobytes()
                assert losses.tobytes() == one_losses.tobytes()
                assert caps == one_caps
                [one_task] = engine._chunk_task((one, lo, hi))
                assert task[0].tobytes() == one_task[0].tobytes() == losses.tobytes()
                assert task[1:] == one_task[1:] == (caps, None)
        # and each level of a short range against the layout, one repetition at a time
        for level, chunk in zip(spec.levels, _simulate_chunk(spec, 4_000, 4_064)):
            losses, caps = scatter_chunk(chunk, 64)
            expect, expect_caps, _ = reference_chunk(spec, level, 4_000, 4_064)
            assert losses.tobytes() == expect.tobytes()
            assert caps == expect_caps

    @pytest.mark.parametrize("channel", [None, _FUSION_CHANNEL], ids=["no_channel", "channel"])
    @pytest.mark.parametrize("kill", [0.0, 0.3])
    def test_each_level_of_a_run_equals_its_one_level_run(self, monkeypatch, kill, channel):
        spec = _paper_spec(device=_paper_device(theta=2e-4, kill=kill), repetitions=2_000,
                           aggregate_channel=channel)
        samples = []

        def keep_sample(dist, premium_pool, levels):
            samples.append(dist.sorted_losses.copy())
            return summarize_level(dist, premium_pool, levels)

        monkeypatch.setattr(engine, "summarize_level", keep_sample)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers also on two CPUs
        expect = []
        for level in spec.levels:
            report = run_simulation(replace(spec, levels=(level,)), workers=1)
            expect.append((report.levels[0], samples.pop().tobytes()))
        # 5,200 expected drawn rows (with the channel, 8,000)
        for task_rows, tasks in [(50, 104 + 56 * bool(channel)), (1_000, 6 + 2 * bool(channel)),
                                 (engine._TASK_DRAWN_ROWS, 1)]:
            monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", task_rows)
            assert engine._task_count(spec) == tasks
            for workers in (1, 2, 3):
                samples.clear()
                report = run_simulation(spec, workers=workers)
                got = [(item, sample.tobytes()) for item, sample in zip(report.levels, samples)]
                assert got == expect, (task_rows, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fault_names_the_first_level_in_spec_order(self, monkeypatch, workers):
        """Guarded's first nonfinite loss is in the last task and Severe's
        in the first: the run raises Guarded's, as the levels run one at a
        time in spec order do, and Severe's when Severe comes first."""
        channel = AggregateLossParams(event_rate=1.0, severity=Lognormal(mu=0.0, sigma=250.0))
        spec = _paper_spec(repetitions=2_000, seed=4, aggregate_channel=channel,
                           levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 200)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tasks = engine._task_count(spec)
        first = {}
        for level in spec.levels:
            with pytest.raises(NumericFault) as alone:
                run_simulation(replace(spec, levels=(level,)), workers=workers)
            first[level] = alone.value
        task_of = {level: first[level].repetition * tasks // spec.repetitions for level in first}
        assert task_of == {RiskLevel.GUARDED: tasks - 1, RiskLevel.SEVERE: 0}
        for levels in (spec.levels, spec.levels[::-1]):
            with pytest.raises(NumericFault) as fused:
                run_simulation(replace(spec, levels=levels), workers=workers)
            expect = first[levels[0]]
            assert str(fused.value) == str(expect)
            assert (fused.value.level, fused.value.repetition) == (expect.level, expect.repetition)


_COMPACT_CASES = {
    "daily_loss_0": dict(device=replace(_paper_device(theta=2e-3), daily_loss=0.0)),
    "theta_1e-12": dict(device=_paper_device(theta=1e-12)),
    # kappa * theta >= 30 at every level: PTRS counts, none of them zero
    "no_zero_count": dict(device=_paper_device(theta=0.03, lam=5.0), repetitions=400),
    # rows that drew clusters but lost nothing
    "kill_0.5": dict(device=_paper_device(theta=2e-3, lam=0.0, kill=0.5)),
    "channel_lognormal": dict(aggregate_channel=AggregateLossParams(
        event_rate=1.0, severity=Lognormal(mu=8.0, sigma=1.5))),
    # a zero severity: rows with events that lost nothing
    "channel_discrete": dict(aggregate_channel=AggregateLossParams(
        event_rate=2.0, severity=DiscreteTable(values=(0.0, 100.0, 1000.0),
                                               probabilities=(0.5, 0.25, 0.25)))),
    "several_tasks": dict(device=_paper_device(theta=2e-4), repetitions=4_500),
    # a level with fewer drawn rows than the one before it, in the same array
    "severe_then_guarded": dict(levels=(RiskLevel.SEVERE, RiskLevel.GUARDED)),
}


class TestCompactReduction:
    """A level's sample, built from its tasks' nonzero losses, is
    ``np.sort`` of all its losses bit for bit, and so are its measures."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(_COMPACT_CASES))
    def test_level_equals_the_sorted_dense_losses(self, monkeypatch, name, workers):
        spec = _paper_spec(**{"repetitions": 3_000, "levels": (RiskLevel.GUARDED, RiskLevel.SEVERE),
                              **_COMPACT_CASES[name]})
        if name == "several_tasks":
            monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 200)
            assert engine._task_count(spec) == 27  # 5,400 expected drawn rows
        samples = []

        def keep_sample(dist, premium_pool, levels):
            samples.append(dist.sorted_losses.copy())
            return summarize_level(dist, premium_pool, levels)

        monkeypatch.setattr(engine, "summarize_level", keep_sample)
        report = run_simulation(spec, workers=workers)
        for item, sample in zip(report.levels, samples, strict=True):
            losses, caps = scatter_chunk(_simulate_chunk(replace(spec, levels=(item.level,)), 0,
                                                         spec.repetitions)[0], spec.repetitions)
            expect = np.sort(losses)
            assert sample.tobytes() == expect.tobytes()
            assert item.metrics == summarize_level(EmpiricalDistribution(losses),
                                                   item.premium_pool, spec.confidence_levels)
            assert item.cap_events == caps

    # the first size is the one block of both levels' expected drawn losses
    # (1 and 2 at R = 50), each later one a level's grown buffer
    @pytest.mark.parametrize("seed, repetitions, levels, task_rows, sizes", [
        (29, 50, (RiskLevel.GUARDED, RiskLevel.ELEVATED), 1 << 18, [3, 2, 4]),  # both double
        (7, 50, (RiskLevel.GUARDED, RiskLevel.ELEVATED), 1 << 18, [3, 5]),  # takes what one task drew
        (24, 3, (RiskLevel.SEVERE,), 1, [2, 3]),  # stops at R, one task per repetition
    ])
    def test_loss_buffer_grows_past_the_expected_drawn_rows(self, monkeypatch, seed, repetitions,
                                                            levels, task_rows, sizes):
        spec = _paper_spec(repetitions=repetitions, levels=levels, seed=seed)
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", task_rows)
        taken, samples = [], []
        allocate = engine._loss_buffer

        def spy(reps, size):
            taken.append(size)
            return allocate(reps, size)

        def keep_sample(dist, premium_pool, levels):
            samples.append(dist.sorted_losses)
            return summarize_level(dist, premium_pool, levels)

        monkeypatch.setattr(engine, "_loss_buffer", spy)
        monkeypatch.setattr(engine, "summarize_level", keep_sample)
        run_simulation(spec, workers=1)
        assert taken == sizes
        for level, sample in zip(levels, samples, strict=True):
            losses, _ = scatter_chunk(_simulate_chunk(replace(spec, levels=(level,)), 0,
                                                      repetitions)[0], repetitions)
            assert sample.tobytes() == np.sort(losses).tobytes()

    def test_tasks_return_only_nonzero_losses(self):
        spec = _paper_spec(device=_paper_device(theta=2e-4), repetitions=5_000)
        spec = replace(spec, levels=(RiskLevel.GUARDED,))
        losses, caps = scatter_chunk(_simulate_chunk(spec, 0, 5_000)[0], 5_000)
        [(nonzero, task_caps, fault)] = engine._chunk_task((spec, 0, 5_000))
        assert fault is None
        assert 0 < len(nonzero) < 5_000 // 2
        assert nonzero.tobytes() == losses[losses > 0].tobytes()
        assert task_caps == caps


class TestModelEquivalence:
    """The engine's superposition+placement path must match the scalar
    per-device reference distribution."""

    def test_portfolio_days_distribution_matches_scalar(self):
        theta, lam, kappa, reps = 0.025, 5.0, 20, 20_000
        spec = _paper_spec(
            device=_paper_device(theta=theta, lam=lam),
            portfolio_size=kappa,
            repetitions=reps,
            levels=(RiskLevel.GUARDED,),
        )
        losses, _ = scatter_chunk(_simulate_chunk(spec, 0, reps)[0], reps)
        unit = 1000.0 / 1.03
        engine_days = np.round(losses / unit).astype(int)

        # the per-device reference: kappa independent compound counts per
        # repetition, each device capped at the horizon
        draws = compound_count_draws(np.random.default_rng(999), theta, lam, (reps, kappa))
        scalar_days = np.minimum(draws, 365).sum(axis=1)

        # same mean within 4 joint standard errors, same P(zero), same tail shape
        mu, sd = kappa * theta * (1 + lam), np.sqrt(kappa * theta * (lam + (1 + lam) ** 2))
        se = sd / np.sqrt(reps)
        assert abs(engine_days.mean() - mu) < 4 * se
        assert abs(scalar_days.mean() - mu) < 4 * se
        p0 = np.exp(-kappa * theta)
        assert abs((engine_days == 0).mean() - p0) < 0.01
        assert abs((scalar_days == 0).mean() - p0) < 0.01
        assert abs(engine_days.var() - scalar_days.var()) < 6 * sd ** 2 / np.sqrt(reps)

    def test_multi_cluster_path_statistics(self):
        # high enough rate that multi-cluster repetitions dominate
        theta, lam, kappa, reps = 0.2, 3.0, 10, 40_000
        spec = _paper_spec(
            device=_paper_device(theta=theta, lam=lam),
            portfolio_size=kappa,
            repetitions=reps,
            levels=(RiskLevel.GUARDED,),
        )
        losses, _ = scatter_chunk(_simulate_chunk(spec, 0, reps)[0], reps)
        unit = 1000.0 / 1.03
        days = losses / unit
        mu = kappa * theta * (1 + lam)
        var = kappa * theta * (lam + (1 + lam) ** 2)
        assert abs(days.mean() - mu) < 4 * np.sqrt(var / reps)
        assert abs(days.var() - var) < 0.05 * var

    def test_kill_rate_thins_expected_loss(self):
        kill = 0.7
        base = _paper_spec(repetitions=30_000, levels=(RiskLevel.SEVERE,))
        killed = _paper_spec(device=_paper_device(kill=kill), repetitions=30_000,
                             levels=(RiskLevel.SEVERE,))
        a = run_simulation(base, workers=1).levels[0].metrics.expected_loss
        b = run_simulation(killed, workers=1).levels[0].metrics.expected_loss
        assert b / a == pytest.approx(np.exp(-kill), rel=0.12)


class TestMonotoneRisk:
    def test_shortfall_and_cte_increase_across_levels(self):
        report = run_simulation(_paper_spec(repetitions=30_000), workers=1)
        probs = [it.metrics.shortfall_probability for it in report.levels]
        ctes = [it.metrics.cte[0.99] for it in report.levels]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert all(a < b for a, b in zip(ctes, ctes[1:]))
        for item in report.levels:
            m = item.metrics
            assert m.var[0.99] >= m.var[0.95] >= m.var[0.90]
            for rho in (0.90, 0.95, 0.99):
                assert m.cte[rho] >= m.var[rho]


class TestConvergence:
    def test_standard_error_shrinks_as_sqrt_r(self):
        spec = _paper_spec(repetitions=100_000, levels=(RiskLevel.HIGH,))
        losses, _ = scatter_chunk(_simulate_chunk(spec, 0, 16384)[0], 16384)
        more, _ = scatter_chunk(_simulate_chunk(spec, 16384, 100_000)[0],
                                100_000 - 16384)
        losses = np.concatenate([losses, more])
        # block means at R=1000 vs R=10000: sd ratio ~ sqrt(10)
        blocks_1k = losses.reshape(100, 1000).mean(axis=1)
        blocks_10k = losses.reshape(10, 10000).mean(axis=1)
        ratio = blocks_1k.std() / blocks_10k.std()
        assert 1.6 < ratio < 6.3  # sqrt(10) ~ 3.16, wide MC tolerance


class TestFaults:
    def test_nonfinite_draw_aborts_with_location(self):
        channel = AggregateLossParams(
            event_rate=5.0,
            severity=Lognormal(mu=800.0, sigma=1.0),  # exp overflows to inf
        )
        spec = _paper_spec(repetitions=64, portfolio_size=2, aggregate_channel=channel,
                           levels=(RiskLevel.GUARDED,))
        with pytest.raises(NumericFault) as err:
            run_simulation(spec, workers=1)
        assert err.value.level == "GUARDED"
        assert err.value.repetition is not None

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            _paper_spec(repetitions=0)
        with pytest.raises(ConfigError):
            _paper_spec(confidence_levels=(0.5, 1.5))
        with pytest.raises(ConfigError):
            _paper_spec(levels=(RiskLevel.GUARDED, RiskLevel.GUARDED))

    def test_poisson_rates_are_bounded(self):
        bound = float(2 ** 20)
        # kappa * theta * 20 at Severe, the largest multiplier
        _paper_spec(device=_paper_device(theta=bound / 1000 / 20, lam=bound),
                    aggregate_channel=AggregateLossParams(event_rate=bound, severity=Fixed(1.0)))
        above = np.nextafter(bound, np.inf)
        with pytest.raises(ConfigError, match="multiplier at SEVERE"):
            _paper_spec(device=_paper_device(theta=above / 1000 / 20))
        # a level not requested does not count
        _paper_spec(device=_paper_device(theta=above / 1000 / 20),
                    levels=(RiskLevel.GUARDED, RiskLevel.ELEVATED, RiskLevel.HIGH))
        with pytest.raises(ConfigError, match="lambda_cluster"):
            _paper_spec(device=_paper_device(lam=above))
        with pytest.raises(ConfigError, match="event_rate"):
            _paper_spec(aggregate_channel=AggregateLossParams(event_rate=above,
                                                              severity=Fixed(1.0)))


class TestCapEvents:
    def test_caps_counted_in_saturated_regime(self):
        spec = _paper_spec(
            device=_paper_device(theta=0.05, lam=500.0),  # clusters overshoot the year
            portfolio_size=50,
            repetitions=2000,
            levels=(RiskLevel.SEVERE,),
        )
        report = run_simulation(spec, workers=1)
        assert report.levels[0].cap_events > 0


class TestPricing:
    def test_pool_is_priced_at_baseline(self):
        spec = _paper_spec(repetitions=100)
        report = run_simulation(spec, workers=1)
        per_device = report.baseline_expected_device_loss
        for item in report.levels:
            alpha = spec.scenario.mitigation_alphas[item.level]
            expected_pool = spec.portfolio_size * ((1 + spec.loading) * (alpha * per_device))
            assert item.premium_pool == expected_pool
        # all levels share the pool under the global-mitigation preset
        pools = {item.premium_pool for item in report.levels}
        assert len(pools) == 1


class TestBatchedResolution:
    """The batched DETAIL_SPILL and CHANNEL_SEV resolution replays every
    repetition's own stream."""

    @pytest.mark.parametrize("lam, kill, multiplier, kappa", [
        (45.0, 0.3, 0.7, 50),
        (5.0, 0.0, 1.37, 7),
        (0.0, 0.1, 1.0, 3 * 2 ** 62),
        (182.0, 0.0, 1.0, 1),
    ])
    def test_multi_cluster_days_match_per_repetition_reference(self, lam, kill, multiplier, kappa):
        device = DeviceParameters(
            daily_loss=1000.0, discount_rate=0.03, horizon_days=200, kill_rate=kill,
            loss_day_multiplier=multiplier,
            counts=CountDistributionParams(theta=0.1, lambda_cluster=lam))
        reps = np.array([0, 3, 4, 17, 1000, 2 ** 40])
        n_clusters = np.array([2, 1, 9, 40, 3, 12])
        codes = np.full(len(reps), RiskLevel.HIGH.code, dtype=np.uint8)
        totals, caps = _multi_cluster_days(42, codes, reps, n_clusters, device, kappa)
        expect = [detail_spill_days(42, RiskLevel.HIGH, int(rep), int(n), device, kappa)
                  for rep, n in zip(reps, n_clusters)]
        assert list(totals) == [days for days, _ in expect]
        assert caps[RiskLevel.HIGH.code] == caps.sum() == sum(c for _, c in expect)

    @pytest.mark.parametrize("rate", [1e-300, 0.02, 0.7, 5.0, 29.99, 30.0, 45.0])
    def test_count_scan_keeps_the_nonzero_rows_of_every_span(self, monkeypatch, rate):
        # P(0) rounds to 1 at 1e-300 and is below 1/2 from 0.7 on; from 30
        # on, each repetition owns a 32-word PTRS region
        monkeypatch.setattr(engine, "_BATCH_WORDS", 4_096)
        seed, level, rep_lo, n = 11, RiskLevel.HIGH, 1_000, 20_000
        width = 1 if rate < 30.0 else 4 * engine._COUNT_BLOCKS_PER_REP
        stream_id = pack_stream_id(engine._DOMAIN_COUNT, level.code, 0)
        words = RandomStream(seed, stream_id, counter=rep_lo * width).raw_words(n * width)
        expect = scatter_regions(poisson_regions(words.reshape(n, width), rate,
                                                 engine._COUNT_MAX_ATTEMPTS), n)
        rows, counts = engine._counts_for_chunk(seed, engine._DOMAIN_COUNT, level, rep_lo, n, rate)
        assert n * width > 4 * engine._BATCH_WORDS  # several spans
        assert (expect >= 0).all()
        assert np.array_equal(rows, np.flatnonzero(expect))
        assert np.array_equal(counts, expect[rows])
        assert (rate == 1e-300) == (len(rows) == 0)

    def test_batch_cap_does_not_change_losses(self, monkeypatch):
        channel = AggregateLossParams(event_rate=12.0, severity=Pareto(x_min=1000.0, alpha=2.5))
        spec = _paper_spec(device=_paper_device(theta=1e-3, lam=45.0, kill=0.2),
                           repetitions=3000, aggregate_channel=channel)
        spec = replace(spec, levels=(RiskLevel.SEVERE,))
        whole = scatter_chunk(_simulate_chunk(spec, 0, 3000)[0], 3000)
        monkeypatch.setattr(engine, "_BATCH_WORDS", 100)
        split = scatter_chunk(_simulate_chunk(spec, 0, 3000)[0], 3000)
        assert np.array_equal(whole[0], split[0])
        assert whole[1] == split[1]

    def test_batches_respect_the_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "_BATCH_WORDS", 100)
        words = np.random.default_rng(4).integers(1, 160, 400)
        groups = list(_batches(words))
        assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]]
        assert groups[-1][1] == len(words)
        for lo, hi in groups:
            assert words[lo:hi].sum() <= 100 or hi == lo + 1
        assert list(_batches(np.array([], dtype=np.int64))) == []

    @pytest.mark.parametrize("channel", [
        # dense CHANNEL counts and CHANNEL_SEV severities
        AggregateLossParams(event_rate=1.0, severity=Lognormal(mu=8.0, sigma=1.5)),
        # 32-word CHANNEL PTRS regions
        AggregateLossParams(event_rate=40.0, severity=Fixed(value=10.0)),
    ], ids=["dense_channel", "ptrs_channel"])
    def test_reads_of_a_task_stay_within_the_batch_cap(self, monkeypatch, channel):
        """Every read of a full task holds at most ``_BATCH_WORDS`` words,
        unless it is one row that alone needs more."""
        reads = []

        def spy(function, shape):
            def wrapper(*args):
                reads.append(shape(*args))
                return function(*args)
            return wrapper

        # (words read, rows read)
        monkeypatch.setattr(streams, "ragged_words", spy(
            streams.ragged_words, lambda seed, ids, starts, counts:
            (int(np.sum(counts)), int(np.count_nonzero(counts)))))
        # the engine's own cipher calls (single-cluster DETAIL blocks): four
        # words per block, every block counted as a row, so no exemption
        monkeypatch.setattr(engine, "philox_blocks", spy(
            streams.philox_blocks, lambda seed, ids, blocks: (4 * len(blocks), len(blocks))))
        # one stream, read a span at a time: one word per repetition in the
        # dense COUNT and CHANNEL layouts, a 32-word region per repetition in
        # the PTRS one; every word counted as a row, so no exemption
        monkeypatch.setattr(RandomStream, "raw_words", spy(
            RandomStream.raw_words, lambda stream, n: (n, n)))
        # severe paper preset: about 70,000 single-cluster and 16,000
        # multi-cluster repetitions in the task
        spec = _paper_spec(repetitions=1 << 18, aggregate_channel=channel)
        _simulate_chunk(replace(spec, levels=(RiskLevel.SEVERE,)), 0, 1 << 18)
        assert sum(words for words, _ in reads) > 8 * engine._BATCH_WORDS
        for words, rows in reads:
            assert words <= engine._BATCH_WORDS or rows == 1


    def test_every_layout_address_fits_the_counter(self):
        """Word i of a stream is block i // 4 + 1; that block must stay
        below 2**64 for every word the layout can address."""
        last_rep = engine._MAX_REPETITIONS - 1
        last_words = [
            last_rep,                                              # dense inversion word
            4 * engine._COUNT_BLOCKS_PER_REP * (last_rep + 1) - 1,  # COUNT / CHANNEL regions
            4 * engine._DETAIL_BLOCKS_PER_REP * (last_rep + 1) - 1,  # DETAIL regions
            2 ** 62,  # a per-repetition spill or severity stream; its words are held in memory
        ]
        for word in last_words:
            assert word // 4 + 1 < 2 ** 64
        # stream ids stay inside the 52-bit index field
        pack_stream_id(6, 255, last_rep)
        with pytest.raises(ConfigError):
            _paper_spec(repetitions=engine._MAX_REPETITIONS + 1)


_SEVERITIES = (Lognormal(mu=8.0, sigma=1.5), Pareto(x_min=1000.0, alpha=2.5),
               DiscreteTable(values=(100.0, 1000.0), probabilities=(0.25, 0.75)),
               Fixed(value=5.0))


def _layout_case(level, kappa, rate, lam, kill, multiplier, horizon, channel, seed, rep_lo, n):
    """(spec, level, rep_lo, rep_hi) of a one-level spec whose portfolio
    count rate kappa * theta at ``level`` is ``rate``."""
    theta = rate / kappa / ScenarioConfig().intensity_multipliers[level]
    device = DeviceParameters(daily_loss=1000.0, discount_rate=0.03, horizon_days=horizon,
                              kill_rate=kill, loss_day_multiplier=multiplier,
                              counts=CountDistributionParams(theta=theta, lambda_cluster=lam))
    spec = SimulationSpec(device=device, portfolio_size=kappa, repetitions=rep_lo + n, seed=seed,
                          levels=(level,), aggregate_channel=channel)
    return spec, level, rep_lo, rep_lo + n


_LAYOUT_CASES = st.builds(
    _layout_case,
    level=st.sampled_from([RiskLevel.GUARDED, RiskLevel.ELEVATED, RiskLevel.HIGH,
                           RiskLevel.SEVERE]),
    kappa=st.integers(1, 2 ** 63),
    rate=st.one_of(st.floats(0.05, 29.9), st.floats(30.0, 60.0)),
    lam=st.one_of(st.just(0.0), st.floats(0.01, 29.9), st.floats(30.0, 250.0)),
    kill=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    multiplier=st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
    horizon=st.integers(1, 400),
    channel=st.one_of(st.none(), st.builds(
        AggregateLossParams, event_rate=st.one_of(st.floats(0.05, 29.9), st.floats(30.0, 50.0)),
        severity=st.sampled_from(_SEVERITIES))),
    seed=st.integers(0, 2 ** 64 - 1),
    rep_lo=st.sampled_from([0, 7, 2 ** 40]),
    n=st.integers(1, 64),
)


class TestLayoutReference:
    """``_simulate_chunk`` bit for bit against ``reference_chunk``, which
    draws one repetition at a time as the engine docstring's layout v1
    says, through numpy's own Philox. With one PTRS attempt per region, rows
    spill to COUNT_SPILL, CHANNEL_SPILL and DETAIL_SPILL."""

    @pytest.mark.parametrize("forced", [False, True], ids=["layout", "spills_forced"])
    def test_chunk_matches_reference(self, monkeypatch, forced):
        if forced:
            monkeypatch.setattr(engine, "_COUNT_MAX_ATTEMPTS", 1)
            monkeypatch.setattr(engine, "_DETAIL_MAX_ATTEMPTS", 1)
        spills = Counter()

        @settings(derandomize=True, deadline=None, database=None, max_examples=60)
        @given(_LAYOUT_CASES)
        # PTRS COUNT and CHANNEL regions, a binding horizon, kill_rate > 0
        @example(_layout_case(RiskLevel.SEVERE, 2 ** 63, 40.0, 182.0, 0.3, 0.7, 30,
                              AggregateLossParams(45.0, _SEVERITIES[0]), 7, 2 ** 40, 64))
        # single-cluster DETAIL regions with PTRS sizes, and a rejecting modulus
        @example(_layout_case(RiskLevel.GUARDED, 3 * 2 ** 61, 1.0, 45.0, 0.0, 1.37, 365,
                              AggregateLossParams(1.0, _SEVERITIES[1]), 8, 0, 64))
        @example(_layout_case(RiskLevel.HIGH, 1000, 1.2, 182.0, 0.5, 1.0, 50,
                              AggregateLossParams(35.0, _SEVERITIES[2]), 9, 7, 64))
        @example(_layout_case(RiskLevel.ELEVATED, 5, 3.0, 5.0, 0.0, 2.5, 6,
                              AggregateLossParams(40.0, _SEVERITIES[3]), 10, 0, 64))
        def check(case):
            spec, level, lo, hi = case
            losses, caps = scatter_chunk(_simulate_chunk(spec, lo, hi)[0], hi - lo)
            expect, expect_caps, case_spills = reference_chunk(
                spec, level, lo, hi, engine._COUNT_MAX_ATTEMPTS, engine._DETAIL_MAX_ATTEMPTS)
            assert losses.tobytes() == expect.tobytes()
            assert caps == expect_caps
            spills.update(case_spills)

        check()
        if forced:
            assert all(spills[domain] > 0 for domain in (engine._DOMAIN_COUNT_SPILL,
                                                         engine._DOMAIN_CHANNEL_SPILL,
                                                         engine._DOMAIN_DETAIL_SPILL)), spills
        else:
            assert not spills


class TestCipherWork:
    """The batched paths encipher only the Philox blocks their draws read."""

    @staticmethod
    def _enciphered(monkeypatch) -> list:
        """Record the counters of every block the vectorized cipher runs."""
        counters = []
        cipher = streams._philox_pass

        def spy(seed, stream_ids, blocks):
            counters.append(np.array(blocks))
            return cipher(seed, stream_ids, blocks)

        monkeypatch.setattr(streams, "_philox_pass", spy)
        return counters

    def test_paper_run_enciphers_73293_blocks(self, monkeypatch):
        counters = self._enciphered(monkeypatch)
        run_simulation(parse_config(paper_config()), workers=1)
        # 130,744 when every block of a DETAIL region was read and
        # multi-cluster prefixes held n * 4 + 8 words
        assert sum(len(c) for c in counters) == 73_293

    @pytest.mark.parametrize("lam, kill", [(182.0, 0.0), (182.0, 0.3), (5.0, 0.0), (5.0, 0.3),
                                           (0.0, 0.0), (0.0, 0.3)])
    def test_single_cluster_rows_read_only_the_blocks_they_use(self, monkeypatch, lam, kill):
        seed, level = 42, RiskLevel.SEVERE
        reps = np.arange(5, 30_000, 3)
        device = _paper_device(lam=lam, kill=kill)
        # the full 8-word DETAIL regions, read through numpy's Philox
        detail = pack_stream_id(engine._DOMAIN_DETAIL, level.code, 0)
        regions = streams.chunk_words(seed, detail, 0, int(reps[-1]) + 1, 2)[reps]
        counters = self._enciphered(monkeypatch)
        codes = np.full(len(reps), level.code, dtype=np.uint8)
        resolved, _, _ = engine._single_cluster_days(seed, codes, reps, device)
        enciphered = np.sort(np.concatenate(counters)) if counters else np.empty(0, np.uint64)

        # block 0 of repetition r's region is counter 2r + 1, block 1 is 2r + 2
        needs_block_1 = np.zeros(len(reps), dtype=bool)
        if lam >= 30.0:
            rejected_once = scatter_regions(poisson_regions(regions[:, 1:], lam, 1), len(reps)) < 0
            assert 0 < rejected_once.sum() < len(reps) // 4
            needs_block_1 |= rejected_once
            assert np.array_equal(resolved, scatter_regions(poisson_regions(regions[:, 1:], lam, 3),
                                                            len(reps)) >= 0)
        if kill > 0.0:
            needs_block_1[:] = True
        expect = np.concatenate([2 * reps + 1 if lam > 0.0 else reps[:0], 2 * reps[needs_block_1] + 2])
        assert np.array_equal(enciphered, np.sort(expect).astype(np.uint64))
        if lam == 0.0 and kill == 0.0:
            assert not counters


    def test_single_cluster_rows_take_one_late_block_read(self, monkeypatch):
        """Block 0 is read in spans of ``_BATCH_WORDS // 4`` rows, two full
        cipher passes each; block 1 of every row that attempt 1 left
        unresolved is read once, after the last span. With kill_rate > 0
        block 1 of every row is read after the last block-0 span, in spans
        of the same size: no pass mixes the two blocks."""
        seed, level, lam = 42, RiskLevel.SEVERE, 182.0
        reps = np.arange(5, 150_000, 3)
        detail = pack_stream_id(engine._DOMAIN_DETAIL, level.code, 0)
        regions = streams.chunk_words(seed, detail, 0, int(reps[-1]) + 1, 2)[reps]
        late = int((poisson_regions(regions[:, 1:], lam, 1)[1] < 0).sum())
        passes = []
        cipher = streams._philox_pass

        def spy(seed, stream_ids, blocks):
            assert (np.asarray(stream_ids) == detail).all()
            parity = set((np.asarray(blocks) % 2).tolist())  # 1: block 0, 0: block 1
            assert len(parity) == 1
            passes.append(parity.pop())
            return cipher(seed, stream_ids, blocks)

        monkeypatch.setattr(streams, "_philox_pass", spy)
        span = engine._BATCH_WORDS // 4
        assert span == 2 * streams._CIPHER_PASS_BLOCKS
        assert math.ceil(len(reps) / span) == 4 and 0 < late < span
        for kill, block_1_rows in [(0.0, late), (0.3, len(reps))]:
            passes.clear()
            engine._single_cluster_days(seed, np.full(len(reps), level.code, dtype=np.uint8), reps,
                                        _paper_device(lam=lam, kill=kill))
            assert passes.count(1) == math.ceil(len(reps) / streams._CIPHER_PASS_BLOCKS)
            assert passes.count(0) == math.ceil(block_1_rows / streams._CIPHER_PASS_BLOCKS)
            assert passes == sorted(passes, reverse=True)  # every block-1 pass comes last

    def test_paper_run_makes_17_cipher_passes(self, monkeypatch):
        # 27 when each level ran as its own task
        counters = self._enciphered(monkeypatch)
        run_simulation(parse_config(paper_config()), workers=1)
        assert len(counters) == 17
        assert sum(len(c) for c in counters) == 73_293

    def test_channel_workload_makes_10_cipher_passes(self, monkeypatch):
        # 22 when each level ran as its own task
        counters = self._enciphered(monkeypatch)
        run_simulation(_bench_workload("channel"), workers=1)
        assert len(counters) == 10
        assert sum(len(c) for c in counters) == 32_773

    def test_dense_workload_makes_43_cipher_passes(self, monkeypatch):
        # 68 when each 8,192-row span of single-cluster rows made its own
        # block-0 and block-1 passes
        counters = self._enciphered(monkeypatch)
        run_simulation(_bench_workload("dense"), workers=1)
        assert len(counters) == 43
        assert sum(len(c) for c in counters) == 273_985


class TestPhiloxBuilds:
    """A ``RandomStream`` builds numpy's Philox once and continues it while
    its reads follow one another, so a count scan builds one per stream."""

    @staticmethod
    def _builds(monkeypatch) -> list:
        built = []
        philox = streams.Philox

        def spy(*args, **kwargs):
            built.append(kwargs.get("counter"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(streams, "Philox", spy)
        return built

    def test_count_scan_builds_one_philox(self, monkeypatch):
        n = 200_000
        built = self._builds(monkeypatch)
        rows, counts = engine._counts_for_chunk(42, engine._DOMAIN_COUNT, RiskLevel.SEVERE,
                                                7, n, 0.4)
        assert n > 3 * engine._BATCH_WORDS and built == [7 // 4]
        words = RandomStream(42, pack_stream_id(engine._DOMAIN_COUNT, RiskLevel.SEVERE.code, 0),
                             counter=7).raw_words(n)
        expect = scatter_regions(poisson_regions(words[:, None], 0.4, 1), n)
        assert np.array_equal(scatter_regions((rows, counts), n), expect)

    # paper: 4 levels, one task, one COUNT stream each (8 builds when every
    # 65,536-word span built its own); channel: 4 COUNT and 4 CHANNEL
    # streams of one span each; dense: 2 levels over 2 tasks (124 builds
    # when every span built its own)
    @pytest.mark.parametrize("name, builds", [("paper", 4), ("channel", 8), ("dense", 4)])
    def test_bench_workload_builds(self, monkeypatch, name, builds):
        built = self._builds(monkeypatch)
        run_simulation(_bench_workload(name), workers=1)
        assert len(built) == builds


def _traced_peak_mib(function, *args) -> float:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A full task's traced allocations stay within a fixed bound: every
    batched read is cut at ``_BATCH_WORDS`` words, and a run holds no
    R-length array. The bounds were set at twice the peaks first measured
    with numpy 2.4 (9.2 and 3.0 MiB for a task and its count reads), and
    at twice the peaks of whole runs since a level's sample is R and its
    drawn losses (6.4 and 3.0 MiB at 2**22 and 2**20 repetitions), and at
    12 MiB for the dense workload's two levels of 4e6 repetitions, and
    at twice the channel workload's peak (2.5 MiB). The peaks now read
    5.7, 5.0 (16% under its bound), 4.5, 2.0, 6.4 and 2.5 MiB."""

    def test_severe_paper_task(self):
        spec = replace(_paper_spec(repetitions=1 << 18), levels=(RiskLevel.SEVERE,))
        peak = _traced_peak_mib(_simulate_chunk, spec, 0, 1 << 18)
        assert peak < 18.5

    def test_count_ptrs_regions_of_a_kappa_2e6_task(self):
        # the COUNT draws of a full kappa = 2e6 task (rate kappa * theta = 40,
        # 32-word PTRS regions; 64 MiB if read at once); the whole task,
        # about 10 million clusters, is too slow for this suite
        rate = 2_000_000 * 2e-5
        peak = _traced_peak_mib(engine._counts_for_chunk, 42, engine._DOMAIN_COUNT,
                                RiskLevel.GUARDED, 0, 1 << 18, rate)
        assert peak < 6.0

    def test_guarded_level_of_2_22_repetitions_in_one_task(self):
        # one task over all 2**22 repetitions, whose arrays, like the
        # run's loss buffer, hold only its ~83,000 drawn rows; an R-length
        # array would add 32 MiB
        spec = _paper_spec(repetitions=1 << 22, levels=(RiskLevel.GUARDED,))
        assert engine._task_count(spec) == 1
        peak = _traced_peak_mib(run_simulation, spec, 1)
        assert peak < 12.9

    def test_dense_workload_holds_no_repetition_length_array(self):
        # guarded and elevated at R = 4e6: the buffer holds elevated's
        # 160,000 expected drawn losses (1.2 MiB); one R-length array
        # would be 30.5 MiB
        spec = _bench_workload("dense")
        assert spec.repetitions == 4_000_000
        peak = _traced_peak_mib(run_simulation, spec, 1)
        assert peak <= 12.0

    def test_one_worker_run_frees_each_task_before_the_next(self, monkeypatch):
        """A one-worker run computes a task while gathering the tasks before
        it, so it lets each task's losses go first: only the loss buffers
        hold what earlier tasks drew."""
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 200)
        spec = _paper_spec(device=_paper_device(theta=2e-4), repetitions=3_000,
                           levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        reference = render_json(run_simulation(spec, workers=1))
        task, held, live = engine._chunk_task, [], []

        def watched(args, **options):
            live.append(sum(ref() is not None for ref in held))
            out = task(args, **options)
            held.extend(weakref.ref(drawn if drawn.base is None else drawn.base)
                        for drawn, _, _ in out)
            return out

        monkeypatch.setattr(engine, "_chunk_task", watched)
        assert render_json(run_simulation(spec, workers=1)) == reference
        assert live == [0] * engine._task_count(spec)

    @pytest.mark.parametrize("seed, rate", [(2, 1e-3), (5, 0.02)])
    def test_count_arrays_grow_past_the_expected_rows(self, monkeypatch, seed, rate):
        monkeypatch.setattr(engine, "_BATCH_WORDS", 1_000)
        n, level = 100_000, RiskLevel.GUARDED
        words = RandomStream(seed, pack_stream_id(engine._DOMAIN_COUNT, level.code, 0)).raw_words(n)
        expect = scatter_regions(poisson_regions(words.reshape(n, 1), rate,
                                                 engine._COUNT_MAX_ATTEMPTS), n)
        rows, counts = engine._counts_for_chunk(seed, engine._DOMAIN_COUNT, level, 0, n, rate)
        assert len(rows) > math.ceil(n * rate)  # more than the arrays first held
        assert np.array_equal(rows, np.flatnonzero(expect))
        assert np.array_equal(counts, expect[rows])

    def test_unallocatable_loss_array_is_a_config_error(self):
        # the buffer holds every level's ceil(2**52 * rate) expected drawn
        # losses, at rates 0.02, 0.04, 0.2 and 0.4
        with pytest.raises(ConfigError, match="need a 23779006032516232-byte loss buffer"):
            run_simulation(_paper_spec(repetitions=2 ** 52), workers=1)

    def test_channel_workload(self):
        # the paper preset with a lognormal channel at R = 1e4, the only
        # bench workload that runs the channel path
        peak = _traced_peak_mib(run_simulation, _bench_workload("channel"), 1)
        assert peak < 5.0

    def test_guarded_level_of_2_20_repetitions(self):
        # the loss buffer of the level's ~21,000 expected drawn rows, plus
        # one task's working set; an R-length array would add 8 MiB
        spec = _paper_spec(repetitions=1 << 20, levels=(RiskLevel.GUARDED,))
        peak = _traced_peak_mib(run_simulation, spec, 1)
        assert peak < 6.1


_FAULTS_SCRIPT = """
import json, os, resource
import cyberrisk.cli
import cyberrisk.engine as engine
from cyberrisk.config import paper_config, parse_config
from cyberrisk.report import render_json

record = {"set_at_import": engine._keep_freed_memory.cache_info().currsize}
spec = parse_config({**paper_config(), "repetitions": 100_000})
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run_simulation(spec, workers=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
record["arena_set_by_paper"] = engine._share_main_arena.cache_info().currsize
# a run of 4e6 repetitions of two quiet levels, two tasks: one worker on
# 1 CPU scans counts on one thread, one worker on 2 CPUs on two, and 2
# workers on 2 CPUs run a pool
large = parse_config({**paper_config(), "repetitions": 4_000_000, "levels": ["guarded", "elevated"]})
texts = []
for cpus, workers in [(1, 1), (2, 1), (2, 2)]:
    os.cpu_count = lambda: cpus
    texts.append(render_json(engine.run_simulation(large, workers=workers)))
record.update(mallopt=engine._keep_freed_memory(), faults=faults, tasks=engine._task_count(large),
              same_bytes=texts == [texts[0]] * 3,
              arena_set_by_helper=engine._share_main_arena.cache_info().currsize)
print(json.dumps(record))
"""


class TestWorkingMemory:
    """The engine raises glibc's mmap and trim thresholds on its first run
    (module docstring, "Working memory"), so a later run faults in almost
    no fresh page: in this test's process, the second paper run took about
    3,000 minor faults without it and under 40 with it."""

    def test_warm_paper_run_takes_almost_no_minor_faults(self):
        src = str(Path(engine.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        record = json.loads(done.stdout)
        assert record["set_at_import"] == 0  # importing the package and its CLI sets nothing
        # the arena cap waits for the first helper thread, which paper runs never start
        assert (record["arena_set_by_paper"], record["arena_set_by_helper"]) == (0, 1)
        assert record["tasks"] == 2
        assert record["same_bytes"]  # on one thread, on two, and on 2 workers
        if not record["mallopt"]:
            pytest.skip("the C library has no mallopt, or it refused the thresholds")
        assert record["faults"][1] <= 100, record["faults"]


_POOL_MODULES = ("concurrent.futures", "logging")


def _loaded_after(script: str) -> list:
    """Which of ``_POOL_MODULES`` a fresh interpreter on this package has
    loaded after running ``script``."""
    src = str(Path(engine.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += f"\nimport json, sys\nprint(json.dumps([m for m in {_POOL_MODULES!r} if m in sys.modules]))\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestImportFootprint:
    """Only a run resolved to more than one worker imports the process
    pool: a one-worker run, a run of one task at any worker count, and
    importing what ``bench/probe.py`` times leave ``concurrent.futures``
    and the ``logging`` it brings unloaded."""

    def test_one_worker_run_and_render_load_no_pool(self):
        assert _loaded_after(
            "from cyberrisk.config import paper_config, parse_config\n"
            "from cyberrisk.engine import run_simulation\n"
            "from cyberrisk.report import render_json\n"
            "spec = parse_config({**paper_config(), 'repetitions': 2000, 'portfolio_size': 100})\n"
            "assert render_json(run_simulation(spec, workers=1))\n") == []

    def test_importing_config_engine_and_report_loads_no_pool(self):
        assert _loaded_after("import cyberrisk.config, cyberrisk.engine, cyberrisk.report") == []

    def test_default_run_of_one_task_loads_no_pool_on_four_cpus(self):
        assert _loaded_after(
            "import os\n"
            "os.cpu_count = lambda: 4\n"
            "from cyberrisk.config import paper_config, parse_config\n"
            "from cyberrisk.engine import run_simulation\n"
            "spec = parse_config({**paper_config(), 'repetitions': 2000})\n"
            "assert run_simulation(spec, workers=None).levels\n") == []

    def test_default_cli_simulate_of_the_paper_loads_no_pool_or_logging(self, tmp_path):
        config, out = tmp_path / "paper.json", tmp_path / "report.json"
        config.write_text(json.dumps(paper_config()))
        assert _loaded_after(
            "import os\n"
            "os.cpu_count = lambda: 4\n"
            "import cyberrisk.cli\n"
            f"assert cyberrisk.cli.main(['simulate', '--config', {str(config)!r},\n"
            f"                          '--format', 'json', '--out', {str(out)!r}]) == 0\n") == []
        assert json.loads(out.read_text())["levels"]


class _InlinePool:
    """A process pool that runs each task in this process on submission."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, function, task):
        future = concurrent.futures.Future()
        future.set_result(function(task))
        return future


def _tiny_pin(name: str) -> str:
    """``bench/pins.json``'s seed-42 digest of a tiny bench workload."""
    pins = json.loads((Path(__file__).parents[1] / "bench" / "pins.json").read_text())
    return pins["tiny"][name]["42"]


class TestTwoThreadCountScan:
    """A task of a one-worker run with a CPU to spare scans the count words
    of levels 1, 3, ... on one helper thread when the scan is long (module
    docstring, "Batched resolution"); the bytes do not depend on it, and no
    thread outlives the run."""

    @pytest.fixture()
    def helpers(self, monkeypatch):
        """The helper threads the engine starts, one entry per start."""
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        return started

    @pytest.mark.parametrize("name", ["paper", "dense"])
    def test_tiny_bench_specs_give_the_pinned_bytes_on_two_threads_and_one(
            self, monkeypatch, helpers, name):
        spec = _bench_workload(name, tiny=True)
        assert engine._task_count(spec) == 1
        threads = threading.active_count()
        digests = []
        monkeypatch.setattr(engine, "_HELPER_WORDS", 0)
        for cpus, started in [(2, 1), (1, 0)]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            helpers.clear()
            text = render_json(run_simulation(spec, workers=1))
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            assert len(helpers) == started, cpus
            assert threading.active_count() == threads
        assert digests == [_tiny_pin(name)] * 2

    def test_bytes_hold_under_a_short_switch_interval(self, monkeypatch, helpers):
        # both threads write their levels' slots of one list; switching
        # threads every 10 microseconds would expose a lost or misplaced one
        monkeypatch.setattr(engine, "_HELPER_WORDS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = _bench_workload("paper", tiny=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            texts = {render_json(run_simulation(spec, workers=1)) for _ in range(5)}
        finally:
            sys.setswitchinterval(interval)
        assert len(helpers) == 5
        assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [_tiny_pin("paper")]

    @pytest.mark.parametrize("share", [1, 0], ids=["helper", "caller"])
    def test_a_scan_error_propagates_unchanged_and_the_helper_is_joined(
            self, monkeypatch, helpers, share):
        spec = _bench_workload("dense", tiny=True)
        raising, scan = spec.levels[share], engine._counts_for_chunk
        error, raised_on = RuntimeError("scan failed"), []

        def failing_scan(seed, domain, level, *args):
            if level == raising:
                raised_on.append(threading.current_thread())
                raise error
            return scan(seed, domain, level, *args)

        monkeypatch.setattr(engine, "_counts_for_chunk", failing_scan)
        monkeypatch.setattr(engine, "_HELPER_WORDS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_simulation(spec, workers=1)
        assert caught.value is error
        assert raised_on == [helpers[0] if share else threading.main_thread()]
        assert threading.active_count() == threads

    def test_only_a_long_scan_of_one_worker_with_an_idle_cpu_takes_the_helper(
            self, monkeypatch, helpers):
        """On 2 CPUs at one worker, paper (4e5 count words) and channel
        (4e4) scan on one thread, and dense (4e6 words in each of its two
        tasks) on two. A pool's workers start none: dense at the default
        worker count runs a pool of 2 on 2 CPUs, and on 3, where a helper
        per worker would put 4 threads on 3 CPUs."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        threads = threading.active_count()
        for name, cpus, workers, started in [("paper", 2, 1, 0), ("channel", 2, 1, 0),
                                             ("dense", 2, 1, 2), ("dense", 2, None, 0),
                                             ("dense", 3, None, 0)]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            helpers.clear()
            run_simulation(_bench_workload(name), workers=workers)
            assert len(helpers) == started, (name, cpus, workers)
            assert threading.active_count() == threads


class TestCipherPassPaths:
    """The compiled cipher pass and its numpy fallback give the same
    report bytes and encipher the same blocks. The fallback is taken when
    the loader gives no kernel, and when the compiler it would run is
    missing (with an empty cache, so nothing cached stands in for it)."""

    @pytest.fixture(params=["compiled", "no_kernel", "missing_compiler"])
    def pass_path(self, request, monkeypatch, tmp_path):
        """Whether the compiled pass runs, and a list that records every
        call of the numpy pass, under each way of choosing the pass."""
        streams._philox_kernel.cache_clear()
        request.addfinalizer(streams._philox_kernel.cache_clear)
        if request.param == "no_kernel":
            monkeypatch.setattr(streams, "_philox_kernel", lambda: None)
        elif request.param == "missing_compiler":
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
            monkeypatch.setattr(streams, "_COMPILE", (str(tmp_path / "no-cc"), *streams._COMPILE[1:]))
            assert streams._philox_kernel() is None
            assert list((tmp_path / "cyberrisk").iterdir()) == []  # no temporary file left
        elif streams._philox_kernel() is None:
            pytest.skip("no working C compiler")
        calls, reference = [], streams._philox_pass_numpy
        monkeypatch.setattr(streams, "_philox_pass_numpy",
                            lambda *args: calls.append(1) or reference(*args))
        return request.param == "compiled", calls

    @pytest.mark.parametrize("name", ["paper", "channel", "dense"])
    def test_tiny_bench_specs_give_the_pinned_bytes(self, pass_path, name):
        compiled, numpy_passes = pass_path
        text = render_json(run_simulation(_bench_workload(name, tiny=True), workers=1))
        assert hashlib.sha256(text.encode()).hexdigest() == _tiny_pin(name)
        assert bool(numpy_passes) is not compiled

    def test_paper_run_makes_the_same_passes(self, monkeypatch, pass_path):
        compiled, numpy_passes = pass_path
        counters = TestCipherWork._enciphered(monkeypatch)
        run_simulation(parse_config(paper_config()), workers=1)
        assert len(counters) == 17 and sum(len(c) for c in counters) == 73_293
        assert len(numpy_passes) == (0 if compiled else 17)
