"""Engine orchestration: determinism, reduction, and model equivalences."""

from collections import Counter
from dataclasses import replace
import json
import math
import os
from pathlib import Path
import tracemalloc

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
    _row_totals,
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

from oracles import compound_count_draws, detail_spill_days, reference_chunk, scatter_chunk


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
        assert [engine._level_tasks(spec, level, 1) for level in spec.levels] == [3, 5, 24, 48]
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


def _bench_workload(name: str) -> SimulationSpec:
    """The spec of one workload of ``bench/workloads.json``."""
    document = json.loads((Path(__file__).parents[1] / "bench" / "workloads.json").read_text())
    return parse_config({**document["base"], **document["workloads"][name]["overrides"]})


class TestTaskCount:
    """A level is cut into tasks by the rows it expects to draw, not by the
    repetitions it scans."""

    def test_bench_workloads_are_one_task_per_level_per_worker(self):
        for name in ("paper", "channel", "dense"):
            spec = _bench_workload(name)
            for workers in (1, 2):
                assert [engine._level_tasks(spec, level, workers) for level in spec.levels] == \
                    [workers] * len(spec.levels), name

    def test_a_paper_run_takes_one_task_per_level(self, monkeypatch):
        spans = []
        task = engine._chunk_task

        def spy(args):
            spans.append(args[2:])
            return task(args)

        monkeypatch.setattr(engine, "_chunk_task", spy)
        run_simulation(parse_config(paper_config()), workers=1)
        assert spans == [(0, 100_000)] * 4

    def test_a_task_expects_at_most_2_18_drawn_rows(self):
        # Severe draws at rate 0.4: 400,000 expected drawn rows at R = 1e6
        spec = replace(parse_config(paper_config()), repetitions=1_000_000)
        assert [engine._level_tasks(spec, level, 1) for level in spec.levels] == [1, 1, 1, 2]
        assert engine._level_tasks(replace(spec, repetitions=7), RiskLevel.SEVERE, 8) == 7

    def test_bytes_equal_across_one_two_and_three_workers(self, monkeypatch):
        spec = replace(parse_config(paper_config()), repetitions=50_000)
        reference = render_json(run_simulation(spec, workers=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers also on two CPUs
        for workers in (2, 3):
            assert engine._level_tasks(spec, RiskLevel.GUARDED, workers) == workers
            assert render_json(run_simulation(spec, workers=workers)) == reference

    def test_a_pool_runs_at_most_two_tasks_per_worker_ahead(self, monkeypatch):
        """Tasks are submitted as their results are consumed, at most
        2 * workers of them ahead; the bytes do not depend on it."""
        monkeypatch.setattr(engine, "_TASK_DRAWN_ROWS", 200)
        spec = _paper_spec(device=_paper_device(theta=2e-4), repetitions=3_000,
                           levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        tasks = [engine._level_tasks(spec, level, 3) for level in spec.levels]
        assert tasks == [3, 15]
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

        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for workers in (2, 3):
            calls.clear()
            assert render_json(run_simulation(spec, workers=workers)) == reference
            assert calls["workers"] == workers
            assert calls["most"] == 2 * workers
            assert calls["submitted"] == calls["consumed"] == sum(tasks)


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
            assert [engine._level_tasks(spec, level, 1) for level in spec.levels] == [5, 23]
        samples = []

        def keep_sample(dist, premium_pool, levels):
            samples.append(dist.sorted_losses.copy())
            return summarize_level(dist, premium_pool, levels)

        monkeypatch.setattr(engine, "summarize_level", keep_sample)
        report = run_simulation(spec, workers=workers)
        for item, sample in zip(report.levels, samples, strict=True):
            losses, caps = scatter_chunk(_simulate_chunk(spec, item.level, 0, spec.repetitions),
                                         spec.repetitions)
            expect = np.sort(losses)
            assert sample.tobytes() == expect.tobytes()
            assert item.metrics == summarize_level(EmpiricalDistribution(losses),
                                                   item.premium_pool, spec.confidence_levels)
            assert item.cap_events == caps

    def test_tasks_return_only_nonzero_losses(self):
        spec = _paper_spec(device=_paper_device(theta=2e-4), repetitions=5_000)
        losses, caps = scatter_chunk(_simulate_chunk(spec, RiskLevel.GUARDED, 0, 5_000), 5_000)
        nonzero, task_caps = engine._chunk_task((spec, RiskLevel.GUARDED, 0, 5_000))
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
        losses, _ = scatter_chunk(_simulate_chunk(spec, RiskLevel.GUARDED, 0, reps), reps)
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
        losses, _ = scatter_chunk(_simulate_chunk(spec, RiskLevel.GUARDED, 0, reps), reps)
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
        losses, _ = scatter_chunk(_simulate_chunk(spec, RiskLevel.HIGH, 0, 16384), 16384)
        more, _ = scatter_chunk(_simulate_chunk(spec, RiskLevel.HIGH, 16384, 100_000),
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
            expected_pool = spec.portfolio_size * (1 + spec.loading) * alpha * per_device
            assert item.premium_pool == pytest.approx(expected_pool, rel=1e-12)
        # all levels share the pool under the global-mitigation preset
        pools = {item.premium_pool for item in report.levels}
        assert len(pools) == 1


class TestBatchedResolution:
    """The batched DETAIL_SPILL and CHANNEL_SEV resolution replays every
    repetition's own stream."""

    def test_row_totals_equal_ndarray_sum(self):
        rng = np.random.default_rng(3)
        lengths = np.concatenate([np.arange(0, 201), rng.integers(0, 300, 50)])
        values = rng.lognormal(0.0, 3.0, size=int(lengths.sum())) * 0.7
        totals = _row_totals(values, lengths)
        ends = np.cumsum(lengths)
        for total, end, length in zip(totals, ends, lengths):
            assert total == values[end - length:end].sum()

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
        totals, caps = _multi_cluster_days(42, RiskLevel.HIGH, reps, n_clusters, device, kappa)
        expect = [detail_spill_days(42, RiskLevel.HIGH, int(rep), int(n), device, kappa)
                  for rep, n in zip(reps, n_clusters)]
        assert list(totals) == [days for days, _ in expect]
        assert caps == sum(c for _, c in expect)

    @pytest.mark.parametrize("rate", [1e-300, 0.02, 0.7, 5.0, 29.99, 30.0, 45.0])
    def test_count_scan_keeps_the_nonzero_rows_of_every_span(self, monkeypatch, rate):
        # P(0) rounds to 1 at 1e-300 and is below 1/2 from 0.7 on; from 30
        # on, each repetition owns a 32-word PTRS region
        monkeypatch.setattr(engine, "_BATCH_WORDS", 4_096)
        seed, level, rep_lo, n = 11, RiskLevel.HIGH, 1_000, 20_000
        width = 1 if rate < 30.0 else 4 * engine._COUNT_BLOCKS_PER_REP
        stream_id = pack_stream_id(engine._DOMAIN_COUNT, level.code, 0)
        words = RandomStream(seed, stream_id, counter=rep_lo * width).raw_words(n * width)
        expect = poisson_regions(words.reshape(n, width), rate, 0, engine._COUNT_MAX_ATTEMPTS)
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
        whole = scatter_chunk(_simulate_chunk(spec, RiskLevel.SEVERE, 0, 3000), 3000)
        monkeypatch.setattr(engine, "_BATCH_WORDS", 100)
        split = scatter_chunk(_simulate_chunk(spec, RiskLevel.SEVERE, 0, 3000), 3000)
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
        _simulate_chunk(spec, RiskLevel.SEVERE, 0, 1 << 18)
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
            losses, caps = scatter_chunk(_simulate_chunk(spec, level, lo, hi), hi - lo)
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

    def test_paper_run_enciphers_at_most_75000_blocks(self, monkeypatch):
        counters = self._enciphered(monkeypatch)
        run_simulation(parse_config(paper_config()), workers=1)
        # 130,744 when every block of a DETAIL region was read and
        # multi-cluster prefixes held n * 4 + 8 words
        assert sum(len(c) for c in counters) <= 75_000

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
        resolved, _, _ = engine._single_cluster_days(seed, level, reps, device)
        enciphered = np.sort(np.concatenate(counters)) if counters else np.empty(0, np.uint64)

        # block 0 of repetition r's region is counter 2r + 1, block 1 is 2r + 2
        needs_block_1 = np.zeros(len(reps), dtype=bool)
        if lam >= 30.0:
            rejected_once = poisson_regions(regions, lam, 1, 1) < 0
            assert 0 < rejected_once.sum() < len(reps) // 4
            needs_block_1 |= rejected_once
            assert np.array_equal(resolved, poisson_regions(regions, lam, 1, 3) >= 0)
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
        late = int((poisson_regions(regions, lam, 1, 1) < 0).sum())
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
            engine._single_cluster_days(seed, level, reps, _paper_device(lam=lam, kill=kill))
            assert passes.count(1) == math.ceil(len(reps) / streams._CIPHER_PASS_BLOCKS)
            assert passes.count(0) == math.ceil(block_1_rows / streams._CIPHER_PASS_BLOCKS)
            assert passes == sorted(passes, reverse=True)  # every block-1 pass comes last

    def test_dense_workload_makes_at_most_44_cipher_passes(self, monkeypatch):
        # 68 when each 8,192-row span of single-cluster rows made its own
        # block-0 and block-1 passes
        counters = self._enciphered(monkeypatch)
        run_simulation(_bench_workload("dense"), workers=1)
        assert len(counters) <= 44
        assert sum(len(c) for c in counters) == 273_985


def _traced_peak_mib(function, *args) -> float:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A full task's traced allocations stay within a fixed bound: every
    batched read is cut at ``_BATCH_WORDS`` words. The bounds were set at
    twice the peaks first measured with numpy 2.4 (9.2, 3.0 and 15.6 MiB),
    and for the 2**22-repetition level at its 32 MiB loss array plus 16
    MiB. The peaks now read 7.8, 5.0 (16% under its bound), 10.7 and 37.0
    MiB."""

    def test_severe_paper_task(self):
        spec = _paper_spec(repetitions=1 << 18)
        peak = _traced_peak_mib(_simulate_chunk, spec, RiskLevel.SEVERE, 0, 1 << 18)
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
        # a 32 MiB loss array and one task over all 2**22 repetitions, whose
        # arrays hold only its ~83,000 drawn rows; n-length task arrays
        # would add 32 MiB
        spec = _paper_spec(repetitions=1 << 22, levels=(RiskLevel.GUARDED,))
        assert engine._level_tasks(spec, RiskLevel.GUARDED, 1) == 1
        peak = _traced_peak_mib(run_simulation, spec, 1)
        assert peak < 48.0

    @pytest.mark.parametrize("seed, rate", [(2, 1e-3), (5, 0.02)])
    def test_count_arrays_grow_past_the_expected_rows(self, monkeypatch, seed, rate):
        monkeypatch.setattr(engine, "_COUNT_SLACK", 0)
        monkeypatch.setattr(engine, "_BATCH_WORDS", 1_000)
        n, level = 100_000, RiskLevel.GUARDED
        words = RandomStream(seed, pack_stream_id(engine._DOMAIN_COUNT, level.code, 0)).raw_words(n)
        expect = poisson_regions(words.reshape(n, 1), rate, 0, engine._COUNT_MAX_ATTEMPTS)
        rows, counts = engine._counts_for_chunk(seed, engine._DOMAIN_COUNT, level, 0, n, rate)
        assert len(rows) > math.ceil(n * rate)  # more than the arrays first held
        assert np.array_equal(rows, np.flatnonzero(expect))
        assert np.array_equal(counts, expect[rows])

    def test_unallocatable_loss_array_is_a_config_error(self):
        with pytest.raises(ConfigError, match=f"need a {2 ** 55}-byte loss array"):
            run_simulation(_paper_spec(repetitions=2 ** 52), workers=1)

    def test_guarded_level_of_2_20_repetitions(self):
        # one R-length (8 MiB) loss array for the level, plus one task's
        # working set; the peak was 15.6 MiB also when tasks returned all
        # their losses
        spec = _paper_spec(repetitions=1 << 20, levels=(RiskLevel.GUARDED,))
        peak = _traced_peak_mib(run_simulation, spec, 1)
        assert peak < 31.2
