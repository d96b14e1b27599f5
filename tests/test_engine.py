"""Engine orchestration: determinism, reduction, and model equivalences."""

import numpy as np
import pytest

import cyberrisk.engine as engine
from cyberrisk.distributions import CountDistributionParams, Lognormal, Pareto, sample_poisson_batch
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
from cyberrisk.loss_model import AggregateLossParams, DeviceParameters, simulate_device
from cyberrisk.report import render_json
from cyberrisk.risk_measures import EmpiricalDistribution
from cyberrisk.scenario import RiskLevel, ScenarioConfig
from cyberrisk.streams import RandomStream, derive_stream, pack_stream_id


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

    def test_adding_levels_does_not_perturb_existing(self):
        spec_two = _paper_spec(repetitions=4000,
                               levels=(RiskLevel.GUARDED, RiskLevel.SEVERE))
        spec_four = _paper_spec(repetitions=4000)
        two = run_simulation(spec_two, workers=1)
        four = run_simulation(spec_four, workers=1)
        for level in (RiskLevel.GUARDED, RiskLevel.SEVERE):
            a, b = two.level_report(level), four.level_report(level)
            assert a.metrics == b.metrics
            assert a.premium_pool == b.premium_pool

    def test_seed_changes_results(self):
        a = run_simulation(_paper_spec(repetitions=4000), workers=1)
        b = run_simulation(_paper_spec(repetitions=4000, seed=43), workers=1)
        assert a.levels[0].metrics.expected_loss != b.levels[0].metrics.expected_loss


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
        losses, _ = _simulate_chunk(spec, RiskLevel.GUARDED, 0, reps)
        unit = 1000.0 / 1.03
        engine_days = np.round(losses / unit).astype(int)

        params = _paper_device(theta=theta, lam=lam)
        scalar_days = np.empty(reps, dtype=int)
        for i in range(reps):
            stream = derive_stream(999, 7000 + i)
            total = 0
            for _ in range(kappa):
                total += min(simulate_device(stream, params).loss_days, 365)
            scalar_days[i] = total

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
        losses, _ = _simulate_chunk(spec, RiskLevel.GUARDED, 0, reps)
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
        losses, _ = _simulate_chunk(spec, RiskLevel.HIGH, 0, 16384)
        more, _ = _simulate_chunk(spec, RiskLevel.HIGH, 16384, 100_000)
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
            expected_pool = spec.portfolio_size * (1 + spec.loading) * item.mitigation * per_device
            assert item.premium_pool == pytest.approx(expected_pool, rel=1e-12)
        # all levels share the pool under the global-mitigation preset
        pools = {item.premium_pool for item in report.levels}
        assert len(pools) == 1


def _reference_repetition_days(seed, level, rep, n_clusters, device, kappa):
    """One multi-cluster repetition resolved on its own DETAIL_SPILL stream,
    one stream read after another: (capped surviving loss-days, caps)."""
    stream = RandomStream(seed, pack_stream_id(6, level.code, rep))
    remainder = (1 << 64) % kappa
    placement = []
    while len(placement) < n_clusters:
        for word in stream.raw_words(n_clusters - len(placement)):
            if remainder == 0 or int(word) < (1 << 64) - remainder:
                placement.append(int(word) % kappa)
    extras = sample_poisson_batch(stream, device.counts.lambda_cluster, n_clusters)
    days = {}
    for where, extra in zip(placement, extras):
        days[where] = days.get(where, 0) + 1 + int(extra)
    affected = np.array([days[where] for where in sorted(days)])
    if device.kill_rate > 0.0:
        affected = affected[stream.uniforms(len(affected)) < np.exp(-device.kill_rate)]
    effective = device.loss_day_multiplier * affected
    capped = np.minimum(effective, float(device.horizon_days))
    return float(capped.sum()), int((effective > device.horizon_days).sum())


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
        expect = [_reference_repetition_days(42, RiskLevel.HIGH, int(rep), int(n), device, kappa)
                  for rep, n in zip(reps, n_clusters)]
        assert list(totals) == [days for days, _ in expect]
        assert caps == sum(c for _, c in expect)

    def test_batch_cap_does_not_change_losses(self, monkeypatch):
        channel = AggregateLossParams(event_rate=12.0, severity=Pareto(x_min=1000.0, alpha=2.5))
        spec = _paper_spec(device=_paper_device(theta=1e-3, lam=45.0, kill=0.2),
                           repetitions=3000, aggregate_channel=channel)
        whole = _simulate_chunk(spec, RiskLevel.SEVERE, 0, 3000)
        monkeypatch.setattr(engine, "_BATCH_WORDS", 100)
        split = _simulate_chunk(spec, RiskLevel.SEVERE, 0, 3000)
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

    def test_detail_regions_of_a_chunk_fit_one_batch(self):
        assert 4 * engine._DETAIL_BLOCKS_PER_REP * engine._CHUNK_REPS <= engine._BATCH_WORDS

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
