"""Loss arithmetic, and one-device portfolios as the engine draws them."""

from decimal import Decimal
import math
import warnings

import numpy as np
import pytest

from cyberrisk.config import paper_config, parse_config
from cyberrisk.distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    compound_count_pmf_table,
)
from cyberrisk.engine import SimulationSpec, _simulate_chunk
from cyberrisk.errors import DomainError
from cyberrisk.loss_model import (
    AggregateLossParams,
    DeviceParameters,
    discount_factor,
    expected_capped_loss_days,
    expected_present_loss,
)
from cyberrisk.scenario import RiskLevel, level_parameters

from oracles import (
    compound_count_pmf_bruteforce,
    count_pmf_decimal,
    expected_capped_loss_days_decimal,
    panjer_compound_poisson_cdf,
    scatter_chunk,
)
from test_golden import CASES, case_document


def _device(theta=1.0, lam=0.0, b=1000.0, r=0.03, kill=0.0, horizon=365):
    return DeviceParameters(
        daily_loss=b, discount_rate=r, horizon_days=horizon, kill_rate=kill,
        counts=CountDistributionParams(theta=theta, lambda_cluster=lam),
    )


class TestDiscountFactor:
    def test_values(self):
        assert discount_factor(0.0) == 1.0
        assert discount_factor(0.03) == pytest.approx(0.9708738, abs=5e-8)
        assert discount_factor(1.0) == 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            discount_factor(-1.0)


def one_device_losses(device, repetitions, seed, channel=None):
    """(present losses, cap events) the engine draws for a one-device
    portfolio: each repetition is one device-year of ``device``."""
    spec = SimulationSpec(device=device, portfolio_size=1, repetitions=repetitions, seed=seed,
                          levels=(RiskLevel.GUARDED,), aggregate_channel=channel)
    return scatter_chunk(_simulate_chunk(spec, 0, repetitions)[0], repetitions)


class TestSimulateDevice:
    def test_present_loss_formula(self):
        # every loss is v * b * k for a whole number of loss-days k
        losses, _ = one_device_losses(_device(theta=3.0), 2000, 11)
        days = np.round(losses / (1000 / 1.03))
        assert losses == pytest.approx(days * 1000 / 1.03, rel=1e-12)
        assert (days == 3).any()

    def test_killed_device_loses_nothing(self):
        # enormous kill hazard: survival is essentially impossible
        losses, _ = one_device_losses(_device(theta=5.0, kill=50.0), 1000, 12)
        assert (losses == 0.0).all()

    def test_zero_daily_loss(self):
        losses, _ = one_device_losses(_device(theta=5.0, b=0.0), 1000, 13)
        assert (losses == 0.0).all()

    def test_cap_at_horizon(self):
        losses, caps = one_device_losses(_device(theta=4.0, lam=400.0, horizon=365), 40, 14)
        days = np.round(losses / (1000 / 1.03))
        assert losses == pytest.approx(days * 1000 / 1.03, rel=1e-12)
        assert caps > 0 and days.max() == 365

    def test_survival_probability(self):
        # among the repetitions a kill-free run shows attacked, the share
        # that still lose something matches exp(-kill_rate)
        attacked = one_device_losses(_device(theta=0.5), 20_000, 15)[0] > 0
        killed, _ = one_device_losses(_device(theta=0.5, kill=0.7), 20_000, 15)
        assert abs((killed[attacked] > 0).mean() - math.exp(-0.7)) < 0.025


class TestAggregateLoss:
    def test_zero_rate(self):
        channel = AggregateLossParams(event_rate=0.0, severity=Fixed(10.0))
        device = _device(theta=3.0)
        with_channel, _ = one_device_losses(device, 1000, 20, channel)
        assert (with_channel == one_device_losses(device, 1000, 20)[0]).all()

    def test_wald_identity(self):
        channel = AggregateLossParams(event_rate=3.0, severity=Fixed(2.0))
        losses, _ = one_device_losses(_device(b=0.0), 1_000_000, 21, channel)
        assert abs(losses.mean() - 6.0) < 0.02

    @pytest.mark.parametrize("rate", [1.0, 2.0, 5.0])
    def test_panjer_oracle(self, rate):
        severity = DiscreteTable(values=(1.0, 2.0, 5.0, 10.0),
                                 probabilities=(0.4, 0.3, 0.2, 0.1))
        channel = AggregateLossParams(event_rate=rate, severity=severity)
        draws, _ = one_device_losses(_device(b=0.0), 100_000, 40 + int(rate), channel)
        grid = np.arange(0.0, 80.0, 1.0)
        oracle_cdf = panjer_compound_poisson_cdf(rate, severity.values,
                                                 severity.probabilities, grid)
        empirical_cdf = np.searchsorted(np.sort(draws), grid, side="right") / len(draws)
        assert np.max(np.abs(empirical_cdf - oracle_cdf)) <= 0.01

    def test_scalar_degenerate(self):
        channel = AggregateLossParams(event_rate=0.0, severity=Fixed(1.0))
        assert one_device_losses(_device(b=0.0), 1, 22, channel)[0].tolist() == [0.0]


class TestExpectedLoss:
    def test_capped_mean_matches_direct_sum(self):
        counts = CountDistributionParams(theta=2.0, lambda_cluster=1.5)
        table = compound_count_pmf_table(199, counts)
        horizon = 6
        direct = sum(min(n, horizon) * table[n] for n in range(200))
        assert expected_capped_loss_days(counts, horizon) == pytest.approx(direct, abs=1e-9)

    def test_no_cap_equals_wald_mean(self):
        counts = CountDistributionParams(theta=0.5, lambda_cluster=2.0)
        assert expected_capped_loss_days(counts, 10_000) == pytest.approx(counts.mean, rel=1e-9)

    def test_always_capped_regime(self):
        counts = CountDistributionParams(theta=400.0, lambda_cluster=10.0)
        assert expected_capped_loss_days(counts, 365) == 365.0

    def test_expected_present_loss_composition(self):
        dev = _device(theta=0.5, lam=2.0, b=100.0, r=0.0, kill=0.0, horizon=10_000)
        assert expected_present_loss(dev) == pytest.approx(100.0 * 1.5, rel=1e-9)
        dev_killed = _device(theta=0.5, lam=2.0, b=100.0, r=0.0, kill=0.7, horizon=10_000)
        assert expected_present_loss(dev_killed) == pytest.approx(
            100.0 * 1.5 * math.exp(-0.7), rel=1e-9)


# expected_capped_loss_days' error relative to the 60-digit oracle, at
# most: the bound was set before the first comparison, from the worst
# error measured on a 144-device grid (2.5e-5 at theta = 1e-12, lambda =
# 182, h = 200, m = 1.37). The premium takes the mass past its table as
# 1 - pmf.sum(), good to about 1e-16 absolute, against an E as small as
# theta.
_PREMIUM_BOUND = 3e-5


def _premium_error(theta: float, lam: float, horizon: int, multiplier: float) -> float:
    exact = expected_capped_loss_days_decimal(theta, lam, horizon, multiplier)
    got = expected_capped_loss_days(CountDistributionParams(theta, lam), horizon, multiplier)
    return float(abs(Decimal(got) - exact) / exact)


class TestPremiumAccuracy:
    """The Baseline premium against a 60-digit Panjer recursion
    (``tests/oracles.py``)."""

    @pytest.mark.parametrize("theta, lam", [(0.5, 2.0), (3.0, 0.5), (1.0, 0.0), (0.2, 30.0)])
    def test_oracle_matches_the_bruteforce_convolution(self, theta, lam):
        n_max = 60
        brute = compound_count_pmf_bruteforce(n_max, theta, lam, tol=1e-17)
        exact = np.array([float(p) for p in count_pmf_decimal(n_max, theta, lam)])
        # the brute force leaves out the clusters past a Poisson tail of 1e-17
        np.testing.assert_allclose(exact, brute, rtol=1e-10, atol=1e-16)
        for horizon, multiplier in ((10, 1.0), (9, 1.37), (40, 0.7)):
            n = np.arange(int(horizon / multiplier) + 1)
            expect = (multiplier * n * brute[n]).sum() + horizon * (1.0 - brute[n].sum())
            got = expected_capped_loss_days_decimal(theta, lam, horizon, multiplier)
            assert float(got) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("name", ["paper", *CASES])
    def test_golden_baseline_devices(self, name):
        spec = parse_config(paper_config() if name == "paper" else case_document(name))
        device = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
        assert _premium_error(device.counts.theta, device.counts.lambda_cluster,
                              device.horizon_days, device.loss_day_multiplier) <= _PREMIUM_BOUND

    @pytest.mark.parametrize("theta, lam, horizon, multiplier", [
        (1e-12, 182.0, 200, 1.37),  # the grid's worst
        (1e-12, 182.0, 200, 1.0),
        (2e-5, 182.0, 2000, 1.0),
        (2e-5, 182.0, 200, 1.0),
        (2e-5, 182.0, 365, 0.7),
        (50.0, 182.0, 200, 1.0),
        (50.0, 0.5, 365, 1.37),
        (1.0, 5.0, 365, 1.0),
    ])
    def test_grid_devices(self, theta, lam, horizon, multiplier):
        assert _premium_error(theta, lam, horizon, multiplier) <= _PREMIUM_BOUND


class TestLinearity:
    def test_present_loss_linear_in_daily_loss(self):
        from dataclasses import replace

        base = _device(theta=3.0, horizon=100_000)
        a, _ = one_device_losses(base, 1000, 30)
        b, _ = one_device_losses(replace(base, daily_loss=3000.0), 1000, 30)
        assert a.any()
        assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestLossDayMultiplier:
    def test_default_is_one_attack_one_day(self):
        dev = _device(theta=3.0)
        assert dev.loss_day_multiplier == 1.0

    def test_multiplier_scales_sub_cap_losses(self):
        from dataclasses import replace

        base = _device(theta=3.0, horizon=100_000)
        a, _ = one_device_losses(base, 1000, 31)
        b, _ = one_device_losses(replace(base, loss_day_multiplier=2.0), 1000, 31)
        assert a.any()
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_multiplier_respects_horizon_cap(self):
        from dataclasses import replace

        dev = replace(_device(theta=5.0, horizon=4), loss_day_multiplier=3.0)
        losses, caps = one_device_losses(dev, 1000, 32)
        assert caps > 0
        assert losses.max() <= 4 * 1000 / 1.03 + 1e-9

    def test_expected_loss_uses_multiplier(self):
        from dataclasses import replace

        dev = replace(_device(theta=0.5, lam=2.0, r=0.0, horizon=10_000),
                      loss_day_multiplier=2.5)
        assert expected_present_loss(dev) == pytest.approx(1000.0 * 2.5 * 1.5, rel=1e-9)

    def test_a_product_past_the_float_range_is_capped_without_a_warning(self):
        # 1e308 * n overflows to inf for n >= 2; the cap takes it to the horizon
        counts = CountDistributionParams(theta=2.0, lambda_cluster=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            days = expected_capped_loss_days(counts, 365, 1e308)
        assert days == pytest.approx(365.0 * (1.0 - math.exp(-2.0)), rel=1e-12)
