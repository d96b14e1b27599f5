"""Traffic-light calibration arithmetic."""

import math

import numpy as np
import pytest

from cyberrisk.distributions import CountDistributionParams
from cyberrisk.errors import DomainError
from cyberrisk.loss_model import DeviceParameters
from cyberrisk.scenario import (
    RiskLevel,
    ScenarioConfig,
    attacks_per_year,
    baseline_proportion,
    level_parameters,
)


class TestBaselineProportion:
    def test_published_chain_is_exact(self):
        assert baseline_proportion(525600, 0.5, 5.0, 10000) == 0.00002

    def test_one_minute_window(self):
        assert baseline_proportion(525600, 0.5, 1.0, 10000) == pytest.approx(0.0001, rel=1e-12)

    def test_single_attack_slot(self):
        # window equal to the whole exposed time: one slot, fraction 1/exposed
        exposed = 525600 * 0.5
        p = baseline_proportion(525600, 0.5, exposed, 10000)
        assert p == pytest.approx(1.0 / exposed / 10000, rel=1e-12)

    def test_inverse_population_homogeneity(self):
        p1 = baseline_proportion(525600, 0.5, 5.0, 10000)
        p2 = baseline_proportion(525600, 0.5, 5.0, 20000)
        assert p2 == pytest.approx(p1 / 2.0, rel=1e-12)

    def test_exposure_volume_invariance(self):
        # the attacked fraction cancels the exposed minutes, so scaling the
        # year (or the unrecorded fraction) leaves p unchanged
        p1 = baseline_proportion(525600, 0.5, 5.0, 10000)
        p2 = baseline_proportion(525600 * 3, 0.5, 5.0, 10000)
        p3 = baseline_proportion(525600, 0.25, 5.0, 10000)
        assert p2 == pytest.approx(p1, rel=1e-12)
        assert p3 == pytest.approx(p1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            baseline_proportion(0, 0.5, 5.0, 10000)
        with pytest.raises(DomainError):
            baseline_proportion(525600, 0.0, 5.0, 10000)
        with pytest.raises(DomainError):
            baseline_proportion(525600, 0.5, 0.0, 10000)
        with pytest.raises(DomainError):
            baseline_proportion(525600, 0.5, 5.0, 0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_window_or_year_is_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            baseline_proportion(525600, 0.5, value, 10000)
        with pytest.raises(DomainError, match="finite"):
            baseline_proportion(value, 0.5, 5.0, 10000)


def test_attacks_per_year_default_mapping():
    theta = attacks_per_year(0.00002)
    assert theta == pytest.approx(10.512, abs=1e-9)
    assert attacks_per_year(0.0) == 0.0


def _base_device(theta=10.512):
    return DeviceParameters(
        daily_loss=1000.0, discount_rate=0.03,
        counts=CountDistributionParams(theta=theta, lambda_cluster=0.5),
    )


class TestLevelParameters:
    def test_high_is_ten_times(self):
        config = ScenarioConfig()
        scaled = level_parameters(config, RiskLevel.HIGH, _base_device())
        assert scaled.counts.theta == pytest.approx(105.12, rel=1e-12)

    def test_severe_is_twenty_times(self):
        config = ScenarioConfig()
        scaled = level_parameters(config, RiskLevel.SEVERE, _base_device())
        assert scaled.counts.theta == pytest.approx(20 * 10.512, rel=1e-12)

    def test_baseline_is_identity(self):
        config = ScenarioConfig()
        base = _base_device()
        scaled = level_parameters(config, RiskLevel.BASELINE, base)
        assert scaled == base

    def test_order_preserving(self):
        config = ScenarioConfig()
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = _base_device(theta=float(rng.uniform(1e-6, 50.0)))
            thetas = [
                level_parameters(config, level, base).counts.theta
                for level in (RiskLevel.GUARDED, RiskLevel.ELEVATED, RiskLevel.HIGH, RiskLevel.SEVERE)
            ]
            assert thetas == sorted(thetas)
            assert thetas[0] <= thetas[1] < thetas[2] < thetas[3]

    def test_everything_else_unchanged(self):
        config = ScenarioConfig()
        base = _base_device()
        scaled = level_parameters(config, RiskLevel.SEVERE, base)
        assert scaled.daily_loss == base.daily_loss
        assert scaled.discount_rate == base.discount_rate
        assert scaled.horizon_days == base.horizon_days
        assert scaled.kill_rate == base.kill_rate
        assert scaled.counts.lambda_cluster == base.counts.lambda_cluster


class TestMitigationPresets:
    def test_default_follows_sentence_reading(self):
        config = ScenarioConfig()
        assert config.mitigation_alphas[RiskLevel.GUARDED] == 0.9
        for level in (RiskLevel.BASELINE, RiskLevel.ELEVATED, RiskLevel.HIGH, RiskLevel.SEVERE):
            assert config.mitigation_alphas[level] == 1.0

    def test_global_preset(self):
        config = ScenarioConfig(mitigation_alphas={level: 0.9 for level in RiskLevel})
        for level in RiskLevel:
            assert config.mitigation_alphas[level] == 0.9

    def test_multiplier_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(intensity_multipliers={
                RiskLevel.BASELINE: 1.0, RiskLevel.GUARDED: 1.0, RiskLevel.ELEVATED: 10.0,
                RiskLevel.HIGH: 10.0, RiskLevel.SEVERE: 20.0,
            })
        with pytest.raises(DomainError):
            ScenarioConfig(mitigation_alphas={level: 0.0 for level in RiskLevel})
