"""The engine's tables against the exact distribution they estimate.

Without a channel, a level's portfolio loss is v * b * S, where S is its
portfolio loss-days on the integer lattice, and S's pmf is exact
(``oracles.exact_portfolio_pmf``). Every E(P1), Prob(Shortfall),
E(Shortfall) and VaR(rho) of the seed-42 table at R = 1e5 is checked
against it, with bounds fixed before the first run:

* |z| <= 4.5 for E(P1), Prob(Shortfall) and E(Shortfall), each a sample
  mean over R repetitions, z its error over the exact standard error;
* each VaR(rho) lies in the order-statistic band rho +- 3 sqrt(rho (1 -
  rho) / R) (David & Nagaraja 2003): the exact cdf reaches rho - band at
  the reported value and stays at or below rho + band one lattice step
  below it.
"""

import math

import numpy as np
import pytest

from cyberrisk.config import paper_config, parse_config
from cyberrisk.engine import run_simulation
from cyberrisk.loss_model import expected_present_loss
from cyberrisk.scenario import level_parameters

from oracles import exact_portfolio_pmf

Z_BOUND = 4.5
VAR_BAND_SIGMAS = 3.0


def _z(estimate: float, values: np.ndarray, pmf: np.ndarray, reps: int) -> float:
    """(estimate - E[X]) over the standard error of a mean of ``reps``
    draws of X, X taking ``values[s]`` with probability ``pmf[s]``."""
    mean = pmf @ values
    sd = math.sqrt(max(pmf @ (values - mean) ** 2, 0.0) / reps)
    if sd == 0.0:
        return 0.0 if estimate == mean else math.inf
    return (estimate - mean) / sd


def test_exact_pmf_is_a_distribution_with_the_premium_mean():
    """The oracle's mass sums to 1, and its mean is kappa times the
    per-device expected present loss that prices the premium. The
    transform leaves rounding noise of about 1e-16 at each of the
    kappa * h + 1 points, which moves the mean by up to about 1e-8
    relative (7.2e-9 read; 4.0e-8 at lambda 5), hence the 1e-7 tolerance.
    The noise is absolute, so lambda 0, whose means are about 180 times
    the paper's smaller, reads up to 1.8e-7 and is left out."""
    for device in ({}, {"kill_rate": 0.3}, {"horizon_days": 200}, {"lambda_cluster": 5.0}):
        doc = paper_config()
        doc["device"].update(device)
        spec = parse_config(doc)
        unit = spec.device.daily_loss / (1.0 + spec.device.discount_rate)
        for level in spec.levels:
            pmf = exact_portfolio_pmf(spec, level)
            assert abs(pmf.sum() - 1.0) < 1e-9
            expected = spec.portfolio_size * expected_present_loss(
                level_parameters(spec.scenario, level, spec.device))
            assert math.isclose(unit * (pmf @ np.arange(len(pmf))), expected, rel_tol=1e-7)


@pytest.mark.parametrize("device", [{}, {"kill_rate": 0.3}, {"horizon_days": 200},
                                    {"lambda_cluster": 5.0}, {"lambda_cluster": 0.0}],
                         ids=["paper", "kill_0.3", "horizon_200", "lambda_5", "lambda_0"])
def test_table_matches_exact_distribution(device):
    doc = paper_config()
    doc["device"].update(device)
    spec = parse_config(doc)
    reps = spec.repetitions
    assert reps == 100_000 and spec.seed == 42
    unit = spec.device.daily_loss / (1.0 + spec.device.discount_rate)
    report = run_simulation(spec, workers=1)
    worst = 0.0
    for item in report.levels:
        pmf = exact_portfolio_pmf(spec, item.level)
        loss = unit * np.arange(len(pmf))
        alpha = spec.scenario.mitigation_alphas[item.level]
        metrics = item.metrics
        z = {
            "E(P1)": _z(item.expected_present_loss, alpha * loss, pmf, reps),
            "Prob(Shortfall)": _z(metrics.shortfall_probability,
                                  (loss >= item.premium_pool).astype(float), pmf, reps),
            "E(Shortfall)": _z(metrics.expected_shortfall,
                               np.maximum(loss - item.premium_pool, 0.0), pmf, reps),
        }
        worst = max(worst, *map(abs, z.values()))
        assert all(abs(value) <= Z_BOUND for value in z.values()), (item.level, z)

        cdf = np.cumsum(pmf)
        for rho, var in metrics.var.items():
            days = round(var / unit)
            assert math.isclose(var, unit * days, rel_tol=1e-12, abs_tol=1e-9)
            band = VAR_BAND_SIGMAS * math.sqrt(rho * (1.0 - rho) / reps)
            below = cdf[days - 1] if days > 0 else 0.0
            assert cdf[days] >= rho - band and below <= rho + band, (item.level, rho, var)
    print(f"largest |z| at {'/'.join(f'{k}={v}' for k, v in device.items()) or 'paper'}: "
          f"{worst:.2f}")
