"""The engine's tables against the exact distribution they estimate.

Without a channel, a level's portfolio loss is v * b * S, where S is its
portfolio loss-days on the integer lattice, and S's pmf is exact
(``oracles.exact_portfolio_pmf``). Every E(P1), Prob(Shortfall),
E(Shortfall), VaR(rho) and CTE(rho) of the seed-42 table is checked
against it, with bounds fixed before the first run:

* |z| <= 4.5 for E(P1), Prob(Shortfall) and E(Shortfall), each a sample
  mean over R repetitions, z its error over the exact standard error;
* |z| <= 4.5 for each CTE(rho), the mean of the sample points at or above
  the reported VaR(rho) = v: z is its error from the exact E[L | L >= v]
  over sqrt(Var(L | L >= v) / (R P(L >= v)));
* each VaR(rho) lies in the order-statistic band rho +- 3 sqrt(rho (1 -
  rho) / R) (David & Nagaraja 2003): the exact cdf reaches rho - band at
  the reported value and stays at or below rho + band one lattice step
  below it.

The cases are the paper preset at R = 1e5 and variants of it: kill_rate
0.3, horizon 200 (the cap binds), lambda_cluster 5 (cluster sizes by
inversion) and 0, kappa = 1e4 (two levels), theta = 2e-3 at R = 2e4,
where Severe's count rate kappa * theta * 20 = 40 takes the PTRS count
regions, and a discrete channel whose values are 4, 10 and 25 times
v * b, so that its sum lies on the same lattice; it carries 12% of
Severe's E(P1) and more at the other levels. That case takes discount
rate 0, so that v * b = 1000 and every loss on the lattice is exact: at
v * b = 1000 / 1.03 two losses at one lattice point can differ in their
last bit, which splits an atom of the sample at a reported VaR, and a
CTE then averages only part of it.
"""

import math

import numpy as np
import pytest

from cyberrisk.config import paper_config, parse_config
from cyberrisk.engine import run_simulation
from cyberrisk.loss_model import expected_present_loss
from cyberrisk.scenario import level_parameters

from oracles import compound_poisson_lattice_pmf, exact_portfolio_pmf, panjer_compound_poisson_cdf

Z_BOUND = 4.5
VAR_BAND_SIGMAS = 3.0
# the paper preset at discount rate 0, where v * b = 1000, with a discrete
# channel on that lattice
CHANNEL_OVERRIDES = {"device": {"discount_rate": 0.0}, "aggregate_channel": {
    "event_rate": 1.0,
    "severity": {"kind": "discrete", "values": [4000.0, 10000.0, 25000.0],
                 "probabilities": [0.5, 0.3, 0.2]}}}


def _z(estimate: float, values: np.ndarray, pmf: np.ndarray, reps: float) -> float:
    """(estimate - E[X]) over the standard error of a mean of ``reps``
    draws of X, X taking ``values[s]`` with probability ``pmf[s]``."""
    mean = pmf @ values
    sd = math.sqrt(max(pmf @ (values - mean) ** 2, 0.0) / reps)
    if sd == 0.0:
        return 0.0 if estimate == mean else math.inf
    return (estimate - mean) / sd


def test_exact_pmf_is_a_distribution_with_the_premium_mean():
    """The oracle's mass sums to 1, and its mean is kappa times the
    per-device expected present loss that prices the premium, to 1e-7
    relative. The oracle's transform spans only the support that holds
    mass, and it takes the count's tail without cancelling against 1, so
    the means agree to about 1e-10 relative (4.4e-10 read, at lambda 0),
    lambda 0's small means included. A channel adds its event rate times
    its mean severity."""
    for overrides in ({}, {"device": {"kill_rate": 0.3}}, {"device": {"horizon_days": 200}},
                      {"device": {"lambda_cluster": 5.0}}, {"device": {"lambda_cluster": 0.0}},
                      CHANNEL_OVERRIDES):
        doc = paper_config()
        doc["device"].update(overrides.get("device", {}))
        doc["aggregate_channel"] = overrides.get("aggregate_channel")
        spec = parse_config(doc)
        unit = spec.device.daily_loss / (1.0 + spec.device.discount_rate)
        channel = spec.aggregate_channel
        for level in spec.levels:
            pmf = exact_portfolio_pmf(spec, level)
            assert abs(pmf.sum() - 1.0) < 1e-9
            expected = spec.portfolio_size * expected_present_loss(
                level_parameters(spec.scenario, level, spec.device))
            if channel is not None:
                expected += channel.event_rate * channel.severity.mean
            assert math.isclose(unit * (pmf @ np.arange(len(pmf))), expected, rel_tol=1e-7)


def test_channel_pmf_matches_the_panjer_cdf_oracle():
    """The channel's lattice pmf, cumulated, is the Panjer cdf oracle's."""
    steps, probabilities = [4, 10, 25], [0.5, 0.3, 0.2]
    pmf = compound_poisson_lattice_pmf(1.0, steps, probabilities, 400)
    cdf = panjer_compound_poisson_cdf(1.0, steps, probabilities, np.arange(400.0))
    assert np.allclose(np.cumsum(pmf), cdf, rtol=1e-12, atol=1e-15)
    assert abs(pmf.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("overrides", [{}, {"device": {"kill_rate": 0.3}},
                                       {"device": {"horizon_days": 200}},
                                       {"device": {"lambda_cluster": 5.0}},
                                       {"device": {"lambda_cluster": 0.0}},
                                       {"portfolio_size": 10_000, "levels": ["guarded", "severe"]},
                                       {"device": {"theta": 2e-3}, "repetitions": 20_000},
                                       CHANNEL_OVERRIDES],
                         ids=["paper", "kill_0.3", "horizon_200", "lambda_5", "lambda_0",
                              "kappa_1e4", "theta_2e-3", "channel_discrete"])
def test_table_matches_exact_distribution(overrides, request):
    doc = paper_config()
    doc["device"].update(overrides.get("device", {}))
    doc.update({key: value for key, value in overrides.items() if key != "device"})
    spec = parse_config(doc)
    reps = spec.repetitions
    assert reps == doc["repetitions"] and spec.seed == 42
    unit = spec.device.daily_loss / (1.0 + spec.device.discount_rate)
    report = run_simulation(spec, workers=1)
    worst = 0.0
    for item in report.levels:
        pmf = exact_portfolio_pmf(spec, item.level)
        loss = unit * np.arange(len(pmf))
        alpha = spec.scenario.mitigation_alphas[item.level]
        if spec.aggregate_channel is not None:  # the channel carries at least 10% of E(P1)
            channel = spec.aggregate_channel
            assert channel.event_rate * channel.severity.mean >= 0.1 * (pmf @ loss)
        metrics = item.metrics
        z = {
            "E(P1)": _z(item.expected_present_loss, alpha * loss, pmf, reps),
            "Prob(Shortfall)": _z(metrics.shortfall_probability,
                                  (loss >= item.premium_pool).astype(float), pmf, reps),
            "E(Shortfall)": _z(metrics.expected_shortfall,
                               np.maximum(loss - item.premium_pool, 0.0), pmf, reps),
        }

        cdf = np.cumsum(pmf)
        for rho, var in metrics.var.items():
            days = round(var / unit)
            assert math.isclose(var, unit * days, rel_tol=1e-12, abs_tol=1e-9)
            band = VAR_BAND_SIGMAS * math.sqrt(rho * (1.0 - rho) / reps)
            below = cdf[days - 1] if days > 0 else 0.0
            assert cdf[days] >= rho - band and below <= rho + band, (item.level, rho, var)
            # the CTE is a mean over the about R P(L >= v) points at or above v
            at_or_above = pmf[days:].sum()
            z[f"CTE({rho})"] = _z(metrics.cte[rho], loss[days:], pmf[days:] / at_or_above,
                                  reps * at_or_above)
        worst = max(worst, *map(abs, z.values()))
        assert all(abs(value) <= Z_BOUND for value in z.values()), (item.level, z)
    print(f"largest |z| at {request.node.callspec.id}: {worst:.2f}")
