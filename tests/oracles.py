"""Independent oracles used across the test suite.

Everything here is deliberately written against scipy / first principles,
never by calling the implementation under test, so each check is a true
dual route: closed form vs brute force, sampler vs recursion, etc.
"""

import math

import numpy as np
from scipy import stats
from scipy.special import gammaln


def compound_count_pmf_bruteforce(n_max: int, theta: float, lam: float,
                                  tol: float = 1e-12) -> np.ndarray:
    """pmf of M = sum over K clusters of (1 + Poisson(lam)), K ~ Poisson(theta),
    by explicit convolution of the cluster-size distribution.

    Truncates the cluster count K once its remaining Poisson mass drops
    below ``tol`` and each convolution at n_max.
    """
    # single-cluster pmf on 0..n_max: shifted Poisson, mass at c >= 1
    c = np.arange(n_max + 1)
    single = np.zeros(n_max + 1)
    single[1:] = stats.poisson.pmf(c[1:] - 1, lam) if lam > 0 else 0.0
    if lam == 0:
        single[:] = 0.0
        if n_max >= 1:
            single[1] = 1.0

    out = np.zeros(n_max + 1)
    out[0] = stats.poisson.pmf(0, theta)
    conv = single.copy()
    k = 1
    while True:
        pk = stats.poisson.pmf(k, theta)
        out += pk * conv
        if stats.poisson.sf(k, theta) < tol:
            break
        conv = np.convolve(conv, single)[: n_max + 1]
        k += 1
    return out


def compound_count_draws(rng: np.random.Generator, theta: float, lam: float,
                         size) -> np.ndarray:
    """Draws of M = K + Poisson(lam * K), K ~ Poisson(theta): K clusters of
    1 + Poisson(lam) events each, since a sum of K independent Poisson(lam)
    sizes is Poisson(lam * K). Drawn with numpy's own generator."""
    clusters = rng.poisson(theta, size)
    return clusters + rng.poisson(lam * clusters)


def ptrs_attempt_gammaln(u: np.ndarray, v: np.ndarray, rate: float):
    """One PTRS attempt (Hormann 1993) per (u, v) pair, as the package's
    sampler computed it when every log(k!) came from
    ``scipy.special.gammaln``; returns (accepted mask, k as int64)."""
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2.0)
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    us = 0.5 - np.abs(u - 0.5)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + rate + 0.43)
    fastpath = (us >= 0.07) & (v <= vr)
    invalid = (k < 0) | ((us < 0.013) & (v > us))
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.log(v * inv_alpha / (a / (us * us) + b))
        rhs = k * math.log(rate) - rate - gammaln(k + 1.0)
        slowpath = lhs <= rhs
    return fastpath | (~invalid & slowpath), k.astype(np.int64)


def panjer_compound_poisson_cdf(rate: float, values, probabilities, x_grid) -> np.ndarray:
    """CDF of a compound Poisson sum with a discrete severity, by Panjer's
    recursion on the integer lattice spanned by the severity support.

    ``values`` must be positive multiples of a common step for the lattice
    to be exact. The step is their gcd when every value is an integer and
    ``min(values) / 64`` otherwise.
    """
    values = np.asarray(values, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if np.all(values == np.round(values)):
        step = float(np.gcd.reduce(values.astype(np.int64)))
    else:
        step = values.min() / 64.0
    lattice = np.round(values / step).astype(int)
    # verify the lattice is exact for these values
    assert np.allclose(lattice * step, values, rtol=0, atol=1e-9), "severity not on a lattice"

    max_x = float(np.max(x_grid))
    # extend far enough that truncated mass is negligible at the grid edge
    n_points = int(np.ceil(max_x / step)) + int(lattice.max()) * 64 + 1

    # Panjer recursion for the Poisson case, straight from the definition
    # (clarity over speed in an oracle): g_s = (rate/s) sum_v v f(v) g_{s-v}
    g = np.zeros(n_points)
    g[0] = np.exp(-rate)  # severity support is strictly positive here
    support = [int(v) for v in lattice]
    for s in range(1, n_points):
        acc = 0.0
        for v, p in zip(support, probabilities):
            if v <= s:
                acc += v * p * g[s - v]
        g[s] = (rate / s) * acc
    cdf_lattice = np.cumsum(g)
    idx = np.minimum((np.floor(np.asarray(x_grid, dtype=float) / step + 1e-9)).astype(int),
                     n_points - 1)
    return cdf_lattice[idx]


def nearest_rank_var_bruteforce(sorted_losses, level: float) -> float:
    """Smallest sample value whose empirical CDF weakly exceeds the level,
    found by linear scan."""
    n = len(sorted_losses)
    for k in range(1, n + 1):
        if k / n >= level:
            return float(sorted_losses[k - 1])
    return float(sorted_losses[-1])


def tail_mean_bruteforce(values, threshold: float) -> float:
    """Mean of all values >= threshold."""
    tail = [v for v in values if v >= threshold]
    return sum(tail) / len(tail)


def shortfall_prob_bruteforce(values, pool: float) -> float:
    return sum(1 for v in values if pool <= v) / len(values)


def expected_shortfall_bruteforce(values, pool: float) -> float:
    return sum(max(v - pool, 0.0) for v in values) / len(values)


def total_variation(counts: np.ndarray, pmf: np.ndarray, n_draws: int) -> float:
    """TV distance between an empirical histogram and an exact pmf, with
    the pmf's truncated tail mass counted in full."""
    k = max(len(counts), len(pmf))
    emp = np.zeros(k)
    emp[: len(counts)] = counts / n_draws
    exact = np.zeros(k)
    exact[: len(pmf)] = pmf
    return 0.5 * (np.abs(emp - exact).sum() + max(0.0, 1.0 - exact.sum()))
