"""Independent oracles used across the test suite.

Everything here is deliberately written against scipy / first principles,
never by calling the implementation under test, so each check is a true
dual route: closed form vs brute force, sampler vs recursion, etc. The
exceptions are the draw-layout reference, which takes its per-draw
arithmetic (the inversion table, one PTRS attempt, the severity quantiles)
from the package and reads every word itself, the whole-array AS 241
normal quantile, which takes the package's coefficients, the whole-array
PTRS attempt, which takes the package's constants, and the full-row count
pmf build, which takes the package's log-factorials.
"""

from collections import Counter
from decimal import Decimal, localcontext
import math
from operator import mul

import numpy as np
from numpy.random import Philox
from scipy import stats
from scipy.special import gammaln, logsumexp

from cyberrisk.distributions import (
    DiscreteTable,
    _TABLE_BLOCK,
    _A,
    _B,
    _C,
    _D,
    _E,
    _F,
    _lgamma,
    _ptrs_attempt,
    _ptrs_consts,
    _severity_quantile,
    poisson_cum_table,
)
from cyberrisk.errors import DomainError


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


def compound_count_pmf_table_full_rows(n_max: int, params) -> np.ndarray:
    """``compound_count_pmf_table`` as it was built before its band build:
    every term of every row evaluated, exponentiated and summed by one
    ``ndarray.sum`` per row. The code below is that build, verbatim; the
    band build must return its bytes."""
    theta, lam = params.theta, params.lambda_cluster
    if n_max < 0 or not math.isfinite(n_max * lam + theta):
        raise DomainError(f"need n_max >= 0 and finite n_max*lambda + theta, got {n_max}*{lam} + {theta}")
    try:
        out = np.empty(n_max + 1)
        out[0] = math.exp(-theta)
        j_all = np.arange(1, n_max + 1, dtype=np.float64)
        j_log_theta = j_all * math.log(theta)
        j_rate = j_all * lam + theta
        log_fact = _lgamma(np.arange(1.0, n_max + 2.0))  # log(k!) for k = 0..n_max
        lg_j1 = log_fact[1:]
        if lam == 0.0:  # row n's one finite term is its own shift: its sum is 1.0
            out[1:] = [math.exp(t) for t in j_log_theta - j_rate - lg_j1]
            return out
        log_jlam = np.log(j_all * lam)
        steps = np.arange(n_max - 1, -n_max - 1, -1.0)
        tails = np.lib.stride_tricks.sliding_window_view(steps, n_max)[::-1]
        log_facts = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((log_fact[:n_max][::-1], np.full(n_max, np.inf))), n_max)[::-1]
        lo = 1
        while lo <= n_max:
            # the largest row count with rows * (lo + rows - 1) <= _TABLE_BLOCK
            rows = max(1, (math.isqrt((lo - 1) ** 2 + 4 * _TABLE_BLOCK) - lo + 1) // 2)
            hi = min(lo + rows, n_max + 1)
            terms = (j_log_theta[:hi - 1] + tails[lo:hi, :hi - 1] * log_jlam[:hi - 1]
                     - j_rate[:hi - 1] - lg_j1[:hi - 1] - log_facts[lo:hi, :hi - 1])
            shifts = terms.max(axis=1)
            scaled = np.exp(terms - shifts[:, None])
            for n, shift, row in zip(range(lo, hi), shifts, scaled):
                out[n] = math.exp(shift) * row[:n].sum()
            lo = hi
        return out
    except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
        raise DomainError(f"a count pmf table of {n_max + 1} rows needs {8 * 15 * (n_max + 1)} bytes, "
                          "more memory than can be allocated") from None


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


def ptrs_attempt_whole_array(u: np.ndarray, v: np.ndarray, rate: float, consts: tuple):
    """One PTRS attempt per (u, v) pair with the package's constants and
    log-factorial window, every term of the slow test evaluated on every
    element, as the package computed it before it ran that test only on
    the elements the fast test rejects; returns (accepted mask, k as
    int64)."""
    a, b, vr, inv_alpha, log_rate, first, log_fact = consts
    us = 0.5 - np.abs(u - 0.5)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + rate + 0.43)
    fastpath = (us >= 0.07) & (v <= vr)
    invalid = (k < 0) | ((us < 0.013) & (v > us))
    with np.errstate(divide="ignore", invalid="ignore"):
        at = (k - first).astype(np.intp)
        lg_k1 = log_fact.take(at, mode="clip")
        outside = (at.view(np.uintp) >= len(log_fact)) & ~(fastpath | invalid)
        if outside.any():
            lg_k1[outside] = _lgamma(k[outside] + 1.0)
        lhs = np.log(v * inv_alpha / (a / (us * us) + b))
        rhs = k * log_rate - rate - lg_k1
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


def count_pmf_decimal(n_max: int, theta: float, lam: float) -> list:
    """P(M = n) for n = 0..n_max as 60-digit ``Decimal``s, M the count of
    ``compound_count_pmf_table``: K ~ Poisson(theta) clusters of size
    S = 1 + Poisson(lam). Panjer's recursion (Panjer 1981), stable for a
    Poisson frequency: g(0) = e^-theta, g(n) = (theta/n) sum_s s f(s)
    g(n - s), with f(1) = e^-lam and f(s + 1) = f(s) lam / s. The terms
    of f below 10^-60 of its largest, whose products fall below the
    working precision, are left out."""
    with localcontext() as ctx:
        ctx.prec = 60
        theta, lam = Decimal(theta), Decimal(lam)
        f = [Decimal(0), (-lam).exp()]
        for s in range(1, n_max):
            f.append(f[s] * lam / s)
        cut = max(f) * Decimal("1e-60")
        kept = [s for s in range(1, n_max + 1) if f[s] >= cut]
        s_lo, s_hi = (kept[0], kept[-1]) if kept else (1, 0)
        sf = [s * f[s] for s in range(n_max + 1)]
        g = [(-theta).exp()]
        for n in range(1, n_max + 1):
            hi = min(s_hi, n)
            acc = sum(map(mul, sf[s_lo:hi + 1], reversed(g[n - hi:n - s_lo + 1])), Decimal(0))
            g.append(theta * acc / n)
        return g


def expected_capped_loss_days_decimal(theta: float, lam: float, h: int, m: float) -> Decimal:
    """E[min(m M, h)] to about 60 digits, from ``count_pmf_decimal`` over
    the rows n <= N = floor(h / m), the only rows where m n < h can hold:
    sum_{1<=n<=N} m n P(n) + h P(M > N). The tail is taken as
    (1 - e^-theta) - sum_{1<=n<=N} P(n), so that no operand of size 1
    cancels."""
    if m == 0.0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 60
        h, m = Decimal(h), Decimal(m)
        g = count_pmf_decimal(int(h / m), theta, lam)
        tail = (1 - (-Decimal(theta)).exp()) - sum(g[1:], Decimal(0))
        return m * sum((n * p for n, p in enumerate(g)), Decimal(0)) + h * tail


def compound_poisson_lattice_pmf(rate: float, steps, probabilities, size: int) -> np.ndarray:
    """P(C = s) for s = 0..size-1, C the sum of a Poisson(rate) number of
    independent sizes, each ``steps[j]`` (a positive integer) with
    probability ``probabilities[j]``, by Panjer's recursion (Panjer 1981):
    g(0) = e^-rate, g(s) = (rate/s) sum_j k_j p_j g(s - k_j)."""
    weights = [(int(k), rate * k * p) for k, p in zip(steps, probabilities)]
    assert all(k >= 1 for k, _ in weights), "sizes must be positive lattice steps"
    g = np.zeros(size)
    g[0] = math.exp(-rate)
    for s in range(1, size):
        g[s] = math.fsum(w * g[s - k] for k, w in weights if k <= s) / s
    return g


def exact_portfolio_pmf(spec, level, tail: float = 1e-20) -> np.ndarray:
    """P(S = s) for s = 0..top-1: the exact distribution of a level's
    portfolio loss in units of v * b, where S is the sum over kappa devices
    of D = 1(survived) * min(m M, h), plus the channel's sum when the spec
    has one. A repetition's loss is v * b * S.

    D's pmf is built from ``compound_count_pmf_bruteforce`` at the level's
    theta, its cluster count truncated at a Poisson tail below ``tail``:
    mass m n for the rows m n < h, the rest of M's mass at h, all of it
    scaled by P(survive) = e^-kill_rate, and the killed devices at 0. The
    rest of M's mass is P(M > 0) - P(0 < m M < h), two terms of size
    theta, since 1 - (sum of the rows) would err by about 1e-16.

    A channel must be ``discrete`` with every value an integer multiple
    k_j of v * b. Its sum C is then compound Poisson on the same lattice,
    its pmf from ``compound_poisson_lattice_pmf``, and S adds it to the
    devices' loss-days by one more factor in the transform.

    The kappa-fold convolution is one ``rfft`` raised to the power kappa,
    times the channel's ``rfft``, then one ``irfft`` (Embrechts & Frei
    2009), over the support that holds mass: ``top`` is the least s at
    which a Chernoff bound, min over t of e^(-t s) E[e^(t S)], puts at most
    ``tail`` on P(S >= s), at most kappa * h + 1 without a channel, and the
    transform has the least power of two above top - 1 and h points. Mass
    from ``top`` on is dropped, at most ``tail``, and the mass past the
    transform, which wraps onto the entries below ``top``, is at most
    ``tail`` too. A transform over all kappa * h + 1 points would leave
    rounding noise of up to about 1e-14 at each of them, most where S has
    no mass.
    """
    device, kappa, channel = spec.device, spec.portfolio_size, spec.aggregate_channel
    m, h = device.loss_day_multiplier, device.horizon_days
    if m != int(m) or m < 1:
        raise ValueError("only a positive integer loss_day_multiplier")
    m = int(m)
    theta = device.counts.theta * spec.scenario.intensity_multipliers[level]
    g = compound_count_pmf_bruteforce((h - 1) // m, theta, device.counts.lambda_cluster, tail)
    survive = math.exp(-device.kill_rate)
    d = np.zeros(h + 1)
    d[0:m * len(g):m] = survive * g
    d[h] = survive * max(0.0, -math.expm1(-theta) - g[1:].sum())
    d[0] += 1.0 - survive
    # log E[e^(t S)] on a grid of t, each of which gives a valid bound
    t = np.geomspace(1e-6, 50.0, 600)
    held = np.flatnonzero(d > 0.0)
    log_mgf = kappa * logsumexp(np.log(d[held]) + t[:, None] * held, axis=1)
    top = kappa * h + 1
    if channel is not None:
        unit = device.daily_loss / (1.0 + device.discount_rate)
        if not isinstance(channel.severity, DiscreteTable):
            raise ValueError("only a discrete channel")
        values = np.array(channel.severity.values)
        steps = np.rint(values / unit)
        if not ((steps >= 1).all() and np.allclose(steps * unit, values, rtol=1e-12, atol=0.0)):
            raise ValueError("only channel values on positive multiples of v * b")
        probabilities = channel.severity.probabilities
        with np.errstate(over="ignore"):  # an infinite bound is a valid one
            log_mgf += channel.event_rate * np.expm1(
                logsumexp(np.log(probabilities) + t[:, None] * steps, axis=1))
        top = math.inf
    top = int(min(top, math.ceil(np.min((log_mgf - math.log(tail)) / t))))
    size = 1 << max(top - 1, h).bit_length()
    transform = np.fft.rfft(d, size) ** kappa
    if channel is not None:
        transform *= np.fft.rfft(compound_poisson_lattice_pmf(
            channel.event_rate, steps, probabilities, size))
    return np.fft.irfft(transform, size)[:top]


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


# The risk measures as they were reduced over the whole sorted sample, zeros
# included, before a sample was held as its size and its drawn losses.

def mean_full_array(sorted_losses: np.ndarray) -> float:
    return float(sorted_losses.mean())


def var_full_array(sorted_losses: np.ndarray, level: float) -> float:
    return nearest_rank_var_bruteforce(sorted_losses, level)


def cte_full_array(sorted_losses: np.ndarray, level: float) -> float:
    threshold = var_full_array(sorted_losses, level)
    start = np.searchsorted(sorted_losses, threshold, side="left")
    return max(float(sorted_losses[start:].mean()), threshold)


def shortfall_probability_full_array(sorted_losses: np.ndarray, pool: float) -> float:
    count = len(sorted_losses)
    return (count - int(np.searchsorted(sorted_losses, pool, side="left"))) / count


def expected_shortfall_full_array(sorted_losses: np.ndarray, pool: float) -> float:
    tail = sorted_losses[int(np.searchsorted(sorted_losses, pool, side="left")):]
    return float((tail - pool).sum() / len(sorted_losses))


def _horner(coeffs, x):
    r = np.full_like(x, coeffs[7], dtype=np.float64)
    for c in coeffs[6::-1]:
        r = r * x + c
    return r


def normal_quantile_whole_array(u) -> np.ndarray:
    """AS 241 (PPND16) with all three branches evaluated on every element
    and the result picked by ``np.where``, as the package computed it
    before each branch ran on its own elements."""
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    r = 0.180625 - q * q
    with np.errstate(invalid="ignore", divide="ignore"):
        out_central = q * _horner(_A, r) / _horner(_B, r)
        rt = np.where(q < 0.0, u, 1.0 - u)
        rt = np.where(rt <= 0.0, 5e-324, rt)
        lr = np.sqrt(-np.log(rt))
        tail = np.where(lr <= 5.0, _horner(_C, lr - 1.6) / _horner(_D, lr - 1.6),
                        _horner(_E, lr - 5.0) / _horner(_F, lr - 5.0))
        tail = np.where(q < 0.0, -tail, tail)
    return np.where(central, out_central, tail)


def total_variation(counts: np.ndarray, pmf: np.ndarray, n_draws: int) -> float:
    """TV distance between an empirical histogram and an exact pmf, with
    the pmf's truncated tail mass counted in full."""
    k = max(len(counts), len(pmf))
    emp = np.zeros(k)
    emp[: len(counts)] = counts / n_draws
    exact = np.zeros(k)
    exact[: len(pmf)] = pmf
    return 0.5 * (np.abs(emp - exact).sum() + max(0.0, 1.0 - exact.sum()))


# ---------------------------------------------------------------------------
# the engine's draw layout, version 1, one repetition at a time
# ---------------------------------------------------------------------------

(_COUNT, _DETAIL, _CHANNEL, _COUNT_SPILL, _CHANNEL_SEV, _DETAIL_SPILL,
 _CHANNEL_SPILL) = range(1, 8)
_PTRS_THRESHOLD = 30.0


def _stream_id(domain: int, level_code: int, index: int) -> int:
    """4 domain bits, 8 level bits, 52 index bits."""
    return (domain << 60) | (level_code << 52) | index


def _stream(seed: int, stream_id: int, word: int = 0) -> Philox:
    """numpy's Philox on stream (seed, stream_id) whose next output is word
    ``word``: word i is lane i % 4 of block i // 4 + 1, and
    ``Philox(counter=c)`` enciphers block c + 1 first."""
    bit_gen = Philox(key=np.array([seed, stream_id], dtype=np.uint64), counter=word // 4)
    bit_gen.random_raw(word % 4)
    return bit_gen


def _uniform(word) -> float:
    return ((int(word) >> 11) + 1) * 2.0 ** -53


def _inversion(word, rate: float) -> int:
    """Sequential search: the first k whose cumulative pmf reaches u."""
    cum = poisson_cum_table(rate)
    u, k = _uniform(word), 0
    while k < len(cum) - 1 and u > cum[k]:
        k += 1
    return k


def _ptrs(words, rate: float):
    """One PTRS attempt per (u, v) word pair: (accepted, k) arrays."""
    u = np.array([_uniform(w) for w in words[0::2]])
    v = np.array([_uniform(w) for w in words[1::2]])
    return _ptrs_attempt(u, v, rate, _ptrs_consts(rate))


def _poisson_draws(bit_gen: Philox, rate: float, n: int) -> list:
    """``n`` Poisson(rate) draws from one stream: one word each by inversion
    below rate 30; from 30 on, PTRS in rounds, each round giving every draw
    still unresolved the next two words, in draw order."""
    if rate == 0.0:
        return [0] * n
    if rate < _PTRS_THRESHOLD:
        return [_inversion(word, rate) for word in bit_gen.random_raw(n)]
    out = [None] * n
    pending = list(range(n))
    while pending:
        accepted, k = _ptrs(bit_gen.random_raw(2 * len(pending)), rate)
        for j, ok, value in zip(pending, accepted, k):
            if ok:
                out[j] = int(value)
        pending = [j for j, ok in zip(pending, accepted) if not ok]
    return out


def _count(seed: int, domain: int, spill_domain: int, level_code: int, rep: int,
           rate: float, attempts: int, spills: Counter) -> int:
    """COUNT or CHANNEL draw of repetition ``rep``: word ``rep`` by inversion
    below rate 30, else PTRS on the 32-word region [32 rep, 32 rep + 32),
    then on the repetition's own spill stream."""
    if rate == 0.0:
        return 0
    stream_id = _stream_id(domain, level_code, 0)
    if rate < _PTRS_THRESHOLD:
        return _inversion(_stream(seed, stream_id, rep).random_raw(1)[0], rate)
    region = _stream(seed, stream_id, 32 * rep).random_raw(32)
    for attempt in range(attempts):
        accepted, k = _ptrs(region[2 * attempt:2 * attempt + 2], rate)
        if accepted[0]:
            return int(k[0])
    spills[spill_domain] += 1
    return _poisson_draws(_stream(seed, _stream_id(spill_domain, level_code, rep)), rate, 1)[0]


def _capped_days(days: list, survived: list, device):
    """(ndarray.sum of the surviving devices' capped loss-days, in the order
    given, and how many of them the horizon capped)."""
    effective = [device.loss_day_multiplier * d for d, alive in zip(days, survived) if alive]
    capped = np.array([min(e, float(device.horizon_days)) for e in effective], dtype=np.float64)
    return float(capped.sum()), sum(e > device.horizon_days for e in effective)


def detail_spill_days(seed: int, level, rep: int, n_clusters: int, device, kappa: int):
    """Repetition ``rep``'s ``n_clusters`` clusters resolved on its own
    DETAIL_SPILL stream: a device per cluster (unbiased modulo rejection),
    then the cluster sizes, then one survival word per affected device in
    ascending device order when kill_rate > 0. Returns (capped surviving
    loss-days, cap events)."""
    bit_gen = _stream(seed, _stream_id(_DETAIL_SPILL, level.code, rep))
    remainder = (1 << 64) % kappa
    placement = []
    while len(placement) < n_clusters:
        word = bit_gen.random_raw()
        if remainder == 0 or word < (1 << 64) - remainder:
            placement.append(word % kappa)
    extras = _poisson_draws(bit_gen, device.counts.lambda_cluster, n_clusters)
    days = {}
    for where, extra in zip(placement, extras):
        days[where] = days.get(where, 0) + 1 + extra
    days = [days[where] for where in sorted(days)]
    threshold = math.exp(-device.kill_rate)
    survived = [device.kill_rate == 0.0 or _uniform(bit_gen.random_raw()) < threshold
                for _ in days]
    return _capped_days(days, survived, device)


def _single_cluster_days(seed: int, level, rep: int, device, kappa: int, attempts: int,
                         spills: Counter):
    """A lone cluster on DETAIL region [8 rep, 8 rep + 8): word 0 reserved,
    the size from word 1 (inversion) or words 1-6 (PTRS attempts), the
    survival draw from word 7; an exhausted size draw goes to DETAIL_SPILL."""
    words = _stream(seed, _stream_id(_DETAIL, level.code, 0), 8 * rep).random_raw(8)
    lam = device.counts.lambda_cluster
    if lam == 0.0:
        extra = 0
    elif lam < _PTRS_THRESHOLD:
        extra = _inversion(words[1], lam)
    else:
        extra = None
        for attempt in range(attempts):
            accepted, k = _ptrs(words[1 + 2 * attempt:3 + 2 * attempt], lam)
            if accepted[0]:
                extra = int(k[0])
                break
        if extra is None:
            spills[_DETAIL_SPILL] += 1
            return detail_spill_days(seed, level, rep, 1, device, kappa)
    alive = device.kill_rate == 0.0 or _uniform(words[7]) < math.exp(-device.kill_rate)
    return _capped_days([1 + extra], [alive], device)


def reference_chunk(spec, level, rep_lo: int, rep_hi: int, count_attempts: int = 16,
                    detail_attempts: int = 3):
    """Losses and cap events of repetitions [rep_lo, rep_hi) of one level,
    drawn one repetition at a time as the engine's "Draw layout, version 1"
    describes, every word read through ``numpy.random.Philox``.

    ``count_attempts`` and ``detail_attempts`` are the PTRS attempts a COUNT
    or CHANNEL region and a DETAIL region hold before spilling. Returns
    (losses, caps, spills), ``spills`` counting repetitions per spill domain
    (4 COUNT_SPILL, 6 DETAIL_SPILL, 7 CHANNEL_SPILL)."""
    device = spec.device
    theta = device.counts.theta * spec.scenario.intensity_multipliers[level]
    unit = 1.0 / (1.0 + device.discount_rate) * device.daily_loss
    channel = spec.aggregate_channel
    losses = np.zeros(rep_hi - rep_lo)
    caps = 0
    spills = Counter()
    for i, rep in enumerate(range(rep_lo, rep_hi)):
        n_clusters = _count(spec.seed, _COUNT, _COUNT_SPILL, level.code, rep,
                            spec.portfolio_size * theta, count_attempts, spills)
        if n_clusters == 1:
            days, rep_caps = _single_cluster_days(spec.seed, level, rep, device,
                                                  spec.portfolio_size, detail_attempts, spills)
        elif n_clusters:
            days, rep_caps = detail_spill_days(spec.seed, level, rep, n_clusters, device,
                                               spec.portfolio_size)
        else:
            days, rep_caps = 0.0, 0
        losses[i] = unit * days
        caps += rep_caps
        if channel is None or channel.event_rate == 0.0:
            continue
        n_events = _count(spec.seed, _CHANNEL, _CHANNEL_SPILL, level.code, rep,
                          channel.event_rate, count_attempts, spills)
        if n_events == 0:
            continue
        if hasattr(channel.severity, "value"):  # a fixed severity reads no words
            amounts = np.full(n_events, channel.severity.value)
        else:
            bit_gen = _stream(spec.seed, _stream_id(_CHANNEL_SEV, level.code, rep))
            words = bit_gen.random_raw(n_events)
            amounts = _severity_quantile(channel.severity, np.array([_uniform(w) for w in words]))
        losses[i] += amounts.sum()
    return losses, caps, spills


def scatter_chunk(chunk, n: int):
    """A task's ``(rows, losses, caps)``, its drawn rows' losses, as
    ``(losses, caps)`` over all n of its repetitions: the losses scattered
    into ``np.zeros(n)``. The rows must be distinct."""
    rows, drawn, caps = chunk
    assert len(np.unique(rows)) == len(rows) == len(drawn)
    losses = np.zeros(n)
    losses[rows] = drawn
    return losses, caps


def scatter_regions(regions, n: int) -> np.ndarray:
    """``poisson_regions``' ``(rows, draws)`` over n region rows as one draw
    per row: the draws scattered into zeros, -1 where unresolved."""
    rows, draws = regions
    assert np.all(np.diff(rows) > 0) and (draws != 0).all()
    out = np.zeros(n, dtype=np.int64)
    out[rows] = draws
    return out
