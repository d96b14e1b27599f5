"""Exact probability functions and deterministic samplers.

Sampling algorithms are part of the versioned stream format (see
``streams``): every sampler consumes a fixed, documented number of raw
words per draw, so a given (seed, stream_id) reproduces the same variates
on any platform and worker count.

Word consumption per draw (format version 1):

* Poisson, rate < 30 - one word (inversion by sequential search).
* Poisson, rate >= 30 - two words per rejection attempt (Hormann's PTRS
  transformed-rejection method), attempts until acceptance.
* Severity: Lognormal / Pareto / DiscreteTable - one word (inverse CDF,
  the lognormal through the AS 241 normal quantile); Fixed - zero words.
* Uniform index in [0, m) - one word, rejected and redrawn when it falls
  at or above the largest multiple of m below 2**64 (unbiased modulo).

The ``*_rows`` samplers draw from many streams at once (one
``RaggedStreams`` row each) and consume every row's words exactly as the
one-stream form would on that row's stream: rejection samplers proceed
round by round, each round reading the next words of every row that still
has unresolved draws.

Log-factorials (the PTRS acceptance test and the compound-count pmf) come
from ``_lgamma``, cephes ``lgam`` (what ``scipy.special.gammaln``
computes) bit for bit at integer arguments, with each log taken by libm
(``math.log``). numpy's SIMD ``np.log`` is not libm's: on an AVX-512 host
it rounded 148 of 5e6 arguments differently, and a port built on it
differed from ``gammaln`` at 93 of 4e6 integers, which would move PTRS
draws and pmf bits.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import DomainError
from .streams import RaggedStreams, RandomStream, row_positions, words_to_uniforms

__all__ = [
    "CountDistributionParams",
    "Lognormal",
    "Pareto",
    "Fixed",
    "DiscreteTable",
    "SeverityDistribution",
    "compound_count_pmf_table",
    "normal_quantile",
    "PTRS_THRESHOLD",
    "poisson_inversion",
    "poisson_regions",
    "poisson_regions_nonzero",
    "sample_poisson_batch",
    "sample_poisson_rows",
    "sample_indices_rows",
    "sample_severity_batch",
    "sample_severity_rows",
]

# Sequential search switches to PTRS rejection at this rate.
PTRS_THRESHOLD = 30.0
_TABLE_BLOCK = 8192  # (n, j) terms per compound_count_pmf_table block: 64 KiB


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountDistributionParams:
    """Per-device attack-count model: clusters arrive at rate ``theta``
    per horizon and each cluster contributes ``1 + Poisson(lambda_cluster)``
    events."""

    theta: float
    lambda_cluster: float

    def __post_init__(self):
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise DomainError(f"theta must be positive, got {self.theta}")
        if not (self.lambda_cluster >= 0 and math.isfinite(self.lambda_cluster)):
            raise DomainError(f"lambda_cluster must be nonnegative, got {self.lambda_cluster}")
        object.__setattr__(self, "lambda_cluster", self.lambda_cluster + 0.0)  # -0.0 reads as +0.0

    @property
    def mean(self) -> float:
        """E[M] = theta * (1 + lambda_cluster) (Wald)."""
        return self.theta * (1.0 + self.lambda_cluster)

    @property
    def variance(self) -> float:
        """Var[M] = theta * (lambda_cluster + (1 + lambda_cluster)**2)."""
        lam = self.lambda_cluster
        return self.theta * (lam + (1.0 + lam) ** 2)


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError(f"lognormal sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DomainError(f"lognormal mu must be finite, got {self.mu}")

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)


@dataclass(frozen=True)
class Pareto:
    x_min: float
    alpha: float

    def __post_init__(self):
        if not (self.x_min > 0 and math.isfinite(self.x_min)):
            raise DomainError(f"pareto x_min must be positive, got {self.x_min}")
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise DomainError(f"pareto alpha must exceed 1, got {self.alpha}")

    @property
    def mean(self) -> float:
        return self.alpha * self.x_min / (self.alpha - 1.0)


@dataclass(frozen=True)
class Fixed:
    value: float

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise DomainError(f"fixed severity must be nonnegative, got {self.value}")
        object.__setattr__(self, "value", self.value + 0.0)  # -0.0 reads as +0.0

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class DiscreteTable:
    values: tuple
    probabilities: tuple

    def __post_init__(self):
        # -0.0 passes the checks below; it is read as +0.0
        values = tuple(float(v) + 0.0 for v in self.values)
        probs = tuple(float(p) + 0.0 for p in self.probabilities)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)
        if len(values) != len(probs) or not values:
            raise DomainError("values and probabilities must be equal-length and nonempty")
        if any(v < 0 for v in values):
            raise DomainError("discrete severity support must be nonnegative")
        if any(p < 0 for p in probs):
            raise DomainError("probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {math.fsum(probs)!r}, not 1 within 1e-12")

    @property
    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probabilities))


SeverityDistribution = Lognormal | Pareto | Fixed | DiscreteTable


# ---------------------------------------------------------------------------
# exact probability functions
# ---------------------------------------------------------------------------

# cephes lgam (Moshier): log((x - 1)!) for x = 1..12, its Stirling-series
# coefficients, log(sqrt(2 pi)), and the x above which it returns +inf
_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) at integer-valued ``x``, bit for bit as cephes ``lgam``
    (``scipy.special.gammaln``): +inf at the poles x <= 0 and above
    ``_MAXLGM``, log((x - 1)!) from a table below 13, and above it Stirling's
    series ``(x - 0.5) log x - x + LS2PI`` plus the 5-term correction below
    1000, the 3-term one up to 1e8 and none beyond. Each log is libm's
    (``math.log``), as cephes takes it; ``np.log`` may round differently.
    Non-integer x below 13 is not supported."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, np.inf)
    small = (x >= 1.0) & (x < 13.0)
    out[small] = _LOG_FACTORIALS[x[small].astype(np.intp) - 1]
    large = (x >= 13.0) & (x <= _MAXLGM)
    z = x[large]
    log_z = np.fromiter(map(math.log, z.tolist()), dtype=np.float64, count=z.size)
    q = (z - 0.5) * log_z - z + _LS2PI
    with np.errstate(over="ignore"):  # z * z overflows only where z > 1e8
        p = 1.0 / (z * z)
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * p + c
    short = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
        + 0.0833333333333333333333
    out[large] = np.where(z > 1e8, q, q + np.where(z >= 1000.0, short, series) / z)
    nonfinite = ~np.isfinite(x)
    out[nonfinite] = x[nonfinite]
    return out


def compound_count_pmf_table(n_max: int, params: CountDistributionParams) -> np.ndarray:
    """P(M = n) for n = 0..n_max as an array. For n >= 1:

        P(M = n) = sum_{j=1..n} theta^j (j*lambda)^(n-j)
                   exp(-(j*lambda + theta)) / (j! (n-j)!)

    computed term-wise in log space with log-sum-exp (0*log(0) = 0).

    Rows are built in blocks of at most ``_TABLE_BLOCK`` (n, j) terms, so a
    block stays in cache and memory is O(n_max). log(j!) and log((n - j)!)
    both come from one log-factorial array over 0..n_max. Row n reads n - j
    and log((n - j)!) as window n_max - n of two descending arrays; the
    second is padded with +inf at n - j < 0, which makes the terms past the
    diagonal -inf. Each term is evaluated left to right in the order of the
    formula (at j = n, adding 0*log(j*lambda) = +-0.0 is exact), then
    shifted by its row's max. Each row is summed by one ``ndarray.sum`` over
    exactly its first n entries, so it is grouped as a row of n terms alone,
    whatever the block; a padded ``sum(axis=1)`` groups differently. The
    domain is n_max >= 0 and n_max*lambda + theta finite, where each row's
    n terms are finite.
    """
    theta, lam = params.theta, params.lambda_cluster
    if n_max < 0 or not math.isfinite(n_max * lam + theta):
        raise DomainError(f"need n_max >= 0 and finite n_max*lambda + theta, got {n_max}*{lam} + {theta}")
    try:
        out = np.empty(n_max + 1)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
        raise DomainError(f"a count pmf table of {n_max + 1} rows needs {8 * (n_max + 1)} bytes, "
                          "more memory than can be allocated") from None
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


# ---------------------------------------------------------------------------
# normal quantile (AS 241, PPND16)
# ---------------------------------------------------------------------------

_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, x):
    r = np.full_like(x, coeffs[7], dtype=np.float64)
    for c in coeffs[6::-1]:
        r = r * x + c
    return r


def normal_quantile(u) -> np.ndarray:
    """Inverse standard normal CDF (Wichura's AS 241 rational approximation,
    double-precision PPND16 variant) of an array in (0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    central = np.abs(q) <= 0.425

    r = 0.180625 - q * q
    with np.errstate(invalid="ignore", divide="ignore"):
        out_central = q * _poly(_A, r) / _poly(_B, r)

        rt = np.where(q < 0.0, u, 1.0 - u)
        # u == 1 maps to +inf through log(0); clamp to the largest
        # representable tail argument instead so draws stay finite.
        rt = np.where(rt <= 0.0, 5e-324, rt)
        lr = np.sqrt(-np.log(rt))
        near = lr <= 5.0
        r_near = lr - 1.6
        r_far = lr - 5.0
        tail = np.where(near,
                        _poly(_C, r_near) / _poly(_D, r_near),
                        _poly(_E, r_far) / _poly(_F, r_far))
        tail = np.where(q < 0.0, -tail, tail)
    return np.where(central, out_central, tail)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def poisson_cum_table(rate: float) -> np.ndarray:
    """Cumulative pmf table used by sequential-search inversion (rate < 30).

    Extends to rate + 12*sqrt(rate) + 48 terms, past the point where the
    table saturates in double precision; draws beyond the last entry
    (probability < 1e-15) clamp to it. Cached per rate, read-only.
    """
    length = 1 if rate == 0.0 else int(rate + 12.0 * math.sqrt(rate)) + 48
    pmf = np.empty(length)
    pmf[0] = math.exp(-rate)
    np.multiply.accumulate(rate / np.arange(1.0, length), out=pmf[1:])
    pmf[1:] *= pmf[0]
    cum = np.cumsum(pmf)
    cum.setflags(write=False)  # shared by every caller through the cache
    return cum


@functools.lru_cache(maxsize=32)
def _ptrs_consts(rate: float) -> tuple:
    """PTRS constants for ``rate``, and log(k!) for k in the window
    ``[first, first + len(log_fact))``, that is [rate - 12 sqrt(rate) - 48,
    rate + 12 sqrt(rate) + 48) clamped at 0, where nearly every slow test
    falls. Cached, since ``_lgamma`` costs about 15 times what
    ``scipy.special.gammaln`` does per element."""
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2.0)
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    first = max(0, int(rate - 12.0 * math.sqrt(rate)) - 48)
    log_fact = _lgamma(np.arange(first + 1.0, int(rate + 12.0 * math.sqrt(rate)) + 49.0))
    log_fact.setflags(write=False)  # shared by every caller through the cache
    return a, b, vr, inv_alpha, math.log(rate), first, log_fact


def _ptrs_attempt(u: np.ndarray, v: np.ndarray, rate: float, consts: tuple):
    """One PTRS attempt per element; returns (accepted mask, values).

    log(k!) is read from the window in ``consts``; a draw outside it whose
    slow test decides evaluates its own."""
    a, b, vr, inv_alpha, log_rate, first, log_fact = consts
    us = 0.5 - np.abs(u - 0.5)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + rate + 0.43)
    fastpath = (us >= 0.07) & (v <= vr)
    invalid = (k < 0) | ((us < 0.013) & (v > us))
    with np.errstate(divide="ignore", invalid="ignore"):
        # at rates up to 2**20 and uniforms from words (us >= 2**-53), |k| <
        # 2**60 casts exactly, and k = inf (us = 0) is invalid; as unsigned,
        # an index below the window wraps above it
        at = (k - first).astype(np.intp)
        lg_k1 = log_fact.take(at, mode="clip")
        outside = (at.view(np.uintp) >= len(log_fact)) & ~(fastpath | invalid)
        if outside.any():
            lg_k1[outside] = _lgamma(k[outside] + 1.0)
        lhs = np.log(v * inv_alpha / (a / (us * us) + b))
        rhs = k * log_rate - rate - lg_k1
        slowpath = lhs <= rhs
    accepted = fastpath | (~invalid & slowpath)
    return accepted, k.astype(np.int64)


def _inversion_nonzero(words: np.ndarray, rate: float):
    """Poisson(rate) draws by sequential-search inversion, one raw word
    each, as (rows, counts): the indexes of the words that draw a nonzero
    count, ascending, and those counts.

    When P(0) >= 1/2 most draws are 0. A word's uniform ``((w >> 11) + 1) *
    2**-53`` is at most ``cum[0]``, and draws 0, exactly when ``w <
    floor(cum[0] * 2**53) * 2**11``, so one ``uint64`` comparison picks the
    nonzero rows and only those words are mapped to uniforms and searched.
    When ``cum[0]`` is 1.0 that threshold is 2**64 and every draw is 0.
    Otherwise every word is searched and the nonzero draws are kept."""
    cum = poisson_cum_table(rate)
    if cum[0] < 0.5:
        k = _search(cum, words)
        rows = np.flatnonzero(k)
        return rows, k[rows]
    zero_below = int(cum[0] * 2.0 ** 53) << 11
    if zero_below >= 1 << 64:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    rows = np.flatnonzero(words >= np.uint64(zero_below))
    return rows, _search(cum, words[rows])


def _search(cum: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The first k with ``cum[k]`` at least each word's uniform, clamped to
    the table."""
    k = np.searchsorted(cum, words_to_uniforms(words), side="left")
    return np.minimum(k, len(cum) - 1).astype(np.int64)


def poisson_inversion(words: np.ndarray, rate: float) -> np.ndarray:
    """Poisson(rate) draws by sequential-search inversion, one raw word
    each: ``_inversion_nonzero`` with the zeros filled in."""
    rows, counts = _inversion_nonzero(words, rate)
    k = np.zeros(len(words), dtype=np.int64)
    k[rows] = counts
    return k


def poisson_regions(words: np.ndarray, rate: float, first: int, attempts: int) -> np.ndarray:
    """One Poisson(rate) draw per row of fixed per-row word regions.

    At rate 0 no word is read. Below ``PTRS_THRESHOLD`` row i inverts
    ``words[i, first]``. From it on, PTRS attempt a reads ``words[i, first
    + 2a]`` and ``words[i, first + 2a + 1]``; rows still unresolved after
    ``attempts`` attempts come back as -1 for the caller to spill.
    """
    if rate == 0.0:
        return np.zeros(len(words), dtype=np.int64)
    if rate < PTRS_THRESHOLD:
        return poisson_inversion(words[:, first], rate)
    consts = _ptrs_consts(rate)
    out = np.full(len(words), -1, dtype=np.int64)
    pending = np.arange(len(words))
    for attempt in range(attempts):
        column = first + 2 * attempt
        # attempt 1 reads every row, so its columns are read in place
        pair = words[:, column:column + 2] if attempt == 0 else words[pending, column:column + 2]
        accepted, k = _ptrs_attempt(words_to_uniforms(pair[:, 0]), words_to_uniforms(pair[:, 1]),
                                    rate, consts)
        out[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
        if pending.size == 0:
            break
    return out


def poisson_regions_nonzero(words: np.ndarray, rate: float, attempts: int):
    """``poisson_regions(words, rate, 0, attempts)`` at its nonzero rows, as
    (rows, counts): the rows, ascending, whose draw is nonzero or
    unresolved (-1), and their draws. Below ``PTRS_THRESHOLD`` the zero
    draws are never searched (``_inversion_nonzero``)."""
    if rate < PTRS_THRESHOLD:
        return _inversion_nonzero(words[:, 0], rate)
    draws = poisson_regions(words, rate, 0, attempts)
    rows = np.flatnonzero(draws)
    return rows, draws[rows]


def _ptrs_rounds(read, counts: np.ndarray, rate: float) -> np.ndarray:
    """PTRS draws for ragged rows, ``counts[i]`` draws for row ``i``.

    Each round, every row with ``p`` unresolved draws reads its next
    ``2p`` words through ``read(rows, words_per_row)``; unresolved draw
    ``j`` takes the round's words ``2j`` and ``2j + 1`` as (u, v)."""
    consts = _ptrs_consts(rate)
    owner = np.repeat(np.arange(len(counts)), counts)
    out = np.empty(len(owner), dtype=np.int64)
    pending = np.arange(len(owner))
    while pending.size:
        per_row = np.bincount(owner[pending], minlength=len(counts))
        rows = np.flatnonzero(per_row)
        words = words_to_uniforms(read(rows, 2 * per_row[rows]))
        accepted, k = _ptrs_attempt(words[0::2], words[1::2], rate, consts)
        out[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
    return out


def _check_rate(rate: float):
    if rate < 0 or not math.isfinite(rate):
        raise DomainError(f"rate must be nonnegative, got {rate}")


def sample_poisson_batch(stream: RandomStream, rate: float, size: int) -> np.ndarray:
    """Draw ``size`` Poisson(rate) variates from ``stream``.

    rate < 30 uses inversion by sequential search (one word per draw);
    rate >= 30 uses PTRS rejection (two words per attempt, attempts for
    the still-unresolved draws proceed round by round in index order).
    """
    _check_rate(rate)
    if size < 0:
        raise DomainError("size must be nonnegative")
    if size == 0 or rate == 0.0:
        return np.zeros(size, dtype=np.int64)
    if rate < PTRS_THRESHOLD:
        return poisson_inversion(stream.raw_words(size), rate)
    return _ptrs_rounds(lambda rows, words: stream.raw_words(int(words[0])),
                        np.array([size]), rate)


def sample_poisson_rows(streams: RaggedStreams, counts: np.ndarray, rate: float) -> np.ndarray:
    """``counts[i]`` Poisson(rate) draws from row ``i`` of ``streams``, per
    row as ``sample_poisson_batch`` on that row's stream; concatenated."""
    _check_rate(rate)
    if rate == 0.0:
        return np.zeros(int(counts.sum()), dtype=np.int64)
    if rate < PTRS_THRESHOLD:
        return poisson_inversion(streams.raw_words(np.arange(len(counts)), counts), rate)
    return _ptrs_rounds(streams.raw_words, counts, rate)


def sample_indices_rows(streams: RaggedStreams, counts: np.ndarray, modulus: int) -> np.ndarray:
    """``counts[i]`` unbiased indices in ``[0, modulus)`` from row ``i`` of
    ``streams``, concatenated, as ``uint64``.

    A word at or above the largest multiple of ``modulus`` not exceeding
    2**64 is rejected. Each round, a row still short of ``n`` indices reads
    ``n`` more words, so a row reads its words in order until it has its
    ``counts[i]`` accepted ones."""
    remainder = (1 << 64) % modulus
    limit = np.uint64((1 << 64) - remainder) if remainder else None
    out = np.empty(int(counts.sum()), dtype=np.uint64)
    slot = np.cumsum(counts) - counts
    need = np.array(counts, dtype=np.int64)
    rows = np.flatnonzero(need)
    while rows.size:
        words = streams.raw_words(rows, need[rows])
        owner = np.repeat(rows, need[rows])
        if limit is not None:
            kept = words < limit
            words, owner = words[kept], owner[kept]
        got = np.bincount(owner, minlength=len(counts))
        out[np.repeat(slot, got) + row_positions(got)] = words % np.uint64(modulus)
        slot += got
        need -= got
        rows = np.flatnonzero(need)
    return out


def _severity_quantile(dist: SeverityDistribution, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a non-fixed severity at uniforms ``u``."""
    if isinstance(dist, Lognormal):
        # overflow to inf is tolerated here; the engine traps nonfinite
        # losses and aborts with the (level, repetition) location
        with np.errstate(over="ignore"):
            return np.exp(dist.mu + dist.sigma * normal_quantile(u))
    if isinstance(dist, Pareto):
        return dist.x_min * u ** (-1.0 / dist.alpha)
    if isinstance(dist, DiscreteTable):
        cum = np.cumsum(dist.probabilities)
        idx = np.minimum(np.searchsorted(cum, u, side="left"), len(cum) - 1)
        return np.asarray(dist.values)[idx]
    raise DomainError(f"unknown severity distribution {dist!r}")


def sample_severity_batch(stream: RandomStream, dist: SeverityDistribution, size: int) -> np.ndarray:
    """Draw ``size`` severities. Fixed consumes no words; all other kinds
    consume one word per draw (inverse CDF)."""
    if size < 0:
        raise DomainError("size must be nonnegative")
    if isinstance(dist, Fixed):
        return np.full(size, dist.value)
    return _severity_quantile(dist, stream.uniforms(size))


def sample_severity_rows(streams: RaggedStreams, counts: np.ndarray,
                         dist: SeverityDistribution) -> np.ndarray:
    """``counts[i]`` severities from row ``i`` of ``streams``, per row as
    ``sample_severity_batch`` on that row's stream; concatenated."""
    if isinstance(dist, Fixed):
        return np.full(int(counts.sum()), dist.value)
    return _severity_quantile(dist, streams.uniforms(np.arange(len(counts)), counts))
