"""Exact probability functions and deterministic samplers.

Sampling algorithms are part of the versioned stream format (see
``streams``): every sampler consumes a fixed, documented number of raw
words per draw, so a given (seed, stream_id) reproduces the same variates
on any platform and worker count.

Word consumption per draw (format version 1):

* Poisson, rate < 30 - one word (inversion by sequential search).
* Poisson, rate >= 30 - two words per rejection attempt (Hormann's PTRS
  transformed-rejection method), attempts until acceptance.
* Exponential - one word (inverse CDF).
* Severity: Lognormal / Pareto / DiscreteTable - one word (inverse CDF,
  the lognormal through the AS 241 normal quantile); Fixed - zero words.
* Compound count - one Poisson draw for the cluster count, then one
  Poisson draw per cluster for the cluster sizes, in cluster order.
* Uniform index in [0, m) - one word, rejected and redrawn when it falls
  at or above the largest multiple of m below 2**64 (unbiased modulo).

The ``*_rows`` samplers draw from many streams at once (one
``RaggedStreams`` row each) and consume every row's words exactly as the
one-stream form would on that row's stream: rejection samplers proceed
round by round, each round reading the next words of every row that still
has unresolved draws.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln as _lgamma

from .errors import DomainError
from .streams import RaggedStreams, RandomStream, row_positions, words_to_uniforms

__all__ = [
    "CountDistributionParams",
    "Lognormal",
    "Pareto",
    "Fixed",
    "DiscreteTable",
    "SeverityDistribution",
    "poisson_pmf",
    "compound_count_pmf",
    "compound_count_pmf_table",
    "pareto_density",
    "normal_quantile",
    "PTRS_THRESHOLD",
    "poisson_inversion",
    "poisson_ptrs_regions",
    "sample_poisson_batch",
    "sample_poisson_rows",
    "sample_indices_rows",
    "sample_exponential_batch",
    "sample_severity_batch",
    "sample_severity_rows",
    "sample_compound_count",
    "sample_compound_count_batch",
]

# Sequential search switches to PTRS rejection at this rate.
PTRS_THRESHOLD = 30.0


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

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class DiscreteTable:
    values: tuple
    probabilities: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probabilities)
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

def poisson_pmf(n: int, rate: float) -> float:
    """P(N = n) for N ~ Poisson(rate).

    Evaluated in log space once rate or n exceeds 30 so that rates in the
    hundreds (horizon-scaled intensities) do not overflow.
    """
    if rate < 0 or not math.isfinite(rate):
        raise DomainError(f"rate must be nonnegative, got {rate}")
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    if rate == 0.0:
        return 1.0 if n == 0 else 0.0
    if rate <= 30.0 and n <= 30:
        return math.exp(-rate) * rate ** n / math.factorial(n)
    return math.exp(n * math.log(rate) - rate - math.lgamma(n + 1))


def compound_count_pmf(n: int, params: CountDistributionParams) -> float:
    """P(M = n) for M = sum over K clusters of (1 + Poisson(lambda)),
    K ~ Poisson(theta); entry n of ``compound_count_pmf_table``."""
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    return float(compound_count_pmf_table(n, params)[n])


def compound_count_pmf_table(n_max: int, params: CountDistributionParams) -> np.ndarray:
    """P(M = n) for n = 0..n_max as an array. For n >= 1:

        P(M = n) = sum_{j=1..n} theta^j (j*lambda)^(n-j)
                   exp(-(j*lambda + theta)) / (j! (n-j)!)

    computed term-wise in log space with log-sum-exp, taking
    0*log(0) = 0 at j = n when lambda = 0.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    theta, lam = params.theta, params.lambda_cluster
    out = np.empty(n_max + 1)
    out[0] = math.exp(-theta)
    log_theta = math.log(theta)
    j_all = np.arange(1, n_max + 1, dtype=np.float64)
    lg_j1 = _lgamma(j_all + 1)
    log_jlam_base = np.log(j_all * lam) if lam > 0 else None
    for n in range(1, n_max + 1):
        j = j_all[:n]
        tail = n - j
        if lam > 0:
            log_jlam = np.where(tail > 0, tail * log_jlam_base[:n], 0.0)
        else:
            log_jlam = np.where(tail > 0, -np.inf, 0.0)
        log_terms = j * log_theta + log_jlam - (j * lam + theta) - lg_j1[:n] - _lgamma(tail + 1)
        out[n] = _logsumexp_exp(log_terms)
    return out


def pareto_density(x: float, x_min: float, alpha: float) -> float:
    """Normalized Pareto density alpha * x_min^alpha * x^-(alpha+1) on
    [x_min, inf); zero below x_min."""
    if not (x_min > 0 and math.isfinite(x_min)):
        raise DomainError(f"x_min must be positive, got {x_min}")
    if not (alpha > 1 and math.isfinite(alpha)):
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if x < x_min:
        return 0.0
    return alpha * x_min ** alpha * x ** (-(alpha + 1.0))


def _logsumexp_exp(log_terms: np.ndarray) -> float:
    """exp(logsumexp(log_terms)) with empty/-inf handled as 0."""
    finite = log_terms[np.isfinite(log_terms)]
    if finite.size == 0:
        return 0.0
    m = finite.max()
    return float(math.exp(m) * np.exp(finite - m).sum())


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


def normal_quantile(u) -> np.ndarray | float:
    """Inverse standard normal CDF (Wichura's AS 241 rational approximation,
    double-precision PPND16 variant). Accepts scalars or arrays in (0, 1]."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    out = np.empty_like(u)

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
    out = np.where(central, out_central, tail)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def poisson_cum_table(rate: float) -> np.ndarray:
    """Cumulative pmf table used by sequential-search inversion (rate < 30).

    Extends to rate + 12*sqrt(rate) + 48 terms, past the point where the
    table saturates in double precision; draws beyond the last entry
    (probability < 1e-15) clamp to it.
    """
    length = int(rate + 12.0 * math.sqrt(rate)) + 48
    k = np.arange(length, dtype=np.float64)
    if rate == 0.0:
        return np.ones(1)
    pmf = np.empty(length)
    pmf[0] = math.exp(-rate)
    np.multiply.accumulate(rate / k[1:], out=pmf[1:])
    pmf[1:] *= pmf[0]
    return np.cumsum(pmf)


def _ptrs_consts(rate: float) -> tuple:
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2.0)
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    return a, b, vr, inv_alpha, math.log(rate)


def _ptrs_attempt(u: np.ndarray, v: np.ndarray, rate: float, consts: tuple):
    """One PTRS attempt per element; returns (accepted mask, values)."""
    a, b, vr, inv_alpha, log_rate = consts
    us = 0.5 - np.abs(u - 0.5)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + rate + 0.43)
    fastpath = (us >= 0.07) & (v <= vr)
    invalid = (k < 0) | ((us < 0.013) & (v > us))
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.log(v * inv_alpha / (a / (us * us) + b))
        rhs = k * log_rate - rate - _lgamma(k + 1.0)
        slowpath = lhs <= rhs
    accepted = fastpath | (~invalid & slowpath)
    return accepted, k.astype(np.int64)


def poisson_inversion(u: np.ndarray, rate: float) -> np.ndarray:
    """Poisson(rate) draws by sequential-search inversion, one uniform each."""
    cum = poisson_cum_table(rate)
    k = np.searchsorted(cum, u, side="left")
    return np.minimum(k, len(cum) - 1).astype(np.int64)


def poisson_ptrs_regions(words: np.ndarray, rate: float, first: int, attempts: int) -> np.ndarray:
    """PTRS draws from fixed per-row word regions.

    Row i's attempt a reads raw words ``words[i, first + 2a]`` and
    ``words[i, first + 2a + 1]``; rows still unresolved after ``attempts``
    attempts come back as -1 for the caller to spill.
    """
    consts = _ptrs_consts(rate)
    out = np.full(len(words), -1, dtype=np.int64)
    pending = np.arange(len(words))
    for attempt in range(attempts):
        column = first + 2 * attempt
        u = words_to_uniforms(words[pending, column])
        v = words_to_uniforms(words[pending, column + 1])
        accepted, k = _ptrs_attempt(u, v, rate, consts)
        out[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
        if pending.size == 0:
            break
    return out


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
        return poisson_inversion(stream.uniforms(size), rate)
    return _ptrs_rounds(lambda rows, words: stream.raw_words(int(words[0])),
                        np.array([size]), rate)


def sample_poisson_rows(streams: RaggedStreams, counts: np.ndarray, rate: float) -> np.ndarray:
    """``counts[i]`` Poisson(rate) draws from row ``i`` of ``streams``, per
    row as ``sample_poisson_batch`` on that row's stream; concatenated."""
    _check_rate(rate)
    if rate == 0.0:
        return np.zeros(int(counts.sum()), dtype=np.int64)
    if rate < PTRS_THRESHOLD:
        return poisson_inversion(streams.uniforms(np.arange(len(counts)), counts), rate)
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


def sample_exponential_batch(stream: RandomStream, rate: float, size: int) -> np.ndarray:
    """Inverse-CDF exponential: -ln(u)/rate, u in (0, 1]; CDF 1 - exp(-rate*y)."""
    if not (rate > 0 and math.isfinite(rate)):
        raise DomainError(f"rate must be positive, got {rate}")
    u = stream.uniforms(size)
    return -np.log(u) / rate


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


def sample_compound_count_batch(stream: RandomStream, params: CountDistributionParams,
                                size: int) -> np.ndarray:
    """Draw ``size`` compound counts M = K + sum of K Poisson(lambda) sizes,
    K ~ Poisson(theta). Cluster-count draws come first, then all cluster
    sizes flat in (draw, cluster) order."""
    clusters = sample_poisson_batch(stream, params.theta, size)
    total = int(clusters.sum())
    if total == 0:
        return clusters
    if params.lambda_cluster == 0.0:
        return clusters
    extras = sample_poisson_batch(stream, params.lambda_cluster, total)
    owner = np.repeat(np.arange(size), clusters)
    return clusters + np.bincount(owner, weights=extras, minlength=size).astype(np.int64)


def sample_compound_count(stream: RandomStream, params: CountDistributionParams) -> int:
    return int(sample_compound_count_batch(stream, params, 1)[0])
