"""Exact probability functions and deterministic samplers.

Sampling algorithms are part of the versioned stream format (see
``streams``): every sampler consumes a fixed, documented number of raw
words per draw, so a given (seed, stream_id) reproduces the same variates
on any platform and worker count.

Word consumption per draw (format version 1):

* Poisson, rate < 30 - one word (inversion: the first k with
  ``cum[k] >= u``, clamped to the table, found through a guide table).
* Poisson, rate >= 30 - two words per rejection attempt (Hormann's PTRS
  transformed-rejection method), attempts until acceptance.
* Severity: Lognormal / Pareto / DiscreteTable - one word (inverse CDF,
  the lognormal through the AS 241 normal quantile); Fixed - zero words.
* Uniform index in [0, m) - one word, rejected and redrawn when it falls
  at or above the largest multiple of m below 2**64 (unbiased modulo).

Each sampler has one implementation, a ``*_rows`` form that draws from
many streams at once through ``read(rows, words)`` (the engine passes
``RaggedStreams.raw_words``) and reads each row's words in its stream's
order: rejection samplers proceed round by round, each round reading the
next words of every row that still has unresolved draws. The one-stream
``sample_poisson_batch`` and ``sample_severity_batch`` are one-row calls.
Fixed per-row word regions (the engine's count and single-cluster words)
have one Poisson reader, ``poisson_regions``, which returns only the rows
that draw something.

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
from .risk_measures import _row_sums
from .streams import RandomStream, ragged_ranges, words_to_uniforms

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
    "poisson_regions",
    "sample_poisson_batch",
    "sample_poisson_rows",
    "sample_indices_rows",
    "sample_severity_batch",
    "sample_severity_rows",
]

# Sequential search switches to PTRS rejection at this rate.
PTRS_THRESHOLD = 30.0
_TABLE_BLOCK = 8192  # (n, j) terms per compound_count_pmf_table block: 64 KiB
_BAND_COLUMNS = 16  # the least width of a pmf table block's window of terms
_UNDERFLOW = -800.0  # np.exp is +0.0 at and below this argument
_TERM_ERROR = 2.0 ** -40  # a pmf term's rounding margin per unit of its row's scale


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
    Non-integer x below 13 is not supported.

    ``x`` is read ``_TABLE_BLOCK`` elements at a time, so that beyond the
    result only one block's temporaries, its Python floats among them, are
    held."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _TABLE_BLOCK):
        flat_out[lo:lo + _TABLE_BLOCK] = _lgamma_block(flat[lo:lo + _TABLE_BLOCK])
    return out


def _lgamma_block(x: np.ndarray) -> np.ndarray:
    """``_lgamma`` of a 1-D block."""
    out = np.full(x.shape, np.inf)
    small = (x >= 1.0) & (x < 13.0)
    out[small] = _LOG_FACTORIALS[x[small].astype(np.intp) - 1]
    large = (x >= 13.0) & (x <= _MAXLGM)
    z = x[large]
    log_z = np.array(list(map(math.log, z.tolist())), dtype=np.float64)
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


def _count_prelude(n_max: int, theta: float, lam: float):
    """The arrays over j = 1..n_max that every term of
    ``compound_count_pmf_table`` reads: j, j log(theta), j lambda + theta,
    and log(k!) for k = 0..n_max."""
    j_all = np.arange(1, n_max + 1, dtype=np.float64)
    return j_all, j_all * math.log(theta), j_all * lam + theta, _lgamma(np.arange(1.0, n_max + 2.0))


def _count_terms(n_max: int, theta: float, lam: float):
    """The log-space terms of ``compound_count_pmf_table``'s rows at
    lambda > 0,

        t(n, j) = j log(theta) + (n - j) log(j lambda) - (j lambda + theta)
                  - log(j!) - log((n - j)!),

    each evaluated left to right in the order of the formula (at j = n,
    adding 0*log(j*lambda) = +-0.0 is exact). Returns ``(terms, margin)``.

    ``terms(lo, hi, c0, c1)`` is the block of rows n in [lo, hi) and
    columns c in [c0, c1), column c holding j = c + 1; terms past the
    diagonal (j > n) are -inf. log(j!) and log((n - j)!) both come from
    one log-factorial array over 0..n_max. Row n reads n - j and
    log((n - j)!) as window n_max - n of two descending arrays; the second
    is padded with +inf at n - j < 0. A term's bits do not depend on the
    block it is computed in.

    ``margin(n)`` bounds, twice over, the error of every computed term of
    rows 1..n: 2**-40 times the row scale n (|log theta| + max(|log
    lambda|, |log(n lambda)|) + 1) + n lambda + theta + 2 log(n!) + 1,
    which bounds the magnitude of every operand and partial sum of row n's
    terms and grows with n. Each of the few operations behind a term
    rounds by a few units of 2**-53 of that scale."""
    j_all, j_log_theta, j_rate, log_fact = _count_prelude(n_max, theta, lam)
    lg_j1 = log_fact[1:]
    log_jlam = np.log(j_all * lam)
    steps = np.arange(n_max - 1, -n_max - 1, -1.0)
    tails = np.lib.stride_tricks.sliding_window_view(steps, n_max)[::-1]
    log_facts = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((log_fact[:n_max][::-1], np.full(n_max, np.inf))), n_max)[::-1]
    log_scale = abs(math.log(theta)) + 1.0, abs(math.log(lam))

    def terms(lo: int, hi: int, c0: int, c1: int) -> np.ndarray:
        return (j_log_theta[c0:c1] + tails[lo:hi, c0:c1] * log_jlam[c0:c1]
                - j_rate[c0:c1] - lg_j1[c0:c1] - log_facts[lo:hi, c0:c1])

    def margin(n: int) -> float:
        logs = log_scale[0] + max(log_scale[1], abs(float(log_jlam[n - 1])))
        return _TERM_ERROR * (n * logs + float(j_rate[n - 1]) + 2.0 * float(log_fact[n]) + 1.0)

    return terms, margin


def _window(terms, margin, lo: int, c0: int, width: int, n_max: int):
    """The block of rows from ``lo`` that ``compound_count_pmf_table``
    builds next, over the first window from column ``c0`` on, ``width``
    columns wide and doubled after each failure, that passes its edge
    checks for every row. Returns (hi, the window's first column and
    width, the block's terms, their row maxima)."""
    while True:
        hi = min(lo + max(1, _TABLE_BLOCK // width), n_max + 1)
        c1 = min(c0 + width, hi - 1)
        block = terms(lo, hi, c0, c1)
        shifts = block.max(axis=1)
        slack = 2.0 * margin(hi - 1)
        # the left edge is every row's start at c0 = 0, and the right edge
        # the end of the rows n <= c1
        left = c0 == 0 or _falls_outward(block[:, 1], block[:, 0], shifts, slack)
        inner = max(0, c1 + 1 - lo)
        right = inner == len(block) or _falls_outward(block[inner:, -2], block[inner:, -1],
                                                      shifts[inner:], slack)
        if left and right:
            return hi, c0, width, block, shifts
        if not left:
            c0 = max(0, c0 - width // 2)
        width *= 2


def _falls_outward(inside: np.ndarray, edge: np.ndarray, shifts: np.ndarray, slack: float) -> bool:
    """Whether every row's edge term lies more than ``slack`` below its
    neighbour inside the window and more than ``slack`` - ``_UNDERFLOW``
    below the row's max."""
    return bool(((inside - edge > slack) & (shifts - edge > slack - _UNDERFLOW)).all())


def compound_count_pmf_table(n_max: int, params: CountDistributionParams) -> np.ndarray:
    """P(M = n) for n = 0..n_max as an array. For n >= 1:

        P(M = n) = sum_{j=1..n} theta^j (j*lambda)^(n-j)
                   exp(-(j*lambda + theta)) / (j! (n-j)!)

    computed term-wise in log space with log-sum-exp (0*log(0) = 0): row n
    is exp(s) times the ``ndarray.sum`` of its n terms (``_count_terms``)
    exponentiated after the shift by their max s. The domain is n_max >= 0
    and n_max*lambda + theta finite, where each row's n terms are finite.

    Rows are built in blocks of at most ``_TABLE_BLOCK`` (n, j) terms, each
    block over a window of at least ``_BAND_COLUMNS`` columns j, so memory
    is O(n_max). Only the window's terms are evaluated and exponentiated; every
    other term of a row exponentiates to +0.0, and the bytes are those of
    the full rows:

    * A row's terms are strictly concave in j: at lambda > 0, t''(j) =
      -2/j - (n-j)/j**2 - psi'(j+1) - psi'(n-j+1) < 0. So if at each window
      edge that is not the row's end the terms fall outward by more than
      twice the rounding margin (``_count_terms``), and that edge term lies
      more than 800 plus twice the margin below the window's max, then
      every term outside the window lies more than 800 below the row's max,
      which is the window's max. Then its shifted term is at most -800,
      where ``np.exp`` is +0.0. A block whose window fails this for any row
      doubles the window, towards a failing left edge; at the whole rows it
      passes. The first window starts at column 1, and each next one one
      column left of the previous block's nonzero band, as wide as the
      previous window: a row's band widens with n, so a window doubles
      only about log2(n_max / 16) times in all.
    * ``np.exp`` is evaluated only where the shifted term is above
      ``_UNDERFLOW``, and +0.0 is written elsewhere, which is the value it
      would return there.
    * Each row's sum has the bits of one ``ndarray.sum`` over its n
      entries, the window's and +0.0 elsewhere: the entries, and so the
      grouping and the bytes, of the full row's sum
      (``risk_measures._row_sums``).

    If any array of the build cannot be allocated, it raises DomainError
    naming the bytes the build holds at its peak, 15 float64s per row:
    8 * 15 * (n_max + 1). While log(k!) is built it holds about 6 per row:
    the table, three j-length arrays and ``_lgamma``'s argument and result
    (``_lgamma`` works a block at a time). Then it holds 11 per row: the
    table, the four j-length arrays, log(k!), ``steps`` and the padded
    log-factorials (two each), and ``_row_sums``' scratch row. The peak falls in
    a block past row ``_TABLE_BLOCK`` whose window has grown to a whole
    row of up to n_max terms: its terms and their temporaries, about 3.5
    per row.
    """
    theta, lam = params.theta, params.lambda_cluster
    if n_max < 0 or not math.isfinite(n_max * lam + theta):
        raise DomainError(f"need n_max >= 0 and finite n_max*lambda + theta, got {n_max}*{lam} + {theta}")
    try:
        out = np.empty(n_max + 1)
        out[0] = math.exp(-theta)
        if lam == 0.0:  # row n's one finite term is its own shift: its sum is 1.0
            _, j_log_theta, j_rate, log_fact = _count_prelude(n_max, theta, lam)
            out[1:] = [math.exp(t) for t in j_log_theta - j_rate - log_fact[1:]]
            return out
        terms, margin = _count_terms(n_max, theta, lam)
        scratch = np.zeros(n_max)  # _row_sums' row of +0.0
        lo, c0, width = 1, 0, _BAND_COLUMNS
        while lo <= n_max:
            hi, c0, width, block, shifts = _window(terms, margin, lo, c0, width, n_max)
            block -= shifts[:, None]
            live = block > _UNDERFLOW
            scaled = np.zeros(block.shape)
            np.exp(block, out=scaled, where=live)
            band = np.flatnonzero(live.any(axis=0))
            first = c0 + int(band[0])
            sums = _row_sums(scaled[:, band[0]:band[-1] + 1], np.arange(lo, hi), first, scratch)
            out[lo:hi] = np.array([math.exp(shift) for shift in shifts.tolist()]) * sums
            lo, c0 = hi, max(0, first - 1)
        return out
    except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
        raise DomainError(f"a count pmf table of {n_max + 1} rows needs {8 * 15 * (n_max + 1)} bytes, "
                          "more memory than can be allocated") from None


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
    """The degree-7 polynomial ``coeffs`` at ``x`` by Horner's rule, each
    step in place."""
    r = np.full_like(x, coeffs[7], dtype=np.float64)
    for c in coeffs[6::-1]:
        r *= x
        r += c
    return r


def normal_quantile(u) -> np.ndarray:
    """Inverse standard normal CDF (Wichura's AS 241 rational approximation,
    double-precision PPND16 variant) of an array in (0, 1].

    Each branch is evaluated only on its own elements, gathered by index:
    the central one on |u - 0.5| <= 0.425, the near tail where
    sqrt(-log(min(u, 1 - u))) <= 5 and the far tail on the rest."""
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    out = np.empty_like(q)
    flat_u, flat_q, flat_out = u.reshape(-1), q.reshape(-1), out.reshape(-1)  # 0-d input too
    central = np.abs(flat_q) <= 0.425
    with np.errstate(invalid="ignore", divide="ignore"):
        at = np.flatnonzero(central)
        qc = flat_q.take(at)
        r = 0.180625 - qc * qc
        flat_out[at] = qc * _poly(_A, r) / _poly(_B, r)

        at = np.flatnonzero(~central)
        lower = flat_q.take(at) < 0.0
        rt = flat_u.take(at)
        np.subtract(1.0, rt, out=rt, where=~lower)
        # u == 1 maps to +inf through log(0); clamp to the largest
        # representable tail argument instead so draws stay finite.
        rt[rt <= 0.0] = 5e-324
        lr = np.sqrt(-np.log(rt))
        near = lr <= 5.0
        for branch, shift, num, den in ((np.flatnonzero(near), 1.6, _C, _D),
                                        (np.flatnonzero(~near), 5.0, _E, _F)):
            r = lr.take(branch) - shift
            lr[branch] = _poly(num, r) / _poly(den, r)
        np.negative(lr, out=lr, where=lower)
        flat_out[at] = lr
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def poisson_cum_table(rate: float) -> np.ndarray:
    """Cumulative pmf table of inversion (rate < 30), whose draw is the
    first k with ``cum[k] >= u``, clamped to the table (``_guide_table``).

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
def _guide_table(rate: float) -> tuple:
    """(size, start, stop), the guide table of ``poisson_cum_table(rate)``
    (Chen & Asau 1974; Devroye 1986, ch. III): ``size`` is the least power
    of two above its length L, ``start[g] = min(#{cum < g / size}, L - 1)``
    for g = 0..size, and ``stop`` is cum with its last entry 2.0, where
    every search stops. Cached per rate, read-only."""
    cum = poisson_cum_table(rate)
    size = 1 << len(cum).bit_length()
    start = np.minimum(np.searchsorted(cum, np.arange(size + 1) / size, side="left"), len(cum) - 1)
    stop = np.append(cum[:-1], 2.0)
    for table in (start, stop):
        table.setflags(write=False)  # shared by every caller through the cache
    return size, start, stop


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

    The fast test and k are computed on every element, the slow test only
    on the elements that the fast test rejects and that are not invalid.
    log(k!) is read from the window in ``consts``; a draw outside it
    evaluates its own."""
    a, b, vr, inv_alpha, log_rate, first, log_fact = consts
    us = 0.5 - np.abs(u - 0.5)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + rate + 0.43)
    accepted = (us >= 0.07) & (v <= vr)
    invalid = (k < 0) | ((us < 0.013) & (v > us))
    slow = np.flatnonzero(~(accepted | invalid))
    k_slow, us_slow = k.take(slow), us.take(slow)
    with np.errstate(divide="ignore", invalid="ignore"):
        # at rates up to 2**20 and uniforms from words (us >= 2**-53), |k| <
        # 2**60 casts exactly, and k = inf (us = 0) is invalid; as unsigned,
        # an index below the window wraps above it
        at = (k_slow - first).astype(np.intp)
        lg_k1 = log_fact.take(at, mode="clip")
        outside = at.view(np.uintp) >= len(log_fact)
        if outside.any():
            lg_k1[outside] = _lgamma(k_slow[outside] + 1.0)
        lhs = np.log(v.take(slow) * inv_alpha / (a / (us_slow * us_slow) + b))
        accepted[slow] = lhs <= k_slow * log_rate - rate - lg_k1
    return accepted, k.astype(np.int64)


def _inversion_nonzero(words: np.ndarray, rate: float):
    """Poisson(rate) draws by inversion, one raw word each, as (rows,
    counts): the indexes of the words that draw a nonzero count, ascending,
    and those counts.

    A word's uniform ``((w >> 11) + 1) * 2**-53`` is at most ``cum[0]``, and
    draws 0, exactly when ``w < floor(cum[0] * 2**53) * 2**11``, so one
    ``uint64`` comparison picks the nonzero rows, and only those words are
    mapped to uniforms u and searched for the first k with ``cum[k] >= u``,
    clamped to the table. When ``cum[0]`` is 1.0 that threshold is 2**64
    and every draw is 0. The search starts at ``start[floor(u * size)]``
    (``_guide_table``), which never passes k since ``u * size`` is exact,
    and steps forward while ``stop[k] < u``; the 2.0 sentinel is the clamp.
    Format version 1 fixes k, not how it is found."""
    cum = poisson_cum_table(rate)
    zero_below = int(cum[0] * 2.0 ** 53) << 11
    if zero_below >= 1 << 64:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    size, start, stop = _guide_table(rate)
    rows = np.flatnonzero(words >= np.uint64(zero_below))
    u = words_to_uniforms(words[rows])
    k = start[(u * size).astype(np.intp)]
    step = np.flatnonzero(stop[k] < u)
    while step.size:
        k[step] += 1
        step = step[stop[k[step]] < u[step]]
    return rows, k


def poisson_regions(words: np.ndarray, rate: float, attempts: int):
    """One Poisson(rate) draw per row of fixed per-row word regions, as
    (rows, draws): the rows, ascending, whose draw is nonzero or unresolved
    (-1), and their draws; every other row draws 0. A region that starts
    past a row's first word is passed as a column view.

    At rate 0 no word is read. Below ``PTRS_THRESHOLD`` row i inverts
    ``words[i, 0]``, and the zero draws are never searched
    (``_inversion_nonzero``). From it on, PTRS attempt a reads
    ``words[i, 2a]`` and ``words[i, 2a + 1]``; rows still unresolved after
    ``attempts`` attempts come back as -1 for the caller to spill.
    """
    if rate == 0.0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    if rate < PTRS_THRESHOLD:
        return _inversion_nonzero(words[:, 0], rate)
    if attempts == 0:
        return np.arange(len(words)), np.full(len(words), -1, dtype=np.int64)
    consts = _ptrs_consts(rate)
    # attempt 1 reads every row: its columns are read in place, and its
    # values are the draws of the rows it accepts
    accepted, draws = _ptrs_attempt(words_to_uniforms(words[:, 0]), words_to_uniforms(words[:, 1]),
                                    rate, consts)
    pending = np.flatnonzero(~accepted)
    draws[pending] = -1
    for column in range(2, 2 * attempts, 2):
        if pending.size == 0:
            break
        accepted, k = _ptrs_attempt(words_to_uniforms(words[pending, column]),
                                    words_to_uniforms(words[pending, column + 1]), rate, consts)
        draws[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
    rows = np.flatnonzero(draws)
    return rows, draws[rows]


def _one_row(stream: RandomStream, size: int):
    """The ``read`` and ``counts`` of a row sampler for ``size`` draws from
    ``stream`` alone."""
    if size < 0:
        raise DomainError("size must be nonnegative")
    return (lambda rows, counts: stream.raw_words(int(counts.sum()))), np.array([size])


def sample_poisson_batch(stream: RandomStream, rate: float, size: int) -> np.ndarray:
    """Draw ``size`` Poisson(rate) variates from ``stream``: one row of
    ``sample_poisson_rows``."""
    return sample_poisson_rows(*_one_row(stream, size), rate)


def sample_poisson_rows(read, counts: np.ndarray, rate: float) -> np.ndarray:
    """``counts[i]`` Poisson(rate) draws from row ``i``, concatenated.
    ``read(rows, words)`` returns the next ``words[j]`` words of each row
    ``rows[j]``, concatenated (``RaggedStreams.raw_words``).

    Rate 0 reads no word. Below ``PTRS_THRESHOLD`` each draw inverts one
    word, and only the nonzero draws are searched (``_inversion_nonzero``).
    From it on, draws use PTRS rejection, round by round: each round, every
    row with ``p`` unresolved draws reads its next ``2p`` words, and its
    unresolved draw ``j`` takes the round's words ``2j`` and ``2j + 1`` as
    (u, v)."""
    if rate < 0 or not math.isfinite(rate):
        raise DomainError(f"rate must be nonnegative, got {rate}")
    draws = np.zeros(int(counts.sum()), dtype=np.int64)
    if rate == 0.0:
        return draws
    if rate < PTRS_THRESHOLD:
        nonzero, k = _inversion_nonzero(read(np.arange(len(counts)), counts), rate)
        draws[nonzero] = k
        return draws
    consts = _ptrs_consts(rate)
    owner = np.repeat(np.arange(len(counts)), counts)
    pending = np.arange(len(owner))
    while pending.size:
        per_row = np.bincount(owner[pending], minlength=len(counts))
        rows = np.flatnonzero(per_row)
        words = words_to_uniforms(read(rows, 2 * per_row[rows]))
        accepted, k = _ptrs_attempt(words[0::2], words[1::2], rate, consts)
        draws[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
    return draws


def sample_indices_rows(read, counts: np.ndarray, modulus: int) -> np.ndarray:
    """``counts[i]`` unbiased indices in ``[0, modulus)`` from row ``i``,
    concatenated, as ``uint64``; rows are read as in ``sample_poisson_rows``.

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
        words = read(rows, need[rows])
        owner = np.repeat(rows, need[rows])
        if limit is not None:
            kept = words < limit
            words, owner = words[kept], owner[kept]
        got = np.bincount(owner, minlength=len(counts))
        out[ragged_ranges(slot, got)] = words % np.uint64(modulus)
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
    """Draw ``size`` severities from ``stream``: one row of
    ``sample_severity_rows``."""
    return sample_severity_rows(*_one_row(stream, size), dist)


def sample_severity_rows(read, counts: np.ndarray, dist: SeverityDistribution) -> np.ndarray:
    """``counts[i]`` severities from row ``i``, concatenated; rows are read
    as in ``sample_poisson_rows``. Fixed reads no word; every other kind
    reads one word per draw (inverse CDF)."""
    if isinstance(dist, Fixed):
        return np.full(int(counts.sum()), dist.value)
    return _severity_quantile(dist, words_to_uniforms(read(np.arange(len(counts)), counts)))
