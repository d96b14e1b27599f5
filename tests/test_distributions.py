"""Distribution pmfs and samplers against independent oracles."""

from decimal import Decimal, localcontext
from fractions import Fraction
import functools
import hashlib
import math
import re
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

import cyberrisk.distributions as distributions
from cyberrisk.config import paper_config, parse_config
from cyberrisk.distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    _lgamma,
    _ptrs_attempt,
    _ptrs_consts,
    compound_count_pmf_table,
    normal_quantile,
    poisson_cum_table,
    poisson_regions,
    sample_indices_rows,
    sample_poisson_batch,
    sample_poisson_rows,
    sample_severity_batch,
    sample_severity_rows,
)
from cyberrisk.errors import DomainError
from cyberrisk.loss_model import DeviceParameters, expected_present_loss
from cyberrisk.scenario import RiskLevel, level_parameters
from cyberrisk.streams import (
    RaggedStreams,
    RandomStream,
    chunk_words,
    derive_stream,
    words_to_uniforms,
)

from oracles import (
    _inversion,
    compound_count_pmf_bruteforce,
    compound_count_pmf_table_full_rows,
    normal_quantile_whole_array,
    ptrs_attempt_gammaln,
    ptrs_attempt_whole_array,
    scatter_regions,
    total_variation,
)
from test_loss_model import one_device_losses


# ---------------------------------------------------------------------------
# exact pmfs / densities
# ---------------------------------------------------------------------------

def _poisson_pmf(n: int, rate: float) -> float:
    """P(N = n), N ~ Poisson(rate), from the compound-count table at lambda 0."""
    return float(compound_count_pmf_table(n, CountDistributionParams(rate, 0.0))[n])


class TestPoissonPmf:
    """The package's Poisson pmfs against scipy: the cumulative table of the
    inversion sampler (rate < 30) and the compound-count table at lambda 0."""

    def test_spec_values(self):
        assert _poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)
        assert _poisson_pmf(2, 2.0) == pytest.approx(2 * math.exp(-2), abs=1e-12)
        assert poisson_cum_table(1.0)[0] == pytest.approx(math.exp(-1), abs=1e-12)
        assert np.diff(poisson_cum_table(2.0))[1] == pytest.approx(2 * math.exp(-2), abs=1e-12)
        assert poisson_cum_table(0.0).tolist() == [1.0]

    def test_matches_scipy_small_and_large(self):
        for rate in (0.3, 1.0, 7.5, 29.9, 31.0, 250.0, 800.0):
            for n in (0, 1, 5, 30, 31, 100, 900):
                assert _poisson_pmf(n, rate) == pytest.approx(
                    float(stats.poisson.pmf(n, rate)), rel=1e-10, abs=1e-300)
        for rate in (0.3, 1.0, 7.5, 29.9):
            cum = poisson_cum_table(rate)
            assert cum == pytest.approx(stats.poisson.cdf(np.arange(len(cum)), rate), rel=1e-10)

    def test_survives_huge_rate(self):
        assert _poisson_pmf(1000, 1000.0) == pytest.approx(
            float(stats.poisson.pmf(1000, 1000.0)), rel=1e-9)

    def test_normalization_truncated(self):
        for rate in (0.5, 4.0, 25.0):
            n_max = int(rate + 12 * math.sqrt(rate)) + 20
            table = compound_count_pmf_table(n_max, CountDistributionParams(rate, 0.0))
            assert abs(table.sum() - 1.0) < 1e-9
            assert abs(poisson_cum_table(rate)[-1] - 1.0) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            CountDistributionParams(-0.5, 0.0)
        with pytest.raises(DomainError):
            compound_count_pmf_table(-1, CountDistributionParams(1.0, 0.0))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLogGamma:
    """``_lgamma`` is cephes lgam bit for bit at the package's arguments."""

    def test_every_integer_to_two_to_the_21(self):
        x = np.arange(-40, 2 ** 21 + 1, dtype=np.float64)
        assert _same_bits(_lgamma(x), gammaln(x))

    def test_log_spaced_integers_to_1e300(self):
        x = np.floor(np.logspace(0, 300, 10 ** 6))
        assert _same_bits(_lgamma(x), gammaln(x))

    def test_special_values(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 2.556348e305, 1e306, 1.7e308])
        assert _same_bits(_lgamma(x), gammaln(x))


class TestCompoundCountPmf:
    def test_zero_branch(self):
        params = CountDistributionParams(theta=1.7, lambda_cluster=0.4)
        assert compound_count_pmf_table(0, params)[0] == pytest.approx(math.exp(-1.7), abs=1e-12)

    def test_single_term(self):
        params = CountDistributionParams(theta=1.0, lambda_cluster=1.0)
        assert compound_count_pmf_table(1, params)[1] == pytest.approx(math.exp(-2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_bruteforce_convolution(self, theta, lam):
        params = CountDistributionParams(theta=theta, lambda_cluster=lam)
        oracle = compound_count_pmf_bruteforce(20, theta, lam)
        for n in range(21):
            assert abs(compound_count_pmf_table(n, params)[n] - oracle[n]) <= 1e-10

    def test_zero_lambda_collapses_to_poisson(self):
        params = CountDistributionParams(theta=3.0, lambda_cluster=0.0)
        for n in range(15):
            assert compound_count_pmf_table(n, params)[n] == pytest.approx(
                float(stats.poisson.pmf(n, 3.0)), rel=1e-10)

    def test_normalization(self):
        params = CountDistributionParams(theta=2.0, lambda_cluster=0.5)
        total = sum(compound_count_pmf_table(n, params)[n] for n in range(41))
        assert abs(total - 1.0) < 1e-9

    def test_table_matches_scalar(self):
        # row n does not depend on how far the table extends
        params = CountDistributionParams(theta=0.8, lambda_cluster=3.0)
        table = compound_count_pmf_table(30, params)
        for n in range(31):
            assert table[n] == pytest.approx(compound_count_pmf_table(n, params)[n],
                                             rel=1e-12, abs=1e-300)

    def test_normalization_at_wide_truncation(self):
        # mean + 12 sigma truncation keeps mass within 1e-9
        params = CountDistributionParams(theta=2.0, lambda_cluster=4.0)
        n_max = int(params.mean + 12 * math.sqrt(params.variance)) + 1
        assert abs(compound_count_pmf_table(n_max, params).sum() - 1.0) < 1e-9

    def test_table_bytes_pinned(self):
        # SHA-256 of every table on the grid, then of the paper Baseline
        # premium's repr, captured from the row-at-a-time build. Lambda runs
        # from 0 to 1e300, where every term but one underflows; n_max
        # straddles the small sizes where numpy's pairwise sum changes its
        # grouping.
        digest = hashlib.sha256()
        for theta in (1e-12, 2e-5, 0.4, 50.0, 2.0 ** 20):
            for lam in (0.0, 1e-9, 0.5, 29.99, 182.0, 1e3, 2.0 ** 20, 1e300):
                params = CountDistributionParams(theta, lam)
                for n_max in (0, 1, 7, 8, 9, 65, 422):
                    digest.update(compound_count_pmf_table(n_max, params).tobytes())
        spec = parse_config(paper_config())
        baseline = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
        digest.update(repr(expected_present_loss(baseline)).encode())
        assert digest.hexdigest() == (
            "8805640f33200e78caf642dbf4609bb67cb0e02b6af0aa03abaa88a1711ffae1")

    def test_overflowing_n_max_lambda_is_rejected(self):
        # 2 * 1e308 overflows, and so does 1e308 + theta at theta 1e308; at
        # n_max 1 and theta 0.4 the sum stays finite
        params = CountDistributionParams(0.4, 1e308)
        with pytest.raises(DomainError):
            compound_count_pmf_table(9, params)
        with pytest.raises(DomainError):
            compound_count_pmf_table(1, CountDistributionParams(1e308, 1e308))
        assert compound_count_pmf_table(1, params).tolist() == [math.exp(-0.4), 0.0]

    def test_out_of_memory_names_the_build_peak(self, monkeypatch):
        # the bytes named cover the arrays the build holds at once, and its
        # traced peak, taken with 64-term blocks so that the row-length
        # arrays dominate it
        n_max, params = 3_000, CountDistributionParams(2e-5, 182.0)

        def refuse(x):
            raise MemoryError

        with monkeypatch.context() as patch:
            patch.setattr(distributions, "_lgamma", refuse)
            with pytest.raises(DomainError, match=r"needs \d+ bytes") as caught:
                compound_count_pmf_table(n_max, params)
        named = int(re.search(r"needs (\d+) bytes", str(caught.value)).group(1))
        # the table and log(k!), the four j-length arrays, steps and the
        # padded log-factorials
        held = 8 * (2 * (n_max + 1) + 4 * n_max + 2 * n_max + 2 * n_max)
        monkeypatch.setattr(distributions, "_TABLE_BLOCK", 64)
        tracemalloc.start()
        try:
            compound_count_pmf_table(n_max, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert named >= max(held, peak)

    def test_table_memory_is_bounded(self):
        # the paper Baseline at n_max 5,000: 0.50 MiB row by row, about
        # 0.7 MiB in 8,192-entry blocks, 190 MiB per array as one 2-D build
        tracemalloc.start()
        try:
            compound_count_pmf_table(5_000, CountDistributionParams(2e-5, 182.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("lam, horizon, pinned", [
        (182.0, 3_650, "0x1.c6d5bf61c6baep+1"),
        (182.0, 8_000, "0x1.c6d5bf62c8800p+1"),
        (182.0, 20_000, "0x1.c6d5bf60ee70bp+1"),
        (2.0 ** 12, 18_250, "0x1.3e36adfb0a77cp+6"),
        (2.0 ** 14, 18_250, "0x1.3e270b93c4e59p+8"),
        (2.0 ** 16, 18_250, "0x1.625d8a17a9273p+8"),
    ])
    def test_long_horizon_premiums_pinned(self, lam, horizon, pinned):
        # the paper device (b = 1000, r = 0.03, theta = 2e-5) at tables of
        # 3,708 to 21,816 rows, past the digest grid's 423; pinned from the
        # full-row build
        device = DeviceParameters(1000.0, 0.03, CountDistributionParams(2e-5, lam), horizon_days=horizon)
        assert expected_present_loss(device).hex() == pinned

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(theta=st.one_of(st.sampled_from([1e-12, 2e-5, 50.0, 2.0 ** 20]),
                           st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)),
           lam=st.one_of(st.sampled_from([1e-9, 1e300, 0.5, 182.0]),
                         st.floats(-10.0, 300.0).map(lambda e: 10.0 ** e)),
           n_max=st.integers(0, 600))
    def test_band_build_returns_the_full_row_bytes(self, theta, lam, n_max):
        params = CountDistributionParams(theta, lam)
        expect = compound_count_pmf_table_full_rows(n_max, params)
        assert compound_count_pmf_table(n_max, params).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("theta, lam, n_max", [(1000.0, 1.0, 2_500), (50.0, 0.5, 3_000),
                                                   (2e-5, 1e-9, 1_500)])
    def test_wide_and_moving_bands_return_the_full_row_bytes(self, monkeypatch, theta, lam, n_max):
        # bands of up to about 2,000 columns, and one on the diagonal; with
        # 256-term blocks the window outgrows the block, one row each
        params = CountDistributionParams(theta, lam)
        expect = compound_count_pmf_table_full_rows(n_max, params).tobytes()
        assert compound_count_pmf_table(n_max, params).tobytes() == expect
        monkeypatch.setattr(distributions, "_TABLE_BLOCK", 256)
        assert compound_count_pmf_table(n_max, params).tobytes() == expect

    def test_a_window_right_of_the_band_grows_left(self):
        # a band's left edge never moves left as n grows, so the build never
        # starts a window right of one; started there, the left edge check
        # fails until the window reaches the band
        n_max = 422
        terms, margin = distributions._count_terms(n_max, 2e-5, 182.0)
        hi, c0, width, block, shifts = distributions._window(terms, margin, 300, 200, 64, n_max)
        assert (c0, width) == (0, 512)
        assert np.array_equal(shifts, terms(300, hi, 0, hi - 1).max(axis=1))

    def test_exp_is_plus_zero_at_and_below_the_underflow_cut(self):
        # the band build writes +0.0 for a shifted term at or below -800
        # instead of exponentiating it: e**-800 is below 2**-1154, far
        # under half the smallest subnormal, 2**-1075. Every start offset
        # takes numpy's vector loop through a different tail.
        assert distributions._UNDERFLOW == -800.0
        x = np.concatenate((np.linspace(-800.0, -2_000.0, 1_200_001),
                            -np.logspace(math.log10(2_000.0), 308.0, 10_001), [-np.inf]))
        for start in range(8):
            assert not np.exp(x[start:]).view(np.uint64).any()
        assert np.exp(np.float64(-800.0)).view(np.uint64) == 0

    @pytest.mark.parametrize("theta", [1e-12, 2e-5, 0.4, 50.0, 2.0 ** 20])
    @pytest.mark.parametrize("lam", [1e-9, 0.5, 29.99, 182.0, 1e3, 2.0 ** 20, 1e300])
    def test_term_margin_bounds_the_rounding_error(self, theta, lam):
        # every computed term lies within half its row's margin of the exact
        # value of the formula at the float arguments, which the band checks
        # need (see _count_terms): rows of 1 to 300 terms, at 60 significant
        # digits
        n_max = 300
        terms, margin = distributions._count_terms(n_max, theta, lam)
        for n in (1, 2, 7, 8, 9, 64, 65, 129, 300):
            exact = _exact_terms(n, theta, lam, range(1, n + 1))
            error = max(abs(Decimal(float(t)) - e) for t, e in zip(terms(n, n + 1, 0, n)[0], exact))
            assert error <= Decimal(margin(n)) / 2, (n, error, margin(n))

    def test_term_margin_bounds_the_rounding_error_of_a_long_row(self):
        # the paper device's last row at horizon 20,000, every 61st term
        n = 20_058
        terms, margin = distributions._count_terms(n, 2e-5, 182.0)
        columns = list(range(0, n, 61))
        exact = _exact_terms(n, 2e-5, 182.0, [c + 1 for c in columns])
        row = terms(n, n + 1, 0, n)[0]
        error = max(abs(Decimal(float(row[c])) - e) for c, e in zip(columns, exact))
        assert error <= Decimal(margin(n)) / 2


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
              Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798)]


@functools.lru_cache(maxsize=None)
def _exact_log_factorial(k: int) -> Decimal:
    """log(k!) to the current Decimal precision: a sum of logs below 100,
    Stirling's series with nine Bernoulli terms above (error below 1e-37)."""
    if k < 100:
        return sum((Decimal(i).ln() for i in range(2, k + 1)), Decimal(0))
    z = Decimal(k + 1)
    total = (z - Decimal("0.5")) * z.ln() - z + (2 * _PI).ln() / 2
    for m, b in enumerate(_BERNOULLI, start=1):
        total += Decimal(b.numerator) / (Decimal(b.denominator) * (2 * m) * (2 * m - 1) * z ** (2 * m - 1))
    return total


def _exact_terms(n: int, theta: float, lam: float, js) -> list:
    """t(n, j) = j log(theta) + (n - j) log(j lambda) - (j lambda + theta)
    - log(j!) - log((n - j)!) at the exact values of the float arguments."""
    with localcontext() as ctx:
        ctx.prec = 60
        theta, lam = Decimal(theta), Decimal(lam)
        log_theta = theta.ln()
        return [j * log_theta + (n - j) * (j * lam).ln() - (j * lam + theta)
                - _exact_log_factorial(j) - _exact_log_factorial(n - j) for j in js]


def test_normal_quantile_matches_scipy():
    u = np.concatenate([
        np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6]),
        np.linspace(0.001, 0.999, 199),
    ])
    mine = normal_quantile(u)
    ref = stats.norm.ppf(u)
    assert np.max(np.abs(mine - ref)) < 1e-9
    assert normal_quantile(np.array([0.5]))[0] == 0.0


def test_normal_quantile_equals_the_whole_array_formula_bit_for_bit():
    """Each branch runs only on its own elements, with the bits of all
    three evaluated everywhere: on uniforms from words, and on each edge,
    a neighbour on either side, and the near/far boundary lr = 5
    (u = exp(-25)) approached from both sides."""
    edges = [2.0 ** -53, 5e-324, 1.0, 1.0 - 2.0 ** -53, 1e-12, 0.075, 0.925, 0.5]
    grid = [np.nextafter(x, direction) for x in edges for direction in (0.0, x, 2.0)]
    e25 = math.exp(-25.0)
    steps = np.arange(-60, 61)
    boundary = np.concatenate([e25 * (1.0 + steps * 2.0 ** -52), 1.0 - e25 * (1.0 + steps * 2.0 ** -40)])
    lr = np.sqrt(-np.log(np.minimum(boundary, 1.0 - boundary)))
    assert (lr <= 5.0).any() and (lr > 5.0).any()
    words = RandomStream(7, 1).raw_words(100_000)
    for u in (np.array(grid), boundary, words_to_uniforms(words), words_to_uniforms(words[:9])):
        assert normal_quantile(u).tobytes() == normal_quantile_whole_array(u).tobytes()
    for x in grid:
        assert normal_quantile(x).tobytes() == normal_quantile_whole_array(x).tobytes()


# ---------------------------------------------------------------------------
# samplers vs their pmfs and moment identities
# ---------------------------------------------------------------------------

class TestPoissonSampler:
    def test_zero_rate(self):
        s = derive_stream(1, 10)
        assert (sample_poisson_batch(s, 0.0, 100) == 0).all()
        assert s.counter == 0

    def test_moments_rate_4(self):
        s = derive_stream(2024, 1)
        draws = sample_poisson_batch(s, 4.0, 1_000_000)
        assert abs(draws.mean() - 4.0) < 0.01
        assert abs(draws.var() - 4.0) < 0.05

    def test_tv_distance_rate_1(self):
        s = derive_stream(2024, 2)
        draws = sample_poisson_batch(s, 1.0, 1_000_000)
        counts = np.bincount(draws)
        pmf = stats.poisson.pmf(np.arange(40), 1.0)
        assert total_variation(counts, pmf, len(draws)) < 0.005

    def test_tv_distance_rejection_regime(self):
        # rate above the method switch exercises the PTRS path
        s = derive_stream(2024, 3)
        draws = sample_poisson_batch(s, 45.0, 300_000)
        counts = np.bincount(draws)
        pmf = stats.poisson.pmf(np.arange(150), 45.0)
        assert total_variation(counts, pmf, len(draws)) < 0.005
        assert abs(draws.mean() - 45.0) < 0.1

    def test_scalar_equals_batch_prefix(self):
        a = derive_stream(7, 7)
        b = derive_stream(7, 7)
        assert sample_poisson_batch(a, 3.3, 1)[0] == sample_poisson_batch(b, 3.3, 5)[0]

    def test_negative_rate(self):
        with pytest.raises(DomainError):
            sample_poisson_batch(derive_stream(0, 0), -1.0, 1)

    def test_ptrs_regions(self):
        words = chunk_words(2024, 4, 0, 300_000, 8)
        draws = scatter_regions(poisson_regions(words[:, 1:], 45.0, 15), len(words))
        assert (draws >= 0).all()
        pmf = stats.poisson.pmf(np.arange(150), 45.0)
        assert total_variation(np.bincount(draws), pmf, len(draws)) < 0.005
        # rows a single attempt leaves unresolved come back as -1
        once = scatter_regions(poisson_regions(words[:, 1:], 45.0, 1), len(words))
        assert 0 < (once == -1).sum() < len(once) // 2
        assert (once[once >= 0] == draws[once >= 0]).all()

    @pytest.mark.parametrize("rate", [1e-17, 0.4, 5.0, 29.99])
    def test_regions_below_the_threshold_invert_column_first(self, rate):
        words = chunk_words(2024, 5, 0, 10_000, 2)
        draws = scatter_regions(poisson_regions(words[:, 3:], rate, 1), len(words))
        assert np.array_equal(draws, sample_poisson_rows(lambda rows, counts: words[:, 3],
                                                         np.array([len(words)]), rate))

    def test_regions_at_rate_0_read_no_word(self):
        words = np.empty((1_000, 0), dtype=np.uint64)
        rows, draws = poisson_regions(words, 0.0, 16)
        assert draws.dtype == np.int64 and rows.tolist() == draws.tolist() == []

    @pytest.mark.parametrize("rate", [30.0, 182.0, 2.0 ** 20])
    def test_ptrs_attempt_matches_gammaln_inside_and_outside_the_window(self, rate):
        # log(k!) comes from the cached window around the rate. With v <= us
        # the slow test decides: a u within 1e-6 of 1 puts k far above the
        # window, and at 2**20 a u in (1e-4, 5e-3) puts some k in [0, first),
        # so those k evaluate their own log(k!)
        rng = np.random.default_rng(int(rate))
        u = rng.uniform(size=200_000)
        v = rng.uniform(size=200_000)
        d = rng.uniform(0.0, 1e-6, size=2_000)
        u_edge = np.concatenate([d, 1.0 - d, rng.uniform(1e-4, 5e-3, size=2_000)])
        v_edge = (0.5 - np.abs(u_edge - 0.5)) * rng.uniform(size=6_000)
        _, _, _, _, _, first, log_fact = _ptrs_consts(rate)
        k_edge = ptrs_attempt_gammaln(u_edge, v_edge, rate)[1]
        assert (k_edge >= first + len(log_fact)).sum() >= 2_000
        assert first == 0 or ((k_edge >= 0) & (k_edge < first)).sum() >= 100
        for u, v in ((u, v), (u_edge, v_edge)):
            accepted, k = _ptrs_attempt(u, v, rate, _ptrs_consts(rate))
            want_accepted, want_k = ptrs_attempt_gammaln(u, v, rate)
            assert np.array_equal(accepted, want_accepted)
            assert np.array_equal(k, want_k)

    @pytest.mark.parametrize("rate", [30.0, 182.0, 5e3, 2.0 ** 20])
    def test_ptrs_attempt_equals_the_whole_array_test_bit_for_bit(self, rate):
        """The slow test runs only where the fast test rejects, with the
        bits of every term evaluated everywhere: on word uniforms, and on
        the edges us = 0.013 and 0.07 and v = vr (each with a neighbour on
        either side), k < 0, and k outside the log-factorial window. There
        each v also lies a quarter below or above the slow test's threshold
        log(k!), taken from ``gammaln``, so that log(k!) decides it."""
        consts = _ptrs_consts(rate)
        a, b, vr, inv_alpha, _, first, log_fact = consts
        words = words_to_uniforms(RandomStream(int(rate), 3).raw_words(200_000))
        u_edges = [x for edge in (0.013, 0.07) for x in (edge, 1.0 - edge)]
        u_grid = np.array([np.nextafter(x, to) for x in u_edges for to in (0.0, x, 1.0)])
        us_grid = 0.5 - np.abs(u_grid - 0.5)
        v_grid = np.concatenate([[np.nextafter(vr, to) for to in (0.0, vr, 1.0)], us_grid,
                                 np.nextafter(us_grid, 0.0), np.nextafter(us_grid, 1.0)])
        # u near 0 gives k < 0, near 1 k above the window; at 2**20 a u in
        # (1e-4, 5e-3) gives k in [0, first); v below us leaves them valid
        low = np.geomspace(1e-12, 5e-3, 3_000)
        u_far = np.concatenate([low, 1.0 - low])
        us_far = 0.5 - np.abs(u_far - 0.5)
        k_far = ptrs_attempt_whole_array(u_far, us_far * 0.5, rate, consts)[1]
        assert (k_far < 0).any() and (k_far >= first + len(log_fact)).any()
        assert first == 0 or ((k_far >= 0) & (k_far < first)).any()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            threshold = (k_far * math.log(rate) - rate - gammaln(k_far + 1.0)
                         + np.log((a / (us_far * us_far) + b) / inv_alpha))
        near = (k_far >= 0) & (threshold > -700.0) & (threshold < -1.0)
        outside = (k_far < first) | (k_far >= first + len(log_fact))
        assert (near & outside & (k_far > rate)).sum() >= 10
        assert first == 0 or (near & outside & (k_far < rate)).sum() >= 10
        u_far = np.concatenate([u_far, u_far[near], u_far[near]])
        v_far = np.concatenate([us_far * 0.5, np.exp(threshold[near] - 0.25),
                                np.exp(threshold[near] + 0.25)])
        accepted = ptrs_attempt_whole_array(u_far, v_far, rate, consts)[0]
        assert accepted[-2 * near.sum():].tolist() == [True] * near.sum() + [False] * near.sum()
        assert ((us_grid >= 0.07) != (us_grid[0] >= 0.07)).any()
        assert ((us_grid < 0.013) != (us_grid[0] < 0.013)).any()
        for u, v in ((words[0::2], words[1::2]),
                     (np.repeat(u_grid, len(v_grid)), np.tile(v_grid, len(u_grid))),
                     (u_far, v_far)):
            accepted, k = _ptrs_attempt(u, v, rate, consts)
            want_accepted, want_k = ptrs_attempt_whole_array(u, v, rate, consts)
            assert np.array_equal(accepted, want_accepted)
            assert np.array_equal(k, want_k)

    def test_ptrs_regions_with_no_attempt_read_nothing(self):
        # every row is left unresolved (-1), in order, and no word is read
        words = np.empty((1_000, 0), dtype=np.uint64)
        rows, draws = poisson_regions(words, 182.0, 0)
        assert rows.tolist() == list(range(1_000))
        assert draws.dtype == np.int64 and (draws == -1).all()

    @pytest.mark.parametrize("rate", [0.0, 1e-17, 1e-12, 0.02, 0.4, math.log(2.0), 1.0, 5.0,
                                      17.3, 29.99])
    def test_inversion_equals_plain_search(self, rate):
        # at ln 2 cum[0] == 0.5, and above it most words lie past the
        # threshold; at 1e-17 cum[0] rounds to 1.0, so the threshold word
        # is 2**64 and every draw is 0
        cum = poisson_cum_table(rate)
        threshold = int(cum[0] * 2.0 ** 53) << 11
        edges = [w for w in (threshold - 1, threshold, 0, 2 ** 64 - 1) if w < 2 ** 64]
        # the uniforms are the points m * 2**-53, m = 1 .. 2**53, of word
        # (m - 1) << 11: take the grid points just below, at or below and
        # just above every table entry and every g / 1024
        grid = set()
        for x in [float(c) for c in cum] + [g / 1024 for g in range(1, 1025)]:
            m = math.floor(x * 2.0 ** 53)
            grid.update((math.ceil(x * 2.0 ** 53) - 1, m, m + 1))
        edges += [(m - 1) << 11 for m in sorted(grid) if 1 <= m <= 2 ** 53]
        words = np.concatenate([RandomStream(5, 77).raw_words(50_000),
                                np.array(edges, dtype=np.uint64)])
        u = words_to_uniforms(words)
        expect = np.minimum(np.searchsorted(cum, u, side="left"), len(cum) - 1)
        draws = sample_poisson_rows(lambda rows, counts: words, np.array([len(words)]), rate)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expect)
        assert draws[50_000:].tolist() == [_inversion(w, rate) for w in words[50_000:]]
        # the last word below the threshold draws 0, the threshold itself does not
        assert u[50_000] <= cum[0] and draws[50_000] == 0
        if threshold < 2 ** 64:
            assert u[50_001] > cum[0] and draws[50_001] == min(1, len(cum) - 1)
        else:
            assert cum[0] == 1.0 and not draws.any()


class TestSeveritySampler:
    def test_fixed_always(self):
        s = derive_stream(4, 1)
        assert (sample_severity_batch(s, Fixed(7.5), 50) == 7.5).all()
        # Fixed consumes no words
        assert s.counter == 0

    def test_lognormal_mean(self):
        draws = sample_severity_batch(derive_stream(4, 2), Lognormal(0.0, 1.0), 1_000_000)
        assert abs(draws.mean() - math.exp(0.5)) < 0.01 * math.exp(0.5)

    def test_pareto_ccdf(self):
        draws = sample_severity_batch(derive_stream(4, 3), Pareto(x_min=1.0, alpha=2.5), 1_000_000)
        assert (draws >= 1.0).all()
        empirical = (draws > 4.0).mean()
        assert abs(empirical - 4.0 ** -2.5) < 0.002

    def test_discrete_table_frequencies(self):
        table = DiscreteTable(values=(1.0, 2.0, 5.0), probabilities=(0.5, 0.3, 0.2))
        draws = sample_severity_batch(derive_stream(4, 4), table, 500_000)
        for value, prob in zip(table.values, table.probabilities):
            assert abs((draws == value).mean() - prob) < 0.005

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (8.0, 1.5), (-3.0, 0.2)])
    def test_lognormal_mean_property(self, mu, sigma):
        expect = stats.lognorm(s=sigma, scale=math.exp(mu)).mean()
        assert Lognormal(mu, sigma).mean == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("x_min, alpha", [(1.0, 1.5), (1000.0, 2.5), (2.0, 30.0)])
    def test_pareto_mean_property(self, x_min, alpha):
        expect = stats.pareto(alpha, scale=x_min).mean()
        assert Pareto(x_min=x_min, alpha=alpha).mean == pytest.approx(expect, rel=1e-13)

    def test_fixed_and_discrete_mean_properties(self):
        assert Fixed(7.5).mean == 7.5
        values, probs = (0.1, 1000.0, 1e6), (0.7, 0.2, 0.1)
        table = DiscreteTable(values=values, probabilities=probs)
        assert table.mean == math.fsum(v * p for v, p in zip(values, probs))
        assert table.mean == pytest.approx(0.07 + 200.0 + 100_000.0, rel=1e-15)

    def test_discrete_table_validation(self):
        with pytest.raises(DomainError):
            DiscreteTable(values=(1.0, 2.0), probabilities=(0.5, 0.6))
        with pytest.raises(DomainError):
            DiscreteTable(values=(-1.0, 2.0), probabilities=(0.5, 0.5))

    def test_severity_validation(self):
        with pytest.raises(DomainError):
            Lognormal(0.0, 0.0)
        with pytest.raises(DomainError):
            Pareto(1.0, 1.0)
        with pytest.raises(DomainError):
            Fixed(-1.0)


class TestCompoundCountSampler:
    """The engine draws a device's compound count M: at portfolio_size 1,
    with b = 1, r = 0 and a horizon that never binds, each repetition's
    loss is its M."""

    @staticmethod
    def _counts(theta, lam, repetitions, seed):
        device = DeviceParameters(daily_loss=1.0, discount_rate=0.0, horizon_days=10 ** 9,
                                  counts=CountDistributionParams(theta, lam))
        losses, caps = one_device_losses(device, repetitions, seed)
        counts = losses.astype(np.int64)
        assert caps == 0 and (counts == losses).all()
        return counts

    @pytest.fixture(scope="class")
    def draws(self):
        return self._counts(2.0, 0.5, 1_000_000, 5)

    def test_theta_limit_zero(self):
        assert (self._counts(1e-12, 5.0, 10_000, 1) == 0).all()

    def test_wald_mean(self, draws):
        assert abs(draws.mean() - 3.0) < 0.01

    def test_second_moment(self, draws):
        assert abs(draws.var() - 5.5) < 0.05

    def test_tv_against_pmf(self, draws):
        pmf = compound_count_pmf_table(40, CountDistributionParams(theta=2.0, lambda_cluster=0.5))
        assert total_variation(np.bincount(draws), pmf, len(draws)) < 0.005

    def test_params_validation(self):
        with pytest.raises(DomainError):
            CountDistributionParams(theta=0.0, lambda_cluster=1.0)
        with pytest.raises(DomainError):
            CountDistributionParams(theta=1.0, lambda_cluster=-0.1)


# ---------------------------------------------------------------------------
# many-stream samplers against per-stream reference loops
# ---------------------------------------------------------------------------

def _reference_indices(stream: RandomStream, n: int, modulus: int) -> np.ndarray:
    """Unbiased modulo rejection on one stream: read the n - filled words
    still missing, keep those below the largest multiple of modulus."""
    remainder = (1 << 64) % modulus
    limit = None if remainder == 0 else np.uint64((1 << 64) - remainder)
    out = []
    while len(out) < n:
        words = stream.raw_words(n - len(out))
        if limit is not None:
            words = words[words < limit]
        out.extend(int(w) % modulus for w in words)
    return np.array(out, dtype=np.uint64)


def _row_streams(seed, n_rows, prefix=None):
    ids = np.arange(100, 100 + n_rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return RaggedStreams(seed, ids, prefix), [RandomStream(seed, int(i)) for i in ids]


class TestRowSamplers:
    @pytest.mark.parametrize("modulus", [1, 2, 1000, 2 ** 40 + 1, 3 * 2 ** 62])
    def test_indices_match_per_row_loop(self, modulus):
        counts = np.array([0, 1, 2, 3, 9, 40, 1, 0, 17, 250])
        batch, singles = _row_streams(31, len(counts), prefix=counts)
        got = sample_indices_rows(batch.raw_words, counts, modulus)
        expect = [_reference_indices(s, int(c), modulus) for s, c in zip(singles, counts)]
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.concatenate(expect))
        # the next word of every row is where the per-row loop stopped
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]

    def test_indices_reject_about_a_quarter_at_three_quarters_of_the_range(self):
        counts = np.full(200, 50)
        batch, _ = _row_streams(32, len(counts))
        sample_indices_rows(batch.raw_words, counts, 3 * 2 ** 62)
        assert 1.25 < batch.counter.sum() / counts.sum() < 1.42

    @pytest.mark.parametrize("rate", [0.0, 0.3, 5.0, 29.9, 30.0, 45.0, 182.0])
    def test_poisson_rows_match_per_stream_batches(self, rate):
        counts = np.array([3, 0, 1, 12, 2, 60, 1, 7])
        batch, singles = _row_streams(33, len(counts), prefix=counts)
        got = sample_poisson_rows(batch.raw_words, counts, rate)
        expect = [sample_poisson_batch(s, rate, int(c)) for s, c in zip(singles, counts)]
        assert np.array_equal(got, np.concatenate(expect))
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]

    def test_poisson_rows_negative_rate(self):
        batch, _ = _row_streams(34, 1)
        with pytest.raises(DomainError):
            sample_poisson_rows(batch.raw_words, np.array([1]), -1.0)

    @pytest.mark.parametrize("dist", [
        Lognormal(mu=8.0, sigma=1.5),
        Pareto(x_min=1000.0, alpha=2.5),
        DiscreteTable(values=(100.0, 1000.0), probabilities=(0.25, 0.75)),
        Fixed(value=5.0),
    ])
    def test_severity_rows_match_per_stream_batches(self, dist):
        counts = np.array([1, 0, 4, 9, 2])
        batch, singles = _row_streams(35, len(counts))
        got = sample_severity_rows(batch.raw_words, counts, dist)
        expect = [sample_severity_batch(s, dist, int(c)) for s, c in zip(singles, counts)]
        assert np.array_equal(got, np.concatenate(expect))
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]
