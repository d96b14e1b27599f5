"""Distribution pmfs and samplers against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from cyberrisk.distributions import (
    CountDistributionParams,
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    compound_count_pmf,
    compound_count_pmf_table,
    normal_quantile,
    pareto_density,
    poisson_pmf,
    poisson_ptrs_regions,
    sample_compound_count,
    sample_compound_count_batch,
    sample_exponential_batch,
    sample_indices_rows,
    sample_poisson_batch,
    sample_poisson_rows,
    sample_severity_batch,
    sample_severity_rows,
)
from cyberrisk.errors import DomainError
from cyberrisk.streams import RaggedStreams, RandomStream, chunk_words, derive_stream

from oracles import compound_count_pmf_bruteforce, total_variation


# ---------------------------------------------------------------------------
# exact pmfs / densities
# ---------------------------------------------------------------------------

class TestPoissonPmf:
    def test_spec_values(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)
        assert poisson_pmf(2, 2.0) == pytest.approx(2 * math.exp(-2), abs=1e-12)
        assert poisson_pmf(3, 0.0) == 0.0
        assert poisson_pmf(0, 0.0) == 1.0

    def test_matches_scipy_small_and_large(self):
        for rate in (0.3, 1.0, 7.5, 29.9, 31.0, 250.0, 800.0):
            for n in (0, 1, 5, 30, 31, 100, 900):
                assert poisson_pmf(n, rate) == pytest.approx(
                    float(stats.poisson.pmf(n, rate)), rel=1e-10, abs=1e-300)

    def test_survives_huge_rate(self):
        assert poisson_pmf(1000, 1000.0) == pytest.approx(
            float(stats.poisson.pmf(1000, 1000.0)), rel=1e-9)

    def test_normalization_truncated(self):
        for rate in (0.5, 4.0, 25.0):
            n_max = int(rate + 12 * math.sqrt(rate)) + 20
            total = sum(poisson_pmf(n, rate) for n in range(n_max + 1))
            assert abs(total - 1.0) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_pmf(1, -0.5)
        with pytest.raises(DomainError):
            poisson_pmf(-1, 1.0)


class TestCompoundCountPmf:
    def test_zero_branch(self):
        params = CountDistributionParams(theta=1.7, lambda_cluster=0.4)
        assert compound_count_pmf(0, params) == pytest.approx(math.exp(-1.7), abs=1e-12)

    def test_single_term(self):
        params = CountDistributionParams(theta=1.0, lambda_cluster=1.0)
        assert compound_count_pmf(1, params) == pytest.approx(math.exp(-2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_bruteforce_convolution(self, theta, lam):
        params = CountDistributionParams(theta=theta, lambda_cluster=lam)
        oracle = compound_count_pmf_bruteforce(20, theta, lam)
        for n in range(21):
            assert abs(compound_count_pmf(n, params) - oracle[n]) <= 1e-10

    def test_zero_lambda_collapses_to_poisson(self):
        params = CountDistributionParams(theta=3.0, lambda_cluster=0.0)
        for n in range(15):
            assert compound_count_pmf(n, params) == pytest.approx(
                float(stats.poisson.pmf(n, 3.0)), rel=1e-10)

    def test_normalization(self):
        params = CountDistributionParams(theta=2.0, lambda_cluster=0.5)
        total = sum(compound_count_pmf(n, params) for n in range(41))
        assert abs(total - 1.0) < 1e-9

    def test_table_matches_scalar(self):
        params = CountDistributionParams(theta=0.8, lambda_cluster=3.0)
        table = compound_count_pmf_table(30, params)
        for n in range(31):
            assert table[n] == pytest.approx(compound_count_pmf(n, params), rel=1e-12, abs=1e-300)

    def test_normalization_at_wide_truncation(self):
        # mean + 12 sigma truncation keeps mass within 1e-9
        params = CountDistributionParams(theta=2.0, lambda_cluster=4.0)
        n_max = int(params.mean + 12 * math.sqrt(params.variance)) + 1
        assert abs(compound_count_pmf_table(n_max, params).sum() - 1.0) < 1e-9


class TestParetoDensity:
    def test_outside_support(self):
        assert pareto_density(0.5, x_min=1.0, alpha=2.0) == 0.0

    def test_at_x_min(self):
        assert pareto_density(1.0, x_min=1.0, alpha=2.0) == 2.0

    def test_integrates_to_one(self):
        # piecewise quadrature: one huge interval hides the peak from quad
        edges = [1.0, 10.0, 1e3, 1e4, 1e5, 1e6]
        total = sum(
            integrate.quad(lambda x: pareto_density(x, 1.0, 2.5), lo, hi, limit=200)[0]
            for lo, hi in zip(edges, edges[1:])
        )
        assert abs(total - 1.0) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pareto_density(2.0, x_min=0.0, alpha=2.0)
        with pytest.raises(DomainError):
            pareto_density(2.0, x_min=1.0, alpha=1.0)


def test_normal_quantile_matches_scipy():
    u = np.concatenate([
        np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6]),
        np.linspace(0.001, 0.999, 199),
    ])
    mine = normal_quantile(u)
    ref = stats.norm.ppf(u)
    assert np.max(np.abs(mine - ref)) < 1e-9
    assert normal_quantile(0.5) == 0.0


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
        pmf = np.array([poisson_pmf(n, 1.0) for n in range(40)])
        assert total_variation(counts, pmf, len(draws)) < 0.005

    def test_tv_distance_rejection_regime(self):
        # rate above the method switch exercises the PTRS path
        s = derive_stream(2024, 3)
        draws = sample_poisson_batch(s, 45.0, 300_000)
        counts = np.bincount(draws)
        pmf = np.array([poisson_pmf(n, 45.0) for n in range(150)])
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
        draws = poisson_ptrs_regions(words, 45.0, 1, 15)
        assert (draws >= 0).all()
        pmf = np.array([poisson_pmf(n, 45.0) for n in range(150)])
        assert total_variation(np.bincount(draws), pmf, len(draws)) < 0.005
        # rows a single attempt leaves unresolved come back as -1
        once = poisson_ptrs_regions(words, 45.0, 1, 1)
        assert 0 < (once == -1).sum() < len(once) // 2
        assert (once[once >= 0] == draws[once >= 0]).all()


class TestExponentialSampler:
    def test_cdf_form_at_zero(self):
        # F(0) = 1 - exp(0) = 0 for any rate: no mass at or below zero
        draws = sample_exponential_batch(derive_stream(3, 1), 2.0, 10_000)
        assert (draws > 0).all()

    def test_median_identity(self):
        draws = sample_exponential_batch(derive_stream(3, 2), 2.0, 1_000_000)
        assert abs(np.median(draws) - math.log(2) / 2.0) < 0.01

    def test_arrival_counts_are_poisson(self):
        # counting exponential inter-arrivals in [0, t] with rate*t = 5
        rate, t, horizons = 2.5, 2.0, 100_000
        stream = derive_stream(3, 3)
        cols = 40
        gaps = sample_exponential_batch(stream, rate, horizons * cols).reshape(horizons, cols)
        arrival_times = np.cumsum(gaps, axis=1)
        assert (arrival_times[:, -1] > t).all()  # 40 columns always cover t
        counts = (arrival_times <= t).sum(axis=1)
        pmf = np.array([poisson_pmf(n, rate * t) for n in range(40)])
        assert total_variation(np.bincount(counts), pmf, horizons) < 0.01

    def test_scalar_and_domain(self):
        assert sample_exponential_batch(derive_stream(3, 4), 1.0, 1)[0] >= 0.0
        with pytest.raises(DomainError):
            sample_exponential_batch(derive_stream(3, 5), 0.0, 1)


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
    def test_theta_limit_zero(self):
        params = CountDistributionParams(theta=1e-12, lambda_cluster=5.0)
        draws = sample_compound_count_batch(derive_stream(5, 1), params, 10_000)
        assert (draws == 0).all()

    def test_wald_mean(self):
        params = CountDistributionParams(theta=2.0, lambda_cluster=0.5)
        draws = sample_compound_count_batch(derive_stream(5, 2), params, 1_000_000)
        assert abs(draws.mean() - 3.0) < 0.01

    def test_second_moment(self):
        params = CountDistributionParams(theta=2.0, lambda_cluster=0.5)
        draws = sample_compound_count_batch(derive_stream(5, 3), params, 1_000_000)
        assert abs(draws.var() - 5.5) < 0.05

    def test_tv_against_pmf(self):
        params = CountDistributionParams(theta=2.0, lambda_cluster=0.5)
        draws = sample_compound_count_batch(derive_stream(5, 4), params, 1_000_000)
        pmf = compound_count_pmf_table(40, params)
        assert total_variation(np.bincount(draws), pmf, len(draws)) < 0.005

    def test_scalar_equals_batch_single(self):
        params = CountDistributionParams(theta=1.5, lambda_cluster=2.0)
        a = derive_stream(5, 5)
        b = derive_stream(5, 5)
        assert sample_compound_count(a, params) == sample_compound_count_batch(b, params, 1)[0]

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
        got = sample_indices_rows(batch, counts, modulus)
        expect = [_reference_indices(s, int(c), modulus) for s, c in zip(singles, counts)]
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.concatenate(expect))
        # the next word of every row is where the per-row loop stopped
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]

    def test_indices_reject_about_a_quarter_at_three_quarters_of_the_range(self):
        counts = np.full(200, 50)
        batch, _ = _row_streams(32, len(counts))
        sample_indices_rows(batch, counts, 3 * 2 ** 62)
        assert 1.25 < batch.counter.sum() / counts.sum() < 1.42

    @pytest.mark.parametrize("rate", [0.0, 0.3, 5.0, 29.9, 30.0, 45.0, 182.0])
    def test_poisson_rows_match_per_stream_batches(self, rate):
        counts = np.array([3, 0, 1, 12, 2, 60, 1, 7])
        batch, singles = _row_streams(33, len(counts), prefix=counts)
        got = sample_poisson_rows(batch, counts, rate)
        expect = [sample_poisson_batch(s, rate, int(c)) for s, c in zip(singles, counts)]
        assert np.array_equal(got, np.concatenate(expect))
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]

    def test_poisson_rows_negative_rate(self):
        batch, _ = _row_streams(34, 1)
        with pytest.raises(DomainError):
            sample_poisson_rows(batch, np.array([1]), -1.0)

    @pytest.mark.parametrize("dist", [
        Lognormal(mu=8.0, sigma=1.5),
        Pareto(x_min=1000.0, alpha=2.5),
        DiscreteTable(values=(100.0, 1000.0), probabilities=(0.25, 0.75)),
        Fixed(value=5.0),
    ])
    def test_severity_rows_match_per_stream_batches(self, dist):
        counts = np.array([1, 0, 4, 9, 2])
        batch, singles = _row_streams(35, len(counts))
        got = sample_severity_rows(batch, counts, dist)
        expect = [sample_severity_batch(s, dist, int(c)) for s, c in zip(singles, counts)]
        assert np.array_equal(got, np.concatenate(expect))
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]
