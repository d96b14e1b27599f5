"""Risk-measure exactness and property battery (counting oracles)."""

import math

import numpy as np
import pytest

from cyberrisk.errors import DomainError, UndefinedMarginError
from cyberrisk.risk_measures import (
    EmpiricalDistribution,
    _padded_sum,
    _row_sums,
    _row_totals,
    conditional_tail_expectation,
    expected_shortfall,
    risk_margin_ratio,
    shortfall_probability,
    value_at_risk,
)

from oracles import (
    cte_full_array,
    expected_shortfall_bruteforce,
    expected_shortfall_full_array,
    mean_full_array,
    nearest_rank_var_bruteforce,
    shortfall_prob_bruteforce,
    shortfall_probability_full_array,
    tail_mean_bruteforce,
    var_full_array,
)

ONE_TO_100 = EmpiricalDistribution(np.arange(1.0, 101.0))


class TestValueAtRisk:
    def test_spec_examples(self):
        assert value_at_risk(ONE_TO_100, 0.90) == 90.0
        assert value_at_risk(ONE_TO_100, 0.99) == 99.0
        assert value_at_risk(ONE_TO_100, 0.95) == 95.0

    def test_constant_sample(self):
        const = EmpiricalDistribution([5.0] * 17)
        for rho in (0.1, 0.5, 0.9, 0.99):
            assert value_at_risk(const, rho) == 5.0

    def test_nearest_rank_against_float_ceil_trap(self):
        # real ceil(0.95 * 20) is 19; naive float ceil gives 20
        sample = EmpiricalDistribution(np.arange(1.0, 21.0))
        assert value_at_risk(sample, 0.95) == 19.0
        assert value_at_risk(sample, 0.95) == nearest_rank_var_bruteforce(sample.sorted_losses, 0.95)

    def test_nearest_rank_equals_the_linear_scan(self):
        # the report's levels, and levels at, just below and just above k/count
        # for a few k: there level * count can round to the other side of an
        # integer, and its ceil lands one rank off either way
        for count in range(1, 2001):
            sample = EmpiricalDistribution.from_sorted(count, np.arange(1.0, count + 1.0))
            levels = {0.90, 0.95, 0.99}
            for k in {1, (count + 1) // 2, count - 1, math.ceil(0.95 * count)}:
                edge = k / count
                levels |= {edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)}
            for level in sorted(level for level in levels if 0.0 < level < 1.0):
                expect = nearest_rank_var_bruteforce(sample.sorted_losses, level)
                assert value_at_risk(sample, level) == expect, (count, level)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                value_at_risk(ONE_TO_100, bad)


class TestConditionalTailExpectation:
    def test_spec_examples(self):
        assert conditional_tail_expectation(ONE_TO_100, 0.90) == 95.0
        const = EmpiricalDistribution([3.0] * 9)
        assert conditional_tail_expectation(const, 0.5) == 3.0

    def test_dominates_var(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dist = EmpiricalDistribution(rng.gamma(2.0, 10.0, size=rng.integers(1, 300)))
            for rho in (0.25, 0.5, 0.9, 0.99):
                assert conditional_tail_expectation(dist, rho) >= value_at_risk(dist, rho)

    def test_ties_at_threshold_included(self):
        dist = EmpiricalDistribution([1.0, 2.0, 2.0, 2.0, 10.0])
        # VaR(.4) = 2; the tail mean includes every 2
        assert value_at_risk(dist, 0.4) == 2.0
        assert conditional_tail_expectation(dist, 0.4) == (2.0 + 2.0 + 2.0 + 10.0) / 4.0


class TestShortfall:
    def test_probability_examples(self):
        two = EmpiricalDistribution([50.0, 150.0])
        assert shortfall_probability(two, 100.0) == 0.5
        positive = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert shortfall_probability(positive, 0.0) == 1.0
        assert shortfall_probability(positive, 100.0) == 0.0

    def test_boundary_is_inclusive(self):
        const = EmpiricalDistribution([7.0] * 4)
        assert shortfall_probability(const, 7.0) == 1.0

    def test_expected_shortfall_examples(self):
        two = EmpiricalDistribution([50.0, 150.0])
        assert expected_shortfall(two, 100.0) == 25.0
        assert expected_shortfall(two, 0.0) == 100.0  # mean of the sample
        assert expected_shortfall(two, 150.0) == 0.0

    # and an infinite pool
    @pytest.mark.parametrize("pool", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nan_pool_is_rejected(self, pool):
        two = EmpiricalDistribution([50.0, 150.0])
        with pytest.raises(DomainError, match="premium_pool must be finite and nonnegative"):
            shortfall_probability(two, pool)
        with pytest.raises(DomainError, match="premium_pool must be finite and nonnegative"):
            expected_shortfall(two, pool)


class TestMarginRatio:
    def test_examples(self):
        assert risk_margin_ratio(150.0, 100.0) == 0.5
        assert risk_margin_ratio(42.0, 42.0) == 0.0

    def test_cte_margin_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            values = rng.exponential(5.0, size=rng.integers(1, 200))
            dist = EmpiricalDistribution(values)
            mean = dist.mean()
            for rho in (0.3, 0.7, 0.95):
                cte = conditional_tail_expectation(dist, rho)
                assert cte == pytest.approx(tail_mean_bruteforce(values, value_at_risk(dist, rho)),
                                            rel=1e-12)
                if mean > 0:
                    assert risk_margin_ratio(cte, mean) >= 0.0

    def test_zero_expected_loss(self):
        with pytest.raises(UndefinedMarginError):
            risk_margin_ratio(1.0, 0.0)


class TestPropertyBattery:
    """1000 randomized cases: monotonicity, dominance, equivariance, and
    O(n) counting-oracle agreement."""

    def test_thousand_randomized_cases(self):
        rng = np.random.default_rng(2024)
        rho_grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
        for case in range(1000):
            n = int(rng.integers(1, 120))
            kind = case % 3
            if kind == 0:
                values = rng.integers(0, 50, size=n).astype(float)
            elif kind == 1:
                values = rng.exponential(100.0, size=n)
            else:
                values = np.repeat(rng.uniform(0, 10), n)
            dist = EmpiricalDistribution(values)
            rhos = sorted(rng.choice(rho_grid, size=3, replace=False))

            previous_var, previous_cte = -np.inf, -np.inf
            for rho in rhos:
                var = value_at_risk(dist, rho)
                cte = conditional_tail_expectation(dist, rho)
                # counting oracles
                assert var == nearest_rank_var_bruteforce(dist.sorted_losses, rho)
                assert cte == pytest.approx(tail_mean_bruteforce(values, var), rel=1e-12)
                # monotone in rho, CTE dominates VaR
                assert var >= previous_var and cte >= previous_cte - 1e-12
                assert cte >= var
                previous_var, previous_cte = var, cte

            pool = float(rng.uniform(0, values.max() + 1.0)) if values.max() > 0 else 0.5
            assert shortfall_probability(dist, pool) == shortfall_prob_bruteforce(values, pool)
            assert expected_shortfall(dist, pool) == pytest.approx(
                expected_shortfall_bruteforce(values, pool), rel=1e-12, abs=1e-12)

    def test_shortfall_monotone_and_convex_in_pool(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            dist = EmpiricalDistribution(rng.gamma(2.0, 30.0, size=200))
            pools = np.sort(rng.uniform(0, 300, size=5))
            probs = [shortfall_probability(dist, p) for p in pools]
            shorts = [expected_shortfall(dist, p) for p in pools]
            assert all(a >= b for a, b in zip(probs, probs[1:]))
            assert all(a >= b for a, b in zip(shorts, shorts[1:]))
            # convexity on an evenly spaced triple
            p0, p2 = pools[0], pools[4]
            p1 = 0.5 * (p0 + p2)
            mid = expected_shortfall(dist, p1)
            assert mid <= 0.5 * (expected_shortfall(dist, p0) + expected_shortfall(dist, p2)) + 1e-9

    def test_translation_equivariance_exact_on_integers(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            values = rng.integers(0, 1000, size=int(rng.integers(1, 100))).astype(float)
            shift = float(rng.integers(1, 500))
            dist, shifted = EmpiricalDistribution(values), EmpiricalDistribution(values + shift)
            for rho in (0.2, 0.5, 0.9):
                assert value_at_risk(shifted, rho) == value_at_risk(dist, rho) + shift
                assert conditional_tail_expectation(shifted, rho) == pytest.approx(
                    conditional_tail_expectation(dist, rho) + shift, rel=1e-12)
            pool = float(rng.integers(0, 1000))
            assert shortfall_probability(shifted, pool + shift) == shortfall_probability(dist, pool)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            values = rng.exponential(40.0, size=int(rng.integers(1, 100)))
            dist = EmpiricalDistribution(values)
            scale = float(rng.choice([0.5, 2.0, 4.0, 8.0]))  # powers of two: exact in floats
            scaled = EmpiricalDistribution(values * scale)
            pool = float(rng.uniform(0, 100))
            for rho in (0.3, 0.9, 0.99):
                assert value_at_risk(scaled, rho) == scale * value_at_risk(dist, rho)
                assert conditional_tail_expectation(scaled, rho) == pytest.approx(
                    scale * conditional_tail_expectation(dist, rho), rel=1e-12)
            assert shortfall_probability(scaled, scale * pool) == shortfall_probability(dist, pool)
            assert expected_shortfall(scaled, scale * pool) == pytest.approx(
                scale * expected_shortfall(dist, pool), rel=1e-12)
            if dist.mean() > 0:
                assert risk_margin_ratio(value_at_risk(scaled, 0.9), scaled.mean()) == pytest.approx(
                    risk_margin_ratio(value_at_risk(dist, 0.9), dist.mean()), rel=1e-9)


class TestEmpiricalDistribution:
    def test_validation(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution([])
        with pytest.raises(DomainError):
            EmpiricalDistribution([1.0, -2.0])
        with pytest.raises(DomainError):
            EmpiricalDistribution([1.0, np.inf])

    def test_sorts_input(self):
        dist = EmpiricalDistribution([3.0, 1.0, 2.0])
        assert list(dist.sorted_losses) == [1.0, 2.0, 3.0]
        assert dist.count == 3

    def test_negative_zero_reads_as_positive_zero(self):
        dist = EmpiricalDistribution([-0.0, 0.0, -0.0, 2.0])
        assert not np.signbit(dist.sorted_losses).any()
        assert not np.signbit(value_at_risk(dist, 0.5))

    def test_mean_is_reduced_once(self):
        losses = np.array([0.0, 0.1, 0.2, 0.7])
        dist = EmpiricalDistribution.from_sorted(6, losses)
        mean = dist.mean()
        losses[:] = 5.0  # the array is adopted, so a second reduction would see this
        assert dist.mean() == mean

    @pytest.mark.parametrize("losses", [[0.0] * 9 + [3.0], [0.1] * 7 + [0.2] * 3,
                                        [0.1, 0.7, 0.2, 0.3], np.linspace(0.0, 1.0, 1001) ** 3])
    def test_whole_sample_tail_reuses_the_mean(self, losses):
        """A tail that starts at index 0 is the sample mean, bit for bit."""
        dist = EmpiricalDistribution(losses)
        for rho in (0.05, 0.5, 0.9):
            threshold = value_at_risk(dist, rho)
            start = np.searchsorted(dist.sorted_losses, threshold, side="left")
            expect = max(float(dist.sorted_losses[start:].mean()), threshold)
            assert conditional_tail_expectation(dist, rho) == expect


def _stated_tree_sum(values: np.ndarray) -> float:
    """numpy's pairwise sum as the ``risk_measures`` docstring states it,
    with the block form at the leaves of 8 to 128 entries."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        full = n - n % 8
        r = list(values[:8])
        for lane in range(8):
            for value in values[lane + 8:full:8]:
                r[lane] += value
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[full:]:
            total += value
        return total
    half = n // 2 - (n // 2) % 8
    return _stated_tree_sum(values[:half]) + _stated_tree_sum(values[half:])


def _unhalved_run(n: int, column: int):
    """(start, length) of the run of 128 entries or fewer that the stated
    tree adds unhalved, among the runs of a sum of ``n`` entries, holding
    ``column``."""
    start = 0
    while n > 128:
        half = n // 2 - (n // 2) % 8
        start, n = (start + half, n - half) if column >= start + half else (start, half)
    return start, n


class TestNumpySummationTree:
    """Report bytes rest on numpy's pairwise summation tree. A numpy release
    that changed it fails these tests by name."""

    def test_numpy_sum_is_the_stated_pairwise_tree_for_lengths_0_to_1100(self):
        rng = np.random.default_rng(8)
        for n in range(1101):
            # signed, with magnitudes far apart, so any other order rounds apart
            values = rng.lognormal(0.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
            assert float(_stated_tree_sum(values)).hex() == float(values.sum()).hex(), n

    @pytest.mark.parametrize("rows", [1, 3, 17])
    def test_numpy_row_sums_of_a_block_are_the_stated_tree_for_widths_0_to_299(self, rows):
        # _row_sums adds the lanes of many rows by one ndarray.sum(axis=1)
        rng = np.random.default_rng(rows)
        for width in range(300):
            block = rng.lognormal(0.0, 4.0, (rows, width)) * rng.choice([-1.0, 1.0], (rows, width))
            assert block.flags.c_contiguous
            sums = block.sum(axis=1)
            for i in range(rows):
                assert float(_stated_tree_sum(block[i])).hex() == float(sums[i]).hex(), (width, i)

    def test_row_sums_are_the_ndarray_sums_of_the_rows(self):
        # blocks of rows n = lo.. with nonzero entries only in a band of
        # columns below n; every row must have the bits of ndarray.sum over
        # its zero-filled row, and the scratch row must come back zeroed.
        # Every row's first run holds columns 0..63, so the lanes sum every
        # row of those cases; many rows lie in a later run, many have their
        # band split by a halving, and many bands are over 128 columns wide.
        rng = np.random.default_rng(2024)
        right_run_rows = split_rows = wide_rows = 0
        for case in range(400):
            lo = int(rng.choice([1, 100, 129, 257, 1000, 5000]) + rng.integers(0, 300))
            rows, c0 = int(rng.integers(1, 130)), int(rng.integers(0, lo))
            if case % 4 == 0:  # a band in columns 0..63
                c0 = 0
            b0 = 0 if case % 4 == 0 else int(rng.integers(0, lo - c0))
            b1 = b0 + int(rng.integers(1, 64 if case % 4 == 0 else 160))
            scaled = np.zeros((rows, b1))
            for i in range(rows):
                stop = max(b0, min(b1, lo + i - c0))
                scaled[i, b0:stop] = np.exp(rng.uniform(-700.0, 0.0, stop - b0))
                scaled[i, b0:stop][rng.random(stop - b0) < 0.2] = 0.0
            band = np.flatnonzero(scaled.any(axis=0))
            if band.size == 0:
                continue
            first, stop = c0 + band[0], c0 + band[-1] + 1
            scratch = np.zeros(c0 + b1 + lo + rows)
            sums = _row_sums(scaled[:, band[0]:band[-1] + 1], np.arange(lo, lo + rows), first, scratch)
            assert not scratch.any(), case
            row = np.zeros_like(scratch)
            for i in range(rows):
                row[c0:c0 + b1] = scaled[i]
                assert sums[i].tobytes() == row[:lo + i].sum().tobytes(), (case, i)
            start, length = zip(*(_unhalved_run(lo + i, first & -8) for i in range(rows)))
            in_run = np.minimum(stop, np.arange(lo, lo + rows)) <= np.add(start, length)
            if case % 4 == 0:
                assert in_run.all()
            if stop - (first & -8) > 128:
                wide_rows += rows
            elif first >= 128:
                right_run_rows += int(in_run.sum())
                split_rows += int((~in_run).sum())
        assert right_run_rows > 100 and split_rows > 100 and wide_rows > 100

    def test_row_totals_equal_ndarray_sum(self):
        # every row length from 0 to 1,100 at once: in order below 8,
        # numpy's block form from 8 to 128, its pairwise split above
        rng = np.random.default_rng(3)
        lengths = np.concatenate([rng.permutation(1101), rng.integers(0, 300, 50)])
        size = int(lengths.sum())
        values = rng.lognormal(0.0, 3.0, size=size) * 0.7 * rng.choice([-1.0, 1.0], size)
        totals = _row_totals(values, _owner(lengths), len(lengths))
        ends = np.cumsum(lengths)
        for total, end, length in zip(totals, ends, lengths):
            assert total.hex() == values[end - length:end].sum().hex(), length

    # The longest row holds 300 entries: integral loss-days capped at h take
    # bincount while 300 * h < 2**53, and numpy's tree otherwise; at
    # h = 2**53 / 64 rows sum past 2**54, where bincount's order moves bits.
    # A multiplier of 0.5 on even day counts has integral products.
    @pytest.mark.parametrize("multiplier, horizon, exact", [
        (1.0, (2 ** 53 - 1) // 300, True),
        (3.0, (2 ** 53 - 1) // 300, True),
        (1.0, 2 ** 53 // 300 + 1, False),
        (3.0, 2 ** 53 // 300 + 1, False),
        (1.0, 2 ** 53 // 64, False),
        (0.7, 365, False),
        (0.5, 365, True),
    ])
    def test_row_totals_of_loss_days_equal_ndarray_sum(self, multiplier, horizon, exact):
        """Capped loss-day rows of every length from 0 to 300, whose longest
        rows sum to about 300 * h, near 2**53: each total is the row's
        ``ndarray.sum``, bit for bit, on both sides of the bound."""
        rng = np.random.default_rng(horizon % 1000)
        lengths = np.concatenate([rng.permutation(301), rng.integers(250, 301, 30)])
        reach = int(horizon / multiplier)  # about a tenth of the entries are capped
        days = rng.integers(reach // 2, reach + reach // 20, int(lengths.sum()))
        if multiplier == 0.5:
            days += days % 2
        capped = np.minimum(multiplier * days, float(horizon))
        assert capped.max() == horizon
        totals, summed = _row_totals_counting_row_sums(capped, lengths)
        ends = np.cumsum(lengths)
        for total, end, length in zip(totals, ends, lengths):
            assert total.hex() == capped[end - length:end].sum().hex(), length
        assert summed == ([] if exact else [length for length in lengths if length >= 8])
        if horizon == 2 ** 53 // 64:  # the bound is needed
            assert (np.bincount(_owner(lengths), weights=capped) != totals).any()

    @pytest.mark.parametrize("special", [-0.0, -3.0, math.inf, math.nan])
    def test_rows_with_a_sign_bit_or_a_nonfinite_entry_follow_the_tree(self, special):
        # integral rows that alone take bincount, and rows of 1 to 300
        # entries that hold the special value
        rng = np.random.default_rng(5)
        lengths = np.concatenate([rng.permutation(301), [1, 7, 8, 9, 130, 300]])
        values = rng.integers(0, 1000, int(lengths.sum())).astype(float)
        ends = np.cumsum(lengths)
        for end, length in zip(ends[-6:], lengths[-6:]):
            values[end - length:end:2] = special
        totals, summed = _row_totals_counting_row_sums(values, lengths)
        for total, end, length in zip(totals, ends, lengths):
            assert total.hex() == values[end - length:end].sum().hex(), length
        assert summed == [length for length in lengths if length >= 8]

    @pytest.mark.parametrize("special", [None, -0.0, -3.0, math.inf, math.nan])
    @pytest.mark.parametrize("integral", [True, False], ids=["integral", "fractional"])
    def test_rows_under_8_entries_take_bincount_whatever_their_values(self, integral, special):
        """A batch whose rows all hold 0 to 7 entries: each row adds in
        order, so one ``bincount`` gives every ``ndarray.sum``, bit for bit,
        and no row is summed on its own."""
        rng = np.random.default_rng(7)
        lengths = np.concatenate([np.arange(8), rng.integers(0, 8, 400)])
        size = int(lengths.sum())
        values = rng.lognormal(0.0, 3.0, size) * rng.choice([-1.0, 1.0], size)
        if integral:
            values = np.round(values)
        if special is not None:
            values[rng.random(size) < 0.2] = special
        totals, summed = _row_totals_counting_row_sums(values, lengths)
        assert summed == []
        ends = np.cumsum(lengths)
        for total, end, length in zip(totals, ends, lengths):
            assert total.hex() == values[end - length:end].sum().hex(), length

    @pytest.mark.parametrize("count, drawn", [
        (count, drawn)
        for count in (1, 7, 8, 9, 127, 128, 129, 4099, 10 ** 5, 4 * 10 ** 6)
        for drawn in sorted({0, 1, 7, 8, 9, 127, 128, 129, count // 50, count - 1, count})
        if drawn <= count])
    def test_padded_sum_equals_numpy_reduce_of_zeros_and_tail(self, count, drawn):
        tail = np.sort(np.random.default_rng(drawn).lognormal(3.0, 2.0, drawn))
        expect = np.add.reduce(np.concatenate((np.zeros(count - drawn), tail)))
        assert float(_padded_sum(tail, count)).hex() == float(expect).hex()


def _owner(lengths: np.ndarray) -> np.ndarray:
    """The row of each entry of a ragged array of rows of ``lengths``."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _row_totals_counting_row_sums(values: np.ndarray, lengths: np.ndarray):
    """``_row_totals`` of rows of ``lengths`` holding ``values``, and the
    lengths of the rows it summed one by one with ``ndarray.sum``, in
    order."""
    summed = []

    class Counted(np.ndarray):
        def sum(self, *args, **kwargs):
            summed.append(len(self))
            return super().sum(*args, **kwargs)

    return _row_totals(values.view(Counted), _owner(lengths), len(lengths)), summed


def _boundary_levels(count: int, zeros: int):
    """Levels whose nearest rank lands on either side of the zero head's end."""
    return [rho for rho in (zeros / count, (zeros + 1) / count, math.nextafter(zeros / count, 2.0))
            if 0.0 < rho < 1.0]


class TestMeasuresEqualTheFullArrayOracle:
    """Every measure over (R, sorted drawn losses) is bit-equal to the same
    measure reduced over all R losses, zeros included (``tests/oracles.py``)."""

    # (R, drawn losses, drawn zeros among them)
    CASES = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (7, 3, 1), (8, 8, 0), (129, 5, 2), (200, 200, 17),
             (1000, 20, 3), (1000, 0, 0), (4099, 82, 0), (4099, 4099, 0), (5000, 4990, 0),
             (20_000, 400, 9)]
    LEVELS = (0.05, 0.5, 0.9, 0.95, 0.99, 0.999)

    @pytest.mark.parametrize("count, drawn, drawn_zeros", CASES)
    def test_measures_are_bit_equal(self, count, drawn, drawn_zeros):
        rng = np.random.default_rng(count + drawn)
        tail = np.sort(np.round(rng.lognormal(6.0, 2.0, drawn), 1))  # rounded: ties
        tail[:drawn_zeros] = 0.0
        full = np.concatenate((np.zeros(count - drawn), tail))
        pools = [0.0, -0.0, 1e-300, float(np.median(full)), float(full[-1]), 2.0 * float(full[-1]) + 1.0]
        levels = [*self.LEVELS, *_boundary_levels(count, count - drawn),
                  *_boundary_levels(count, count - drawn + drawn_zeros)]
        shuffled = rng.permutation(full)
        for dist in (EmpiricalDistribution.from_sorted(count, tail), EmpiricalDistribution(shuffled)):
            assert dist.mean().hex() == mean_full_array(full).hex()
            for rho in levels:
                assert value_at_risk(dist, rho).hex() == var_full_array(full, rho).hex(), rho
                assert (conditional_tail_expectation(dist, rho).hex()
                        == cte_full_array(full, rho).hex()), rho
            for pool in pools:
                assert (shortfall_probability(dist, pool).hex()
                        == shortfall_probability_full_array(full, pool).hex()), pool
                assert (expected_shortfall(dist, pool).hex()
                        == expected_shortfall_full_array(full, pool).hex()), pool
            assert np.array_equal(dist.sorted_losses, full)
