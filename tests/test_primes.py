import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, OutOfRangeError, ResourceLimitError, bounds,
                        build_table, check_dusart_pi, check_dusart_theta,
                        evaluate_theorem, nth_prime, pi, primes, theta,
                        theta_classed)
from factprimes.primes import limb_prefix, log_limbs, log_scaled


def limb_sum(logs):
    return float(limb_prefix(log_scaled(logs))[0][-1])


def trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


class TestBuildTable:
    def test_small_tables(self):
        assert list(build_table(10).primes) == [2, 3, 5, 7]
        assert list(build_table(2).primes) == [2]
        assert len(build_table(100).primes) == 25

    def test_matches_trial_division(self):
        table = build_table(2000)
        assert list(table.primes) == trial_primes(2000)

    def test_limit_validation(self):
        with pytest.raises(DomainError):
            build_table(1)
        with pytest.raises(ResourceLimitError):
            build_table(10**6, limit_cap=10**5)

    def test_log_prefix_is_compensated(self, table_small):
        # consecutive prefix differences reproduce each log p to ulp scale
        diffs = np.diff(table_small.log_prefix)
        logs = np.log(table_small.primes[1:].astype(np.float64))
        eps = np.finfo(np.float64).eps
        tol = 4 * eps * table_small.log_prefix[1:] + 1e-15
        assert np.all(np.abs(diffs - logs) <= tol)
        assert np.all(diffs > 0)


    def test_log_prefix_is_exactly_rounded(self, table_small):
        logs = np.log(table_small.primes.astype(np.float64)).tolist()
        assert table_small.log_prefix.tolist() == [
            math.fsum(logs[:i + 1]) for i in range(len(logs))]


class TestExactLogSums:
    def test_limb_sum_at_the_sieve_cap(self):
        logs = np.full(2_000_000, math.log(2e8))
        assert limb_sum(logs) == math.fsum(logs.tolist())

    def test_limb_sum_of_random_prime_logs(self, table_big):
        rng = np.random.default_rng(20_240_517)
        logs = np.log(table_big.primes.astype(np.float64))
        for size in (1, 2, 17, 1000, 100_000, len(logs)):
            pick = logs[rng.choice(len(logs), size, replace=False)]
            assert limb_sum(pick) == math.fsum(pick.tolist()), size

    def test_prefix_carries_across_blocks(self, table_big):
        logs = np.log(table_big.primes.astype(np.float64)).tolist()
        block = primes._PREFIX_BLOCK
        for i in (block - 1, block, 2 * block, 5 * block + 7, len(logs) - 1):
            assert table_big.log_prefix[i] == math.fsum(logs[:i + 1]), i

    def test_kahan_sum_is_correctly_rounded(self):
        # a compensated loop loses the 1.0 here; math.fsum keeps it
        assert primes.kahan_sum(np.array([1e16, 1.0, -1e16])) == 1.0

    def test_limbs_are_exact(self, table_small):
        logs = np.log(table_small.primes.astype(np.float64))
        high, low = log_limbs(logs)
        assert np.array_equal(np.ldexp(high * 2.0**32 + low, -53), logs)


class TestQueries:
    def test_pi_examples(self, table_small):
        assert pi(table_small, 10) == 4
        assert pi(table_small, 1) == 0
        assert pi(table_small, 100) == 25

    def test_pi_range_errors(self, table_small):
        with pytest.raises(OutOfRangeError):
            pi(table_small, table_small.limit + 1)
        with pytest.raises(DomainError):
            pi(table_small, -1)

    def test_theta_examples(self, table_small):
        assert theta(table_small, 10) == pytest.approx(math.log(210), abs=1e-12)
        assert theta(table_small, 1.5) == 0.0
        assert theta(table_small, 4) == pytest.approx(math.log(6), abs=1e-12)

    def test_theta_accepts_reals(self, table_small):
        assert theta(table_small, 10.9) == theta(table_small, 10)
        with pytest.raises(OutOfRangeError):
            theta(table_small, table_small.limit + 0.5)

    def test_pi_rejects_nan(self, table_small):
        with pytest.raises(DomainError):
            pi(table_small, math.nan)

    def test_theta_rejects_nan(self, table_small):
        with pytest.raises(DomainError):
            theta(table_small, math.nan)

    def test_nth_prime_rejects_non_integers(self, table_small):
        for k in (2.5, 2.0, math.nan):
            with pytest.raises(DomainError):
                nth_prime(table_small, k)
        assert nth_prime(table_small, np.int64(3)) == 5

    def test_build_table_rejects_non_integers(self):
        for limit in (1000.5, 1000.0, math.inf):
            with pytest.raises(DomainError):
                build_table(limit)
        assert len(build_table(np.int64(1000))) == 168

    def test_nth_prime_examples(self, table_small):
        assert nth_prime(table_small, 1) == 2
        assert nth_prime(table_small, 4) == 7
        assert nth_prime(table_small, 25) == 97
        with pytest.raises(OutOfRangeError):
            nth_prime(table_small, len(table_small.primes) + 1)

    def test_pi_of_nth_prime_roundtrip(self, table_small):
        for k in range(1, len(table_small.primes) + 1, 97):
            assert pi(table_small, nth_prime(table_small, k)) == k
        assert pi(table_small, nth_prime(table_small, len(table_small.primes))) \
            == len(table_small.primes)


class TestDusartTheta:
    def test_at_10(self, table_small):
        rep2, rep4 = check_dusart_theta(table_small, 10)
        assert rep2.lhs == pytest.approx(10 - math.log(210), abs=1e-12)
        assert rep2.rhs == pytest.approx(7.4784537865105, abs=1e-10)
        assert rep2.rhs == pytest.approx(793 * 10 / (200 * math.log(10) ** 2))
        assert rep2.holds and rep4.holds

    def test_at_2(self, table_small):
        rep2, _ = check_dusart_theta(table_small, 2)
        assert rep2.lhs == pytest.approx(2 - math.log(2), abs=1e-12)
        assert rep2.rhs == pytest.approx(793 * 2 / (200 * math.log(2) ** 2), abs=1e-12)
        assert rep2.holds

    def test_at_1e6(self, table_big):
        rep2, rep4 = check_dusart_theta(table_big, 10**6)
        assert rep2.holds and rep2.slack > 0
        assert rep4.holds and rep4.slack > 0

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            check_dusart_theta(table_small, 1.5)

    def test_holds_at_sampled_x(self, table_big):
        for x in np.geomspace(2, table_big.limit, 60):
            rep2, rep4 = check_dusart_theta(table_big, float(x))
            assert rep2.holds, f"quadratic deviation bound fails at {x}"
            assert rep4.holds, f"quartic deviation bound fails at {x}"


class TestDusartPi:
    def test_lower_at_threshold(self, table_small):
        rep_lb, _ = check_dusart_pi(table_small, 599)
        assert rep_lb.applicable and rep_lb.holds
        assert rep_lb.lhs == 109

    def test_below_threshold_flagged(self, table_small):
        rep_lb, _ = check_dusart_pi(table_small, 100)
        assert not rep_lb.applicable

    def test_upper_at_2(self, table_small):
        _, rep_ub = check_dusart_pi(table_small, 2)
        assert rep_ub.lhs == 1 and rep_ub.holds

    def test_both_at_1e6(self, table_big):
        rep_lb, rep_ub = check_dusart_pi(table_big, 10**6)
        assert rep_lb.holds and rep_ub.holds


@pytest.mark.parametrize("check", [check_dusart_theta, check_dusart_pi])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1.5])
def test_bad_x_is_a_domain_error(table_small, check, x):
    with pytest.raises(DomainError):
        check(table_small, x)


def test_real_x_deviation(table_small):
    # theta(2.5) = log 2, so the deviation is 2.5 - log 2, not that at 2
    rep2, rep4 = check_dusart_theta(table_small, 2.5)
    assert rep2.lhs == rep4.lhs == 2.5 - math.log(2)


@given(st.one_of(st.integers(2, 10_000), st.floats(2, 10_000)))
@settings(max_examples=200, deadline=None)
def test_dusart_checks_are_registry_reports(table_small, x):
    assert check_dusart_theta(table_small, x) == (
        evaluate_theorem(table_small, "TB2", x), evaluate_theorem(table_small, "TB4", x))
    assert check_dusart_pi(table_small, x) == (
        evaluate_theorem(table_small, "PI_LB", x), evaluate_theorem(table_small, "PI_UB", x))


def test_marginal_flags_follow_marginal_slack(table_small, monkeypatch):
    # all four slacks at n = 10 are below 1e6 in size, so that threshold flags all
    monkeypatch.setattr(bounds, "MARGINAL_SLACK", 1e6)
    reports = check_dusart_theta(table_small, 10) + check_dusart_pi(table_small, 10)
    assert all(r.marginal for r in reports)
    assert all(type(x) is float for r in reports for x in (r.rhs, r.slack))


class TestThetaClassAdditivity:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_classes_sum_to_theta(self, table_small, q):
        for n in (2, 3, 10, 97, 999, 4096, 10_000):
            classed = theta_classed(table_small, n, q)
            total = classed.total()
            ref = theta(table_small, n)
            assert total == pytest.approx(ref, rel=1e-9)


def reference_table(limit):
    """bits and rank of build_table(limit), from a plain sieve of every
    integer up to limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    odd = sieve[1::2]  # bit j stands for 2j + 1
    padded = np.zeros(-(-len(odd) // 64) * 64, dtype=bool)
    padded[:len(odd)] = odd
    bits = np.packbits(padded, bitorder="little").view(np.uint64)
    rank = 1 + np.concatenate(([0], np.cumsum(np.bitwise_count(bits)[:-1], dtype=np.int64)))
    return bits, rank


def assert_reference_table(limit):
    table = build_table(limit)
    bits, rank = reference_table(limit)
    assert table.bits.dtype == np.uint64 and table.rank.dtype == np.int32
    assert np.array_equal(table.bits, bits), limit
    assert np.array_equal(table.rank, rank), limit


class TestBitTable:
    def test_small_tables_are_the_reference(self):
        # the wheel primes 3 .. 13 and 1 are set apart in the first segment
        for limit in range(2, 301):
            assert_reference_table(limit)

    def test_wheel_and_segment_edges(self):
        # the wheel repeats every 15015 bits; segments hold 2^18 bits
        wheel = [15015 * k + d for k in (1, 2, 3, 7) for d in (-1, 1)]
        segments = [2 * primes._SEGMENT * k + d for k in (1, 2, 3) for d in (-1, 1)]
        for limit in wheel + segments:
            assert_reference_table(limit)

    @pytest.mark.parametrize("limit", [10**6, 12_630_000])
    def test_large_tables_are_the_reference(self, limit):
        assert_reference_table(limit)

    @pytest.mark.parametrize("limit", [2, 3, 127, 128, 129, 255, 256, 257, 10001])
    def test_count_is_pi_everywhere(self, limit):
        # word edges: bit 63 stands for 127, bit 64 for 129
        table = build_table(limit)
        ps = table.primes_in(0, limit)
        xs = np.arange(limit + 1)
        assert table.count(xs).tolist() == np.searchsorted(ps, xs, side="right").tolist()
        assert table.count(xs + 0.5).tolist() == table.count(xs).tolist()
        assert [pi(table, x) for x in range(limit + 1)] == table.count(xs).tolist()
        assert len(table) == len(ps)

    @given(limit=st.integers(2, 200_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_primes_in_matches_sympy(self, limit, data):
        table = build_table(limit)
        lo = data.draw(st.integers(-3, limit + 3), label="lo")
        hi = data.draw(st.integers(lo, limit + 3), label="hi")
        expected = list(sympy.primerange(max(lo, 0) + 1, min(hi, limit) + 1))
        got = table.primes_in(lo, hi)
        assert got.dtype == np.int64 and got.tolist() == expected
        assert table.primes_up_to(hi).tolist() == list(sympy.primerange(2, min(hi, limit) + 1))

    def test_table_at_two_million_is_sympys(self):
        table = build_table(2_000_000)
        assert table.primes.tolist() == list(sympy.primerange(2, 2_000_001))
        assert not table.primes.flags.writeable and not table.bits.flags.writeable

    def test_nth_prime_through_the_ranks(self, table_small):
        expected = list(sympy.primerange(2, 10_001))
        assert len(expected) == 1229 == len(table_small)
        assert [nth_prime(table_small, k) for k in range(1, 1230)] == expected

    def test_table_size(self):
        table = build_table(20_000_000)
        assert table.rank.dtype == np.int32 and table.bits.dtype == np.uint64
        assert table.bits.nbytes + table.rank.nbytes <= 2_500_000
        assert "primes" not in vars(table)

    @given(limit=st.integers(2, 100_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_log_totals_in_sums_the_range(self, limit, data):
        table = build_table(limit)
        lo = data.draw(st.integers(0, limit), label="lo")
        hi = data.draw(st.integers(lo, limit), label="hi")
        ps = table.primes_in(lo, hi)
        assert table.log_totals_in(lo, hi) == primes.log_totals(ps)
        assert (primes.limb_value(table.log_totals_in(lo, hi))
                == math.fsum(np.log(ps.astype(np.float64)).tolist()))
        assert "primes" not in vars(table)

    def test_log_directory_fills_on_demand(self):
        # a value block at a time, up to the largest value asked for, and
        # to the same totals in any order of asking
        block, step = primes._VALUE_BLOCK, primes._LOG_STEP
        limit = 3 * block + step + 5
        table, fresh = build_table(limit), build_table(limit)
        assert theta(table, 100) == math.log(math.prod(map(int, table.primes_in(0, 100))))
        assert table._log_done[0] == 0
        xs = [2 * block + step + 7, block - 1, limit, block + 3 * step]
        values = [theta(table, xs[0])]
        assert table._log_done[0] == 3 * block
        values += [theta(table, x) for x in xs[1:]]
        assert table._log_done[0] == limit
        assert [theta(fresh, x) for x in reversed(xs)] == values[::-1]
        for x, value in zip(xs, values):
            ps = table.primes_in(0, x).astype(np.float64)
            assert value == math.fsum(np.log(ps).tolist())

    def test_log_totals_in_at_directory_marks(self, table_big):
        step = primes._LOG_STEP
        for lo, hi in [(0, step), (step - 1, step), (step, 2 * step + 1),
                       (0, table_big.limit), (5 * step, table_big.limit)]:
            assert table_big.log_totals_in(lo, hi) == primes.log_totals(
                table_big.primes_in(lo, hi)), (lo, hi)
