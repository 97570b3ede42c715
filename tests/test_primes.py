import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, OutOfRangeError, ResourceLimitError, bounds,
                        build_table, check_dusart_pi, check_dusart_theta,
                        evaluate_theorem, nth_prime, pi, primes, theta,
                        theta_classed)
from factprimes.primes import limb_prefix, log_limbs


def limb_sum(logs):
    return float(limb_prefix(*log_limbs(logs))[0][-1])


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
