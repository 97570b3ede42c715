import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, FactprimesError, OutOfRangeError,
                        lambert_w_index, mean_location, mean_vs_Lth_prime,
                        omega, perfecter_factorial, pi, upsilon,
                        upsilon_range, upsilon_value, valuation_vector)
from factprimes.primes import log_totals
from factprimes.upsilon import (_anchor, factorial_points, factorial_windows,
                                odd_exponent_primes, omega_window)


class TestUpsilon:
    def test_examples(self, table_small):
        r10 = upsilon(table_small, 10)
        assert r10.upsilon == 15
        assert r10.pi_n == 4
        assert r10.mean == 3.75
        assert r10.mean_exact == Fraction(15, 4)

        r2 = upsilon(table_small, 2)
        assert r2.upsilon == 1 and r2.mean == 1.0

        r6 = upsilon(table_small, 6)
        assert r6.upsilon == 7
        assert r6.mean_exact == Fraction(7, 3)

    def test_known_value_at_100(self, table_small):
        assert upsilon_value(table_small, 100) == 239

    def test_mean_exact_times_pi(self, table_small):
        for n in (2, 7, 100, 9999):
            r = upsilon(table_small, n)
            assert r.mean_exact * r.pi_n == r.upsilon

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            upsilon(table_small, 1)

    def test_value_rejects_non_integers(self, table_small):
        for n in (10.5, 10.0, math.nan):
            with pytest.raises(DomainError):
                upsilon_value(table_small, n)
        assert upsilon_value(table_small, np.int64(10)) == 15
        with pytest.raises(DomainError):
            upsilon_value(table_small, 1)
        with pytest.raises(OutOfRangeError):
            upsilon_value(table_small, table_small.limit + 1)


class TestRecurrence:
    def test_spot_values(self, table_small):
        # upsilon grows by Omega(n) at each step
        prev = upsilon_value(table_small, 2)
        for n in range(3, 200):
            cur = upsilon_value(table_small, n)
            assert cur - prev == omega(n)
            prev = cur

    @given(n=st.integers(3, 9000))
    @settings(max_examples=50)
    def test_recurrence_property(self, n, table_small):
        assert upsilon_value(table_small, n) - \
            upsilon_value(table_small, n - 1) == omega(n)

    def test_mean_at_least_one(self, table_small):
        for n in range(2, 500):
            r = upsilon(table_small, n)
            assert r.mean_exact >= 1
            all_ones = int(valuation_vector(table_small, n).max()) == 1
            assert (r.mean_exact == 1) == all_ones


class TestRangeScanner:
    def test_matches_direct(self, table_small):
        ns, ups, pis = upsilon_range(table_small, 2, 300)
        assert ns[0] == 2 and ns[-1] == 300
        for i in (0, 1, 7, 98, 200, 298):
            assert ups[i] == upsilon_value(table_small, int(ns[i]))
        assert pis[8] == 4  # pi(10)
        assert ups[8] == 15

    def test_high_window(self, table_big):
        lo = 12_602_987
        ns, ups, _ = upsilon_range(table_big, lo, lo + 5)
        for n, u in zip(ns, ups):
            assert u - ups[0] == sum(omega(m) for m in range(lo + 1, int(n) + 1))

    def test_omega_window_is_int64(self, table_small, table_big):
        # the factor pass counts in int8; the public window does not
        assert omega_window(table_small, 2, 600).dtype == np.int64
        assert omega_window(table_big, 10**7, 10**7 + 5000).dtype == np.int64

    def test_omega_window_matches_trial_division(self, table_small):
        got = omega_window(table_small, 2, 600)
        assert list(got) == [omega(m) for m in range(2, 601)]

    def test_validation(self, table_small):
        with pytest.raises(DomainError):
            upsilon_range(table_small, 5, 4)


class TestFactorialPoints:
    @given(st.sets(st.integers(2, 3000), max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_each_point_matches_its_direct_value(self, table_small, points):
        ns = np.array(sorted(points | {2, 3, 4, table_small.limit}), dtype=np.int64)
        cols = factorial_points(table_small, ns, perfecter=True)
        assert cols.n is ns
        for n, ups, log in zip(ns.tolist(), cols.upsilon.tolist(),
                               cols.log_perfecter.tolist()):
            assert ups == upsilon_value(table_small, n), n
            assert log == perfecter_factorial(table_small, n).log_value, n
        plain = factorial_points(table_small, ns)
        assert plain.log_perfecter is None
        assert np.array_equal(plain.upsilon, cols.upsilon)

    def test_validation(self, table_small):
        with pytest.raises(DomainError):
            factorial_points(table_small, np.array([1, 5], dtype=np.int64))
        with pytest.raises(OutOfRangeError):
            factorial_points(table_small, np.array([5, table_small.limit + 1],
                                                   dtype=np.int64))


def check_point(table, n):
    """The O(sqrt n) evaluation at n against one exponent per prime."""
    v = valuation_vector(table, n)
    ups, parity, pi_n, total = _anchor(table, n, perfecter=True)
    assert ups == int(v.sum()) == upsilon_value(table, n), n
    assert pi_n == len(v) == pi(table, n), n
    assert parity.tolist() == (v[:pi(table, math.isqrt(n))] & 1).tolist(), n
    odd = table.primes_up_to(n)[(v & 1) == 1]
    assert total == log_totals(odd), n
    res = perfecter_factorial(table, n)
    assert odd_exponent_primes(table, n).tolist() == odd.tolist(), n
    assert res.count == len(odd), n
    assert res.log_value == math.fsum(np.log(odd.astype(np.float64)).tolist()), n


class TestSqrtEvaluation:
    @given(st.integers(2, 2_000_000))
    @settings(max_examples=60, deadline=None)
    def test_drawn_points(self, table_big, n):
        check_point(table_big, n)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 10, 31, 97, 1000, 1009, 1413, 1414])
    def test_around_squares(self, table_big, r):
        # r^2 - 1, r^2 and (r+1)^2 - 1 move isqrt(n) and Q = n // (r + 1)
        for n in (r * r - 1, r * r, (r + 1) ** 2 - 1):
            if n >= 2:
                check_point(table_big, n)

    def test_table_limit(self, table_small, table_big):
        check_point(table_small, table_small.limit)
        check_point(table_big, table_big.limit)

    def test_at_one(self, table_small):
        ups, parity, pi_n, total = _anchor(table_small, 1, perfecter=True)
        assert (ups, len(parity), pi_n, total) == (0, 0, 0, 0)

    @pytest.mark.parametrize("n_from,n_to", [
        (100, 400),                    # primes 11..19 above isqrt(99) = 9
        (1_000_000, 1_000_000 + 800),  # isqrt 999 -> 1000: no prime between
        (14_401, 16_484),              # isqrt 120 -> 128; 14400 // 127 is odd
    ])
    def test_walk_from_below_the_root(self, table_big, n_from, n_to):
        # the walker's anchor holds parities up to isqrt(n_from - 1) only;
        # the primes up to isqrt(n_to) above it take (n_from - 1) // p
        assert math.isqrt(n_from - 1) < math.isqrt(n_to)
        walked = list(factorial_windows(table_big, n_from, n_to, 64, perfecter=True))
        ns = np.arange(n_from, n_to + 1, dtype=np.int64)
        direct = factorial_points(table_big, ns, perfecter=True)
        assert np.concatenate([c.upsilon for c in walked]).tolist() == direct.upsilon.tolist()
        assert (np.concatenate([c.log_perfecter for c in walked]).tolist()
                == direct.log_perfecter.tolist())


class TestMeanLocation:
    def test_tie_breaks_to_smallest(self, table_small):
        loc = mean_location(table_small, 3)
        assert loc.p_star == 2 and loc.k_star == 1 and loc.v_star == 1
        assert loc.p_approx is None and loc.k_approx is None

    def test_increasing_exponents_raise(self, table_small, monkeypatch):
        module = importlib.import_module("factprimes.upsilon")
        monkeypatch.setattr(module, "valuation_vector",
                            lambda table, n: np.arange(1, 5, dtype=np.int64))
        with pytest.raises(FactprimesError):
            mean_location(table_small, 10)

    def test_at_100(self, table_small):
        loc = mean_location(table_small, 100)
        # brute force over the profile with the exact rational mean
        v = valuation_vector(table_small, 100)
        ups, pin = int(v.sum()), len(v)
        deviations = [abs(int(x) * pin - ups) for x in v]
        assert loc.k_star - 1 == deviations.index(min(deviations))
        assert loc.p_star == 11 and loc.v_star == 9

    def test_local_optimality(self, table_small):
        for n in (50, 300, 4321, 10_000):
            loc = mean_location(table_small, n)
            v = valuation_vector(table_small, n)
            ups, pin = int(v.sum()), len(v)
            dev = np.abs(v * pin - ups)
            i = loc.k_star - 1
            if i > 0:
                assert dev[i] <= dev[i - 1]
            if i + 1 < len(v):
                assert dev[i] <= dev[i + 1]

    def test_asymptotic_ratio_at_1e6(self, table_big):
        loc = mean_location(table_big, 10**6)
        predicted = 10**6 / (math.log(10**6) * math.log(math.log(10**6)))
        ratio = loc.p_star / predicted
        assert 0.5 <= ratio <= 2.0
        assert ratio == pytest.approx(0.77186, abs=5e-3)
        assert loc.p_star == 21277

    def test_both_index_estimates_stored(self, table_small):
        loc = mean_location(table_small, 1000)
        assert loc.k_approx == pytest.approx(
            1000 / (math.log(1000) ** 2 * math.log(math.log(1000))))
        assert loc.k_approx_w == pytest.approx(lambert_w_index(1000))


class TestLambertWIndex:
    def test_positive_at_16(self):
        assert lambert_w_index(16) > 0

    def test_below_prime_count_at_1e6(self, table_big):
        assert 0 < lambert_w_index(10**6) < 78498

    def test_w_form_vs_log_form_at_1e9(self):
        # replacing W(x) by log(x) changes the estimate by under 25% here
        n = 10**9
        big_l = math.log(n) * math.log(math.log(n))
        k_w = lambert_w_index(n)
        k_log = n / (big_l * math.log(n / big_l))
        assert abs(k_w / k_log - 1) < 0.25
        assert k_w / k_log == pytest.approx(1.188942, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w_index(15)


class TestMeanVsLthPrime:
    def test_examples(self, table_small):
        assert mean_vs_Lth_prime(table_small, 10) == pytest.approx(1.25)
        assert mean_vs_Lth_prime(table_small, 3) == pytest.approx(0.5)

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            mean_vs_Lth_prime(table_small, 2)

    def test_reported_not_asserted_at_1e7(self, table_big):
        # slow convergence: record the ratio, only sanity-bound it
        ratio = mean_vs_Lth_prime(table_big, 10**7)
        assert 0.1 < ratio < 10
