import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, bertrand_equivalence, bounds,
                        perfecter_bounds, perfecter_factorial,
                        squarefree_kernel, theta, theta_classed)
from factprimes.upsilon import factorial_windows, odd_exponent_primes

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


class TestSquarefreeKernel:
    def test_examples(self):
        assert squarefree_kernel([(2, 3), (3, 1)]) == [2, 3]
        assert squarefree_kernel([(2, 2)]) == []
        assert squarefree_kernel([(2, 1)]) == [2]

    def test_validation(self):
        with pytest.raises(DomainError):
            squarefree_kernel([(2, 1), (2, 3)])
        with pytest.raises(DomainError):
            squarefree_kernel([(4, 1)])
        with pytest.raises(DomainError):
            squarefree_kernel([(2, 0)])

    @given(st.lists(st.tuples(st.sampled_from(FIRST_PRIMES), st.integers(1, 6)),
                    unique_by=lambda t: t[0], max_size=6))
    @settings(max_examples=150)
    def test_kernel_perfects_the_product(self, factored):
        value = 1
        for p, e in factored:
            value *= p**e
        kernel = squarefree_kernel(factored)
        multiplier = math.prod(kernel)
        assert is_square(multiplier * value)
        # squarefree: no prime repeats
        assert len(set(kernel)) == len(kernel)


class TestPerfecterFactorial:
    def test_examples(self, table_small):
        r4 = perfecter_factorial(table_small, 4)
        assert odd_exponent_primes(table_small, 4).tolist() == [2, 3]
        assert r4.count == 2 and r4.exact_value == 6
        r1 = perfecter_factorial(table_small, 1)
        assert r1.exact_value == 1 and r1.log_value == 0.0
        r5 = perfecter_factorial(table_small, 5)
        assert odd_exponent_primes(table_small, 5).tolist() == [2, 3, 5]
        assert r5.count == 3 and r5.exact_value == 30
        assert 120 * 30 == 3600 and is_square(3600)

    def test_bit_cap(self, table_small):
        assert perfecter_factorial(table_small, 1000).exact_value is not None
        assert perfecter_factorial(table_small, 5000).exact_value is None
        small_cap = perfecter_factorial(table_small, 1000, exact_max_bits=64)
        assert small_cap.exact_value is None
        assert small_cap.log_value > 0

    @pytest.mark.parametrize("n", [1, 4, 30, 97, 1000, 4000, 10_000])
    def test_exact_value_on_both_sides_of_the_cap(self, table_small, n):
        # the product is formed in the same pass as the log-sum; the cap
        # may fall in any block of the pass
        kernel = math.prod(odd_exponent_primes(table_small, n).tolist())
        bits = kernel.bit_length()
        for cap in (bits, bits + 1, 2 * bits, 10**6):
            assert perfecter_factorial(table_small, n, exact_max_bits=cap).exact_value == kernel
        for cap in {0, bits // 2, bits - 1}:
            assert perfecter_factorial(table_small, n, exact_max_bits=cap).exact_value is None

    def test_log_equals_odd_class_theta(self, table_small):
        for n in (4, 5, 97, 1000, 10_000):
            res = perfecter_factorial(table_small, n)
            classed = theta_classed(table_small, n, 2)
            assert res.log_value == classed.values[1]  # same summands, same order

    def test_log_within_total_theta(self, table_small):
        for n in (2, 10, 500, 10_000):
            res = perfecter_factorial(table_small, n)
            assert 0 <= res.log_value <= theta(table_small, n) + 1e-12

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            perfecter_factorial(table_small, 0)


class TestThetaClassed:
    def test_mod2_examples(self, table_small):
        c4 = theta_classed(table_small, 4, 2)
        assert c4.values[1] == pytest.approx(math.log(6), abs=1e-12)
        assert c4.values[0] == 0.0

        c2 = theta_classed(table_small, 2, 2)
        assert c2.values[1] == pytest.approx(math.log(2), abs=1e-15)
        assert c2.values[0] == 0.0

        c10 = theta_classed(table_small, 10, 2)
        assert c10.values[1] == pytest.approx(math.log(7), abs=1e-12)
        assert c10.values[0] == pytest.approx(math.log(30), abs=1e-12)

    def test_composite_modulus_rejected(self, table_small):
        with pytest.raises(DomainError):
            theta_classed(table_small, 10, 4)

    def test_vector_length(self, table_small):
        assert len(theta_classed(table_small, 100, 7).values) == 7


class TestNegativeBitCap:
    def test_rejected(self, table_small):
        with pytest.raises(DomainError):
            perfecter_factorial(table_small, 10, exact_max_bits=-5)
        assert perfecter_factorial(table_small, 10, exact_max_bits=0).exact_value is None


SWEEP_TO = 20_000


@pytest.fixture(scope="module")
def pointwise_logs(table_big):
    """perfecter_factorial(n).log_value for n in [2, SWEEP_TO], indexed by n."""
    logs = [None, None]
    for n in range(2, SWEEP_TO + 1):
        res = perfecter_factorial(table_big, n)
        odd = odd_exponent_primes(table_big, n).astype(np.float64)
        assert res.count == len(odd), n
        assert res.log_value == math.fsum(np.log(odd).tolist()), n
        logs.append(res.log_value)
    return logs


@lru_cache(maxsize=None)
def _factorint(k):
    sympy = pytest.importorskip("sympy")
    return sympy.factorint(k)


class TestPerfecterSweep:
    def test_walker_matches_pointwise_every_n(self, table_big, pointwise_logs):
        walked = [x for cols in factorial_windows(table_big, 2, SWEEP_TO,
                                                   bounds.walk_window(SWEEP_TO),
                                                   perfecter=True)
                  for x in cols.log_perfecter.tolist()]
        assert walked == pointwise_logs[2:]

    def test_short_unaligned_windows(self, table_big, pointwise_logs, monkeypatch):
        # the S32 sweep restarts at an arbitrary n and carries the set
        # across many short walk windows, each judged in slices of 40
        monkeypatch.setattr(bounds, "walk_window", lambda n_to: 97)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: 40)
        lo = 1234
        windows = list(bounds.sweep(table_big, "S32", lo, SWEEP_TO))
        walks = [min(97, SWEEP_TO + 1 - a) for a in range(lo, SWEEP_TO + 1, 97)]
        assert [len(w.n) for w in windows] == [
            min(40, size - i) for size in walks for i in range(0, size, 40)]
        walked = [x for w in windows for x in w.lhs.tolist()]
        assert walked == pointwise_logs[lo:]

    @given(st.integers(2, 3000), st.data())
    @settings(max_examples=30, deadline=None)
    def test_odd_set_matches_factorint(self, table_small, n, data):
        exponents = Counter()
        for k in range(2, n + 1):
            exponents.update(_factorint(k))
        odd = sorted(p for p, e in exponents.items() if e % 2)
        assert odd_exponent_primes(table_small, n).tolist() == odd
        assert perfecter_factorial(table_small, n).count == len(odd)
        lo = data.draw(st.integers(2, n), label="lo")
        *_, last = factorial_windows(table_small, lo, n, 97, perfecter=True)
        fingerprint = math.fsum(np.log(np.array(odd, dtype=np.float64)).tolist())
        assert last.log_perfecter[-1] == fingerprint


class TestPerfecterBounds:
    # one S32_perfecter report: holds iff both sides hold, and its slack
    # is the smaller of the two margins
    def test_at_4(self, table_small):
        rep = perfecter_bounds(table_small, 4)
        assert rep.theorem_id == "S32_perfecter"
        assert rep.lhs == pytest.approx(math.log(6), abs=1e-12)
        assert rep.holds

    def test_at_1e4(self, table_small):
        assert perfecter_bounds(table_small, 10_000).holds

    def test_at_1e6(self, table_big):
        rep = perfecter_bounds(table_big, 10**6)
        assert rep.holds
        assert rep.slack > 0

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            perfecter_bounds(table_small, 1)
        assert not perfecter_bounds(table_small, 3).applicable


class TestBertrand:
    def test_at_4(self, table_small):
        chk = bertrand_equivalence(table_small, 4)
        assert chk.perfecter_exceeds_one and chk.prime_in_upper_half
        assert chk.singleton_match
        assert chk.theta_gap == pytest.approx(math.log(3), abs=1e-15)

    def test_at_2(self, table_small):
        chk = bertrand_equivalence(table_small, 2)
        assert chk.perfecter_exceeds_one and chk.prime_in_upper_half
        assert chk.singleton_match is None and chk.theta_gap is None

    def test_components_agree_sampled(self, table_small):
        for n in range(2, 400):
            chk = bertrand_equivalence(table_small, n)
            assert chk.perfecter_exceeds_one == chk.prime_in_upper_half
            assert chk.perfecter_exceeds_one

    def test_gap_lower_bounds_perfecter(self, table_small):
        for n in (4, 10, 100, 999, 10_000):
            chk = bertrand_equivalence(table_small, n)
            assert chk.log_perfecter >= chk.theta_gap - 1e-9
            # and the gap is literally theta(n) - theta(n/2) numerically
            gap_ref = theta(table_small, n) - theta(table_small, n / 2)
            assert chk.theta_gap == pytest.approx(gap_ref, abs=1e-9)
