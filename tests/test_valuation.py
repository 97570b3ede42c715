import math
from time import perf_counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, OutOfRangeError, ResourceLimitError,
                        digit_sum, factorial_valuation_oracle,
                        full_decomposition, is_prime, legendre_valuation,
                        omega, primes, squarefree_kernel, valuation_vector)
from factprimes.valuation import (_strong_lucas_probable_prime, _strong_probable_prime,
                                  decomposition_blocks)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestLegendre:
    def test_examples(self):
        v = legendre_valuation(10, 2)
        assert (v.v, v.m) == (8, 3)
        assert legendre_valuation(10, 11).v == 0
        assert legendre_valuation(10, 11).m == 0
        v7 = legendre_valuation(10, 7)
        assert (v7.v, v7.m) == (1, 1)

    def test_zero_and_one_factorial(self):
        assert legendre_valuation(0, 2).v == 0
        assert legendre_valuation(1, 5).v == 0

    def test_rejects_non_primes(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(DomainError):
                legendre_valuation(10, bad)
        with pytest.raises(DomainError):
            legendre_valuation(-1, 2)

    def test_depth_exact_at_prime_powers(self):
        # floating log(n)/log(p) is fragile exactly here; the integer loop
        # must not be
        assert legendre_valuation(2**40, 2).m == 40
        assert legendre_valuation(3**20, 3).m == 20
        assert legendre_valuation(3**20 - 1, 3).m == 19

    @given(n=st.integers(0, 50_000), p=st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=150)
    def test_kummer_identity(self, n, p):
        v = legendre_valuation(n, p)
        assert v.v * (p - 1) == n - digit_sum(n, p)

    @given(n=st.integers(2, 3000), p=st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=60)
    def test_matches_oracle(self, n, p):
        assert legendre_valuation(n, p).v == factorial_valuation_oracle(n, p)


class TestOracle:
    def test_examples(self):
        assert factorial_valuation_oracle(10, 2) == 8
        assert factorial_valuation_oracle(1, 2) == 0
        assert factorial_valuation_oracle(10, 5) == 2

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            factorial_valuation_oracle(100_001, 2)


class TestDecomposition:
    def test_examples(self, table_small):
        assert full_decomposition(table_small, 10).entries() == \
            [(2, 8), (3, 4), (5, 2), (7, 1)]
        assert full_decomposition(table_small, 2).entries() == [(2, 1)]
        assert full_decomposition(table_small, 6).entries() == \
            [(2, 4), (3, 2), (5, 1)]

    def test_every_prime_divides(self, table_small):
        for n in (2, 17, 100, 9973):
            profile = full_decomposition(table_small, n)
            assert len(profile) == \
                int(np.searchsorted(table_small.primes, n, side="right"))
            assert np.all(profile.exponents >= 1)

    def test_reconstructs_log_factorial(self, table_small):
        for n in (2, 10, 100, 1234, 10_000):
            profile = full_decomposition(table_small, n)
            assert profile.reconstruction_rel_error() < 1e-6

    def test_vector_matches_scalar(self, table_small):
        for n in (2, 3, 97, 1000):
            v = valuation_vector(table_small, n)
            ps = table_small.primes_up_to(n)
            for p, vv in zip(ps, v):
                assert legendre_valuation(n, int(p)).v == int(vv)

    @pytest.mark.parametrize("n", [2, 1024, 1025, 9973])
    def test_blocks_are_the_vector(self, table_small, monkeypatch, n):
        # 256 values a block; (1024, 1025] holds no prime, so 1025 ends on
        # an empty block
        monkeypatch.setattr(primes, "_VALUE_BLOCK", 256)
        blocks = list(decomposition_blocks(table_small, n))
        assert len(blocks) == -(-n // 256)
        assert blocks[0][0][0] == 2
        assert np.concatenate([ps for ps, _ in blocks]).tolist() == \
            table_small.primes_up_to(n).tolist()
        assert np.concatenate([v for _, v in blocks]).tolist() == \
            valuation_vector(table_small, n).tolist()

    def test_blocks_check_n_when_called(self, table_small):
        with pytest.raises(DomainError):
            decomposition_blocks(table_small, 1)
        with pytest.raises(OutOfRangeError):
            decomposition_blocks(table_small, table_small.limit + 1)

    def test_deep_exponents_at_the_table_limit(self, table_big):
        # the primes with p^3 <= n sum their terms past n // p^2 in plain ints
        n = table_big.limit
        v = valuation_vector(table_big, n)
        deep = int(np.searchsorted(table_big.primes, round(n ** (1 / 3)), side="right"))
        for i in range(deep + 3):
            assert legendre_valuation(n, int(table_big.primes[i])).v == int(v[i]), i


def test_exhaustive_pairwise_properties(table_small):
    """One pass over all n <= 1e4 checking, for every prime p <= n:

    - the digit-sum identity v = (n - digitsum_p(n)) / (p - 1), exactly;
    - the sandwich (n-p)/(p-1) - log n / log p < v <= (n-1)/(p-1), with the
      upper comparison done in integers;
    - exponents nonincreasing in p;
    - {p : v_p = 1} == {p : n/2 < p <= n} for n >= 4.
    """
    ps_all = table_small.primes
    logp_all = np.log(ps_all.astype(np.float64))
    for n in range(2, 10_001):
        idx = int(np.searchsorted(ps_all, n, side="right"))
        ps = ps_all[:idx]
        v = valuation_vector(table_small, n)

        # digit sums base p, vectorized over all p at once
        x = np.full(idx, n, dtype=np.int64)
        s = np.zeros(idx, dtype=np.int64)
        while np.any(x > 0):
            s += x % ps
            x //= ps
        assert np.all(v * (ps - 1) == n - s), f"digit-sum identity fails at {n}"

        assert np.all(v[:-1] >= v[1:]), f"exponents not monotone at {n}"

        assert np.all(v * (ps - 1) <= n - 1), f"upper sandwich fails at {n}"
        lower = (n - ps) / (ps - 1.0) - math.log(n) / logp_all[:idx]
        assert np.all(lower < v), f"lower sandwich fails at {n}"

        if n >= 4:
            half_idx = int(np.searchsorted(ps, n / 2, side="right"))
            assert np.array_equal(ps[v == 1], ps[half_idx:]), \
                f"exponent-one block mismatch at {n}"


class TestHelpers:
    def test_is_prime(self):
        assert [k for k in range(2, 30) if is_prime(k)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1) and not is_prime(0)

    @given(st.integers(-10, 10**6) | st.integers(2, 3 * 10**24))
    @settings(max_examples=300, deadline=None)
    def test_is_prime_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @given(st.integers(2, 10**12), st.integers(2, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_is_prime_on_primes_and_semiprimes(self, a, b):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert is_prime(p) and not is_prime(p * q)

    def test_is_prime_refuses_strong_pseudoprimes(self):
        # strong pseudoprimes to the bases 2 .. 7, and to the bases 2 .. 23
        for n in (3215031751, 3825123056546413051):
            assert not sympy.isprime(n) and not is_prime(n)

    def test_strong_lucas_step_matches_sympy(self):
        # on every odd n below 1e5: sympy's strong Lucas test, and with the
        # Miller-Rabin round to base 2 (Baillie-PSW), sympy.isprime
        from sympy.ntheory.primetest import is_strong_lucas_prp
        for n in range(3, 100_000, 2):
            lucas = _strong_lucas_probable_prime(n)
            assert lucas == is_strong_lucas_prp(n), n
            assert (lucas and _strong_probable_prime(n, 2)) == sympy.isprime(n), n

    def test_pseudoprime_to_every_base_is_refused_at_once(self):
        # the least strong pseudoprime to the bases 2 .. 41, where trial
        # division alone ran for hours
        n = 3_317_044_064_679_887_385_961_981
        assert not sympy.isprime(n)
        start = perf_counter()
        assert not is_prime(n) and not is_prime(n * 1_000_003)
        assert perf_counter() - start < 1

    def test_prime_above_the_exact_range_is_refused_at_once(self):
        # M89 passes the Baillie-PSW test; trial division to its square root
        # would take about 10^13 steps, so it is refused, not proven
        m89 = 2**89 - 1
        for call in (lambda: is_prime(m89), lambda: legendre_valuation(10, m89),
                     lambda: squarefree_kernel([(m89, 1)])):
            start = perf_counter()
            with pytest.raises(ResourceLimitError):
                call()
            assert perf_counter() - start < 1
        assert not is_prime(2**89 + 1)

    def test_legendre_valuation_of_a_large_prime_is_fast(self):
        # trial division took 0.66 s to accept p
        p = sympy.nextprime(10**14)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            assert legendre_valuation(10, p).v == 0
            times.append(perf_counter() - t0)
        assert min(times) < 0.01

    def test_omega(self):
        assert omega(1) == 0
        assert omega(12) == 3
        assert omega(2**10) == 10
        assert omega(97) == 1

    def test_digit_sum(self):
        assert digit_sum(255, 2) == 8
        assert digit_sum(100, 10) == 1
        with pytest.raises(DomainError):
            digit_sum(10, 1)
