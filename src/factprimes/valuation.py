"""Exact exponents of primes in n! and the full factorization of n!.

The exponent of p in n! is the finite sum of floor(n / p^k) over k >= 1.
Everything here is integer arithmetic; truncation depths are found by
multiplying p upwards rather than via floating logarithms, which misbehave
when n is an exact power of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceLimitError
from .primes import PrimeTable, _integer, pi, prime_blocks

# The brute-force oracle does O(n) factor extractions; keep it honest.
ORACLE_CAP = 100_000


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def digit_sum(n: int, base: int) -> int:
    """Sum of the digits of n written in the given base (base >= 2)."""
    n = _integer("n", n)
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if n < 0:
        raise DomainError(f"digit_sum needs n >= 0, got {n}")
    s = 0
    while n:
        s += n % base
        n //= base
    return s


def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity (Omega).

    Trial division; independent of any sieve table, so it can serve as an
    oracle against table-backed computations.
    """
    n = _integer("n", n)
    if n < 1:
        raise DomainError(f"omega needs n >= 1, got {n}")
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            count += 1
            n //= d
        d += 1
    return count + (1 if n > 1 else 0)


@dataclass(frozen=True)
class Valuation:
    """Exponent of one prime in n!.

    v is the exponent itself; m is the truncation depth, the largest k with
    p^k <= n (0 when p > n).
    """

    p: int
    n: int
    v: int
    m: int


def legendre_valuation(n: int, p: int) -> Valuation:
    """Exact exponent of the prime p in n!.

    Computes sum(n // p^k) with the loop stopping as soon as p^k > n.
    Returns v=0, m=0 when p > n.  For n in {0, 1} the factorial is 1 and
    every exponent is 0.

    Raises:
        DomainError: n not an integer, n < 0, or p is not prime.
    """
    n = _integer("n", n)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if p < 2 or not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    v = 0
    m = 0
    pk = p
    while pk <= n:
        v += n // pk
        m += 1
        pk *= p
    return Valuation(p=p, n=n, v=v, m=m)


def factorial_valuation_oracle(n: int, p: int) -> int:
    """Exponent of p in n! by factoring every k <= n individually.

    Brute-force cross-check for legendre_valuation; O(n) divisions.

    Raises:
        DomainError: bad n or p.
        ResourceLimitError: n above the oracle cap.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if p < 2 or not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if n > ORACLE_CAP:
        raise ResourceLimitError(
            f"oracle capped at n <= {ORACLE_CAP}, got {n}")
    total = 0
    for k in range(p, n + 1, p):
        while k % p == 0:
            total += 1
            k //= p
    return total


def valuation_vector(table: PrimeTable, n: int) -> np.ndarray:
    """Exponents of every prime p <= n in n!, in ascending prime order.

    Vectorized over the table's primes up to n; exact int64 arithmetic (the
    powers p^k that enter never exceed n, so nothing can overflow).

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    n = _checked(table, n)
    return _legendre_exponents(table.primes_up_to(n), n)


def _checked(table: PrimeTable, n: int) -> int:
    n = _integer("n", n)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    return n


def decomposition_blocks(table: PrimeTable, n: int
                         ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The prime decomposition of n! as ascending (primes, exponents)
    blocks, one per value block of primes.prime_blocks, so that no array
    over all the primes <= n is held.  The first block holds the prime 2;
    a later one may be empty.  n is checked when this is called.

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    n = _checked(table, n)
    # the exponents are elementwise in p, so any ascending block will do
    return ((ps, _legendre_exponents(ps, n)) for ps in prime_blocks(table, 0, n))


def _legendre_exponents(ps: np.ndarray, n: int) -> np.ndarray:
    """Exponents in n! of the ascending primes ps: sum of n // p^k over k."""
    v = n // ps
    # p^2 <= n holds for a prefix of ps, and p^3 <= n for a prefix of that:
    # few primes, but with many terms (22 more for p = 2 at 2e7), so those
    # go in plain ints
    sq = ps[:int(np.searchsorted(ps, math.isqrt(n), side="right"))]
    m = n // (sq * sq)
    v[:len(sq)] += m
    deep = int(np.count_nonzero(m >= sq))
    tail = []
    for p, q in zip(sq[:deep].tolist(), m[:deep].tolist()):
        e = 0
        while q >= p:
            q //= p
            e += q
        tail.append(e)
    v[:deep] += np.array(tail, dtype=np.int64)
    return v


def _odd_exponent_primes(table: PrimeTable, n: int,
                         v: np.ndarray | None = None) -> np.ndarray:
    # primes p <= n with v_p(n!) odd; v is valuation_vector(table, n) when
    # the caller already holds it
    if v is None:
        v = valuation_vector(table, n)
    return table.primes_up_to(n)[(v & 1) == 1]


@dataclass(frozen=True)
class ValuationProfile:
    """Full prime decomposition of n!: aligned arrays of primes and exponents."""

    n: int
    primes: np.ndarray
    exponents: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        for p, v in zip(self.primes, self.exponents):
            yield int(p), int(v)

    def entries(self) -> list[tuple[int, int]]:
        """The decomposition as a list of (prime, exponent) pairs."""
        return list(self)

    def reconstruction_rel_error(self) -> float:
        """Relative gap between sum(v log p) and log(n!) via lgamma."""
        log_fact = math.lgamma(self.n + 1)
        approx = float(np.sum(self.exponents * np.log(self.primes.astype(np.float64))))
        return abs(approx - log_fact) / log_fact


def full_decomposition(table: PrimeTable, n: int) -> ValuationProfile:
    """Prime decomposition of n! with one entry per prime <= n, filled
    block by block from decomposition_blocks into arrays of their exact
    size.

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    blocks = decomposition_blocks(table, n)
    size = pi(table, n)
    ps = np.empty(size, dtype=np.int64)
    v = np.empty(size, dtype=np.int64)
    k = 0
    for block, exponents in blocks:
        ps[k:k + len(block)] = block
        v[k:k + len(block)] = exponents
        k += len(block)
    v.setflags(write=False)
    ps.setflags(write=False)
    return ValuationProfile(n=n, primes=ps, exponents=v)
