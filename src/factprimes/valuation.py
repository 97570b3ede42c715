"""Exact exponents of primes in n! and the full factorization of n!.

The exponent of p in n! is the finite sum of floor(n / p^k) over k >= 1.
Everything here is integer arithmetic; truncation depths are found by
multiplying p upwards rather than via floating logarithms, which misbehave
when n is an exact power of p.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError, checked
from .primes import PrimeTable, pi, prime_blocks
from .report import Record

# The brute-force oracle does O(n) factor extractions; keep it honest.
ORACLE_CAP = 100_000


# Bases of the strong probable-prime test: the first 13 primes, which no
# composite below _MR_EXACT_BELOW passes (Sorenson & Webster, Math. Comp.
# 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality check of an integer n; every answer is a proof.

    A strong probable-prime (Miller-Rabin) test to the bases 2 .. 41
    decides every n below 3.3e24.  A larger n that passes it must also pass
    a strong Lucas test (the two together are the Baillie-PSW test, which
    no composite is known to pass), so composites are refused at once.  One
    that passes both raises ResourceLimitError: trial division to sqrt n
    would take 10^12 steps or more (a Pocklington certificate could prove
    such a candidate instead).
    """
    n = checked("prime candidate", n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if not all(_strong_probable_prime(n, a) for a in _MR_BASES):
        return False
    if n < _MR_EXACT_BELOW:
        return True
    if not _strong_lucas_probable_prime(n):
        return False
    raise ResourceLimitError(f"{n} passes the Baillie-PSW test, but no proof of "
                             f"primality above {_MR_EXACT_BELOW} is implemented")


def _strong_probable_prime(n: int, a: int) -> bool:
    # the Miller-Rabin round to the base a, for an odd n > a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a/n) for an odd n > 0
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, it passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s (Baillie & Wagstaff, Math.
    Comp. 35, 1980).  Every odd prime passes."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # d shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s

    def half(x):  # x / 2 mod the odd n
        return (x + n if x & 1 else x) // 2 % n

    # U_m, V_m and Q^m mod n for m the leading bits of k, from m = 1
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v, qm = half(u + v), half(d * u + v), qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
        if v == 0:
            return True
    return False


def digit_sum(n: int, base: int) -> int:
    """Sum of the digits of n written in the given base (base >= 2)."""
    n, base = checked("n", n, 0), checked("base", base, 2)
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
    n = checked("n", n, 1)
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            count += 1
            n //= d
        d += 1
    return count + (1 if n > 1 else 0)


class Valuation(NamedTuple):
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
        ResourceLimitError: p a candidate is_prime refuses to decide.
    """
    n = checked("n", n, 0)
    if not is_prime(checked("p", p)):
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
    n = checked("n", n, 0)
    if not is_prime(checked("p", p)):
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
    n = checked("n", n, 2, table=table)
    return _legendre_exponents(table.primes_up_to(n), n)


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
    n = checked("n", n, 2, table=table)
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


def _odd_exponent_primes(table: PrimeTable, n: int, v: np.ndarray) -> np.ndarray:
    # primes p <= n with v_p(n!) odd, from v = valuation_vector(table, n)
    return table.primes_up_to(n)[(v & 1) == 1]


class ValuationProfile(Record):
    """Full prime decomposition of n!: aligned arrays of primes and exponents."""

    __slots__ = _fields = ("n", "primes", "exponents")

    def __init__(self, n: int, primes: np.ndarray, exponents: np.ndarray) -> None:
        super().__init__(n=n, primes=primes, exponents=exponents)

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
