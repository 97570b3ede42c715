"""Minimal square perfecter of n! and the class-restricted theta function.

The minimal perfecter of an integer N is the least m with m*N a perfect
square; it equals the squarefree kernel of N, the product of the primes
dividing N to an odd power.  For N = n! the kernel's logarithm coincides
with theta(n; 2, 1), the theta sum restricted to primes whose exponent in
n! is odd.

Empty residue classes contribute 0 to theta(n; q, a), so the additivity
theta(n) = sum over a of theta(n; q, a) always holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import evaluate_theorem
from .errors import DomainError, OutOfRangeError
from .primes import PrimeTable, _integer, limb_value, log_totals
from .report import BoundReport
from .upsilon import odd_exponent_blocks
from .valuation import _odd_exponent_primes, is_prime, valuation_vector

DEFAULT_EXACT_MAX_BITS = 4096


@dataclass(frozen=True)
class PerfecterResult:
    """Minimal square perfecter of n! by its size and in logarithmic form.

    count is the number of primes with an odd exponent in n! (the primes
    themselves come from upsilon.odd_exponent_blocks, or as one array from
    upsilon.odd_exponent_primes); exact_value is the kernel as a big integer
    when its size fits the configured bit cap, else None.
    """

    n: int
    count: int
    log_value: float
    exact_value: int | None


@dataclass(frozen=True)
class ThetaClassed:
    """theta(n; q, a) for a = 0 .. q-1: log-sums of primes classed by their
    exponent in n! modulo q."""

    n: int
    q: int
    values: list[float]

    def total(self) -> float:
        return math.fsum(self.values)


@dataclass(frozen=True)
class BertrandCheck:
    """The two equivalent statements at one n, plus the identity pieces.

    perfecter_exceeds_one and prime_in_upper_half must agree at every n;
    for n >= 4, singleton_match records that the primes with exponent
    exactly 1 are precisely those in (n/2, n], and theta_gap carries their
    log-sum (equal to theta(n) - theta(n/2)).
    """

    n: int
    perfecter_exceeds_one: bool
    prime_in_upper_half: bool
    log_perfecter: float
    singleton_match: bool | None
    theta_gap: float | None


def squarefree_kernel(factored: Sequence[tuple[int, int]]) -> list[int]:
    """Primes appearing to an odd power in a factored integer.

    Their product is the unique minimal multiplier turning the integer into
    a perfect square.

    Raises:
        DomainError: duplicate primes, non-prime bases, or exponents < 1.
    """
    seen = set()
    odd = []
    for p, e in factored:
        if p in seen:
            raise DomainError(f"duplicate prime {p} in factorization")
        seen.add(p)
        if p < 2 or not is_prime(p):
            raise DomainError(f"base {p} is not prime")
        if e < 1:
            raise DomainError(f"exponent of {p} must be >= 1, got {e}")
        if e % 2 == 1:
            odd.append(p)
    return sorted(odd)


def _log_sum(ps: np.ndarray) -> float:
    # exactly rounded: math.fsum of the logs, bit for bit
    return limb_value(log_totals(ps))


def perfecter_factorial(table: PrimeTable, n: int, *,
                        exact_max_bits: int = DEFAULT_EXACT_MAX_BITS
                        ) -> PerfecterResult:
    """Minimal m with m * n! a perfect square, for n >= 1.

    One pass over the blocks of upsilon.odd_exponent_blocks (the O(sqrt n)
    evaluation, not one exponent per prime) takes the count of the
    odd-exponent primes and the exact log-limb totals of their logs, so no
    array of them is held: log_value is the exactly rounded log-sum,
    math.fsum's value bit for bit.  The same pass multiplies the blocks
    while the log-sum so far says the product fits in exact_max_bits; past
    that the product is dropped, since the log-sum only grows.

    Raises:
        DomainError: n not an integer, n < 1 or exact_max_bits < 0.
        OutOfRangeError: n beyond the table limit.
    """
    n = _integer("n", n)
    if n < 1:
        raise DomainError(f"perfecter needs n >= 1, got {n}")
    if exact_max_bits < 0:
        raise DomainError(f"exact_max_bits must be >= 0, got {exact_max_bits}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    count = high = low = 0
    exact: int | None = 1
    for ps in odd_exponent_blocks(table, n):
        count += len(ps)
        h, l = log_totals(ps)
        high += h
        low += l
        # bit length of the product is log/log 2 up to rounding
        if exact is not None and limb_value((high, low)) / math.log(2) <= exact_max_bits:
            exact *= math.prod(ps.tolist())
        else:
            exact = None
    log_value = limb_value((high, low))
    if exact is not None and exact.bit_length() > exact_max_bits:
        exact = None
    return PerfecterResult(n=n, count=count, log_value=log_value,
                           exact_value=exact)


def theta_classed(table: PrimeTable, n: int, q: int) -> ThetaClassed:
    """theta restricted by exponent class: values[a] sums log p over primes
    p <= n with v_p(n!) congruent to a mod q.  Empty classes sum to 0.

    Raises:
        DomainError: n not an integer, n < 2 or q not prime.
        OutOfRangeError: n beyond the table limit.
    """
    n = _integer("n", n)
    if n < 2:
        raise DomainError(f"theta_classed needs n >= 2, got {n}")
    if q < 2 or not is_prime(q):
        raise DomainError(f"modulus must be prime, got {q}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    v = valuation_vector(table, n)
    ps = table.primes_up_to(n)
    residues = v % q
    values = [_log_sum(ps[residues == a]) for a in range(q)]
    return ThetaClassed(n=n, q=q, values=values)


def perfecter_bounds(table: PrimeTable, n: int) -> BoundReport:
    """The two-sided perfecter bound at n >= 4, in log space: the registry's
    S32_perfecter report, its rhs the upper exponent and its slack the
    smaller margin (see bounds.perfecter_exponents)."""
    return evaluate_theorem(table, "S32", n)


def bertrand_equivalence(table: PrimeTable, n: int) -> BertrandCheck:
    """Check perfecter(n!) > 1 against the existence of a prime in (n/2, n].

    For n >= 4 also verifies the supporting identity: the primes with
    exponent exactly 1 in n! are exactly the primes in (n/2, n], and their
    log-sum (computed over the same summands both ways) is theta(n) -
    theta(n/2).

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    n = _integer("n", n)
    if n < 2:
        raise DomainError(f"needs n >= 2, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    v = valuation_vector(table, n)
    ps = table.primes_up_to(n)
    odd = _odd_exponent_primes(table, n, v)
    log_perfecter = _log_sum(odd)
    exceeds_one = len(odd) > 0

    # primes strictly above n/2 (real division; n/2 itself is excluded)
    half_idx = int(np.searchsorted(ps, n / 2, side="right"))
    block = ps[half_idx:]
    in_upper_half = len(block) > 0

    if n >= 4:
        singles = ps[v == 1]
        singleton_match = bool(np.array_equal(singles, block))
        theta_gap = _log_sum(block)
    else:
        singleton_match = None
        theta_gap = None
    return BertrandCheck(n=n, perfecter_exceeds_one=exceeds_one,
                         prime_in_upper_half=in_upper_half,
                         log_perfecter=log_perfecter,
                         singleton_match=singleton_match, theta_gap=theta_gap)
