"""Prime sieve table and the elementary counting functions built on it.

A :class:`PrimeTable` is built once by :func:`build_table` and is immutable
afterwards, so it can be shared freely across threads and workers.  All
queries (``pi``, ``theta``, ``nth_prime``) answer from the precomputed
arrays; no primality testing happens after construction.  The explicit
theta and pi bounds are records of the bound registry (``bounds.BOUNDS``);
``check_dusart_theta`` and ``check_dusart_pi`` return its reports.

``theta`` values come from an exact prefix sum over the prime logarithms:
every prefix is the correctly rounded sum of its ``log p`` terms, as
``math.fsum`` would return it (see :func:`log_limbs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceLimitError
from .report import BoundReport

# Hard memory cap for sieve construction (bytes scale with limit/2).
DEFAULT_LIMIT_CAP = 200_000_000


def kahan_sum(values: np.ndarray) -> float:
    """Compensated sum of a 1-D float array.

    Slower than ``np.sum`` but the result is deterministic and accurate to
    a couple of ulps of the running total regardless of length.
    """
    s = 0.0
    c = 0.0
    for v in values.tolist():
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


# Exact sums of prime logarithms.  Every float64 log p with p >= 2 lies in
# [2^-1, 2^5), so it is an integer multiple of 2^-53 and k = log p * 2^53 is
# an exact integer below 2^58.  Split as k = a * 2^32 + b with 0 <= a < 2^26
# and 0 <= b < 2^32, the two limbs add up exactly in int64: the sieve cap
# 2e8 admits fewer than 2^24 primes, so a limb sum over any set of them stays
# below 2^50 and 2^56.  Rounding once at the end, as limb_prefix does, gives
# the correctly rounded sum, which is math.fsum's result bit for bit.
_LOG_SCALE = 53
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_PREFIX_BLOCK = 1 << 16


def log_limbs(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low int64 limbs of logs * 2^53, for float64 logs of
    integers >= 2."""
    k = np.ldexp(logs, _LOG_SCALE).astype(np.int64)
    return k >> _LIMB_BITS, k & _LIMB_MASK


def limb_prefix(high: np.ndarray, low: np.ndarray, start: tuple[int, int] = (0, 0)
                ) -> tuple[np.ndarray, tuple[int, int]]:
    """Correctly rounded prefix sums of a run of (high, low) limbs, added to
    the limb totals start, and the new totals to continue from."""
    high = start[0] + np.cumsum(high)
    low = start[1] + np.cumsum(low)
    totals = (int(high[-1]), int(low[-1]))
    high += low >> _LIMB_BITS
    low &= _LIMB_MASK
    exact = high * float(1 << _LIMB_BITS) + low  # exact, then one rounding
    return np.ldexp(exact, -_LOG_SCALE), totals


def limb_value(totals: tuple[int, int]) -> float:
    """The correctly rounded value of limb totals, as limb_prefix rounds
    its prefixes."""
    return math.ldexp(float((totals[0] << _LIMB_BITS) + totals[1]), -_LOG_SCALE)


def _kahan_prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums of prime logarithms, each one correctly rounded.

    Limb cumsums instead of a running float total, so ``out[i]`` equals
    ``math.fsum(values[:i + 1])``.  Blocks keep the int64 temporaries small.
    """
    out = np.empty(len(values), dtype=np.float64)
    totals = (0, 0)
    for i in range(0, len(values), _PREFIX_BLOCK):
        out[i:i + _PREFIX_BLOCK], totals = limb_prefix(
            *log_limbs(values[i:i + _PREFIX_BLOCK]), totals)
    return out


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` with prefix sums of their logarithms.

    ``log_prefix[i]`` equals ``sum(log(primes[j]) for j <= i)``.  Both
    arrays are treated as read-only after construction.
    """

    limit: int
    primes: np.ndarray
    log_prefix: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    def primes_up_to(self, n: float) -> np.ndarray:
        """View of all table primes <= n (n may exceed the limit harmlessly
        only when the caller has already validated the range)."""
        idx = int(np.searchsorted(self.primes, math.floor(n), side="right"))
        return self.primes[:idx]


def build_table(limit: int, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> PrimeTable:
    """Sieve all primes up to ``limit`` (inclusive) and build the table.

    Uses an odds-only sieve of Eratosthenes held in a byte array, so peak
    memory is about limit/2 bytes plus the output arrays.

    Raises:
        DomainError: limit < 2.
        ResourceLimitError: limit exceeds ``limit_cap``.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > limit_cap:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the configured cap {limit_cap}")

    if limit == 2:
        primes = np.array([2], dtype=np.int64)
    else:
        # flags[i] represents the odd number 3 + 2i
        n_odd = (limit - 1) // 2
        flags = np.ones(n_odd, dtype=bool)
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[(p - 3) // 2]:
                start = (p * p - 3) // 2
                flags[start::p] = False
        odd_primes = 3 + 2 * np.nonzero(flags)[0].astype(np.int64)
        primes = np.concatenate((np.array([2], dtype=np.int64), odd_primes))

    log_prefix = _kahan_prefix(np.log(primes.astype(np.float64)))
    primes.setflags(write=False)
    log_prefix.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, log_prefix=log_prefix)


def pi(table: PrimeTable, n: int) -> int:
    """Number of primes <= n.

    Raises:
        DomainError: n < 0.
        OutOfRangeError: n beyond the table limit.
    """
    if n < 0:
        raise DomainError(f"pi is defined for n >= 0, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"pi({n}) exceeds table limit {table.limit}")
    return int(np.searchsorted(table.primes, n, side="right"))


def theta(table: PrimeTable, x: float) -> float:
    """Chebyshev theta: sum of log p over primes p <= x.

    Returns 0.0 for x < 2.  Accepts real x; only the integer part matters.

    Raises:
        DomainError: x < 0.
        OutOfRangeError: x beyond the table limit.
    """
    if x < 0:
        raise DomainError(f"theta is defined for x >= 0, got {x}")
    if x > table.limit:
        raise OutOfRangeError(f"theta({x}) exceeds table limit {table.limit}")
    idx = int(np.searchsorted(table.primes, math.floor(x), side="right"))
    if idx == 0:
        return 0.0
    return float(table.log_prefix[idx - 1])


def nth_prime(table: PrimeTable, k: int) -> int:
    """The k-th prime, 1-indexed (nth_prime(1) == 2).

    Raises:
        DomainError: k < 1.
        OutOfRangeError: the table holds fewer than k primes.
    """
    if k < 1:
        raise DomainError(f"prime index must be >= 1, got {k}")
    if k > len(table.primes):
        raise OutOfRangeError(
            f"table up to {table.limit} holds only {len(table.primes)} primes")
    return int(table.primes[k - 1])


def _at(formula, x: float) -> tuple[float, ...]:
    # a formula evaluated on a one-point array, as Python floats
    return tuple(float(v[0]) for v in formula(np.array([x], dtype=np.float64)))


def check_dusart_theta(table: PrimeTable, x: float) -> tuple[BoundReport, BoundReport]:
    """The registry's TB2 and TB4 reports at a real x >= 2: |theta(x) - x|
    against (793/200) x / log^2 x and 1717433 x / log^4 x.

    Raises DomainError (x < 2 or not finite) or OutOfRangeError (x beyond
    the table limit)."""
    from .bounds import evaluate_theorem  # bounds imports this module
    return evaluate_theorem(table, "TB2", x), evaluate_theorem(table, "TB4", x)


def check_dusart_pi(table: PrimeTable, n: float) -> tuple[BoundReport, BoundReport]:
    """The registry's PI_LB and PI_UB reports at a real n >= 2: pi(n)
    against (n/log n)(1 + 1/log n), applicable from 599 on, and
    (n/log n)(1 + 6381/(5000 log n)); raises as check_dusart_theta."""
    from .bounds import evaluate_theorem  # bounds imports this module
    return evaluate_theorem(table, "PI_LB", n), evaluate_theorem(table, "PI_UB", n)
