"""Aggregate exponent statistics of n!.

upsilon(n) is the total number of prime factors of n! counted with
multiplicity, i.e. the sum of all exponents in its prime decomposition.
Its mean over the pi(n) primes is kept as an exact fraction next to the
float rendering so downstream comparisons can stay exact.

The range scanner exploits the identity
    upsilon(n) = upsilon(n-1) + Omega(n)
(every prime factor of n is <= n, so appending the factor multiset of n is
exactly what moves the decomposition of (n-1)! to that of n!).  That turns
an exhaustive scan over [a, b] into one direct evaluation plus a segmented
factor count over the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, FactprimesError, OutOfRangeError
from .primes import PrimeTable, nth_prime, pi
from .special_functions import lambert_w
from .valuation import valuation_vector

# Below e^e the double logarithm is < 1 and the asymptotic location
# formulas are meaningless; they are populated from this point on.
ASYMPTOTIC_MIN_N = 16


@dataclass(frozen=True)
class UpsilonResult:
    """Exact exponent sum of n! plus its mean and first-order asymptotics.

    mean_exact * pi_n == upsilon holds exactly; mean is the float rendering.
    The asymptotic fields are None for n == 2 (log log n is not a useful
    quantity there).
    """

    n: int
    upsilon: int
    pi_n: int
    mean_exact: Fraction
    mean: float
    asymptotic_main: float | None
    mean_asymptotic: float | None


@dataclass(frozen=True)
class MeanLocation:
    """Where in the prime sequence the mean exponent of n! is attained.

    p_star is the smallest prime minimizing |v_p(n!) - mean|; k_star its
    1-based index; v_star the exponent there.  p_approx and the two k
    estimates are the asymptotic predictions (None below n = 16).  p_L is
    the floor(log n)-th prime.
    """

    n: int
    p_star: int
    k_star: int
    v_star: int
    p_L: int
    p_approx: float | None
    k_approx: float | None
    k_approx_w: float | None


def upsilon_value(table: PrimeTable, n: int) -> int:
    """Exact exponent sum of n! (fast path, no result object)."""
    return int(valuation_vector(table, n).sum())


def upsilon(table: PrimeTable, n: int) -> UpsilonResult:
    """Exponent sum, prime count, exact mean, and asymptotic main terms.

    Raises:
        DomainError: n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    if n < 2:
        raise DomainError(f"upsilon needs n >= 2, got {n}")
    ups = upsilon_value(table, n)
    pi_n = pi(table, n)
    mean_exact = Fraction(ups, pi_n)
    if n >= 3:
        ln_n = math.log(n)
        asymptotic_main = n * math.log(ln_n)
        mean_asymptotic = ln_n * math.log(ln_n)
    else:
        asymptotic_main = None
        mean_asymptotic = None
    return UpsilonResult(n=n, upsilon=ups, pi_n=pi_n, mean_exact=mean_exact,
                         mean=float(mean_exact), asymptotic_main=asymptotic_main,
                         mean_asymptotic=mean_asymptotic)


def upsilon_asymptotic_gap(table: PrimeTable, n: int) -> float:
    """Per-n residual (upsilon(n) - n log log n) / n of the leading term."""
    if n < 3:
        raise DomainError(f"residual needs n >= 3, got {n}")
    ups = upsilon_value(table, n)
    return (ups - n * math.log(math.log(n))) / n


def omega_window(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """Omega(m) (prime factors with multiplicity) for every m in [lo, hi].

    Segmented: strided slices add one for each prime power p^k dividing m
    for p up to sqrt(hi); whatever remains after dividing those out is at
    most one large prime factor.

    Raises:
        DomainError: lo < 2 or lo > hi.
        OutOfRangeError: the table cannot certify primes up to sqrt(hi).
    """
    if lo < 2 or lo > hi:
        raise DomainError(f"bad window [{lo}, {hi}]")
    root = math.isqrt(hi)
    if root > table.limit:
        raise OutOfRangeError(
            f"window up to {hi} needs primes to {root}, table stops at {table.limit}")
    size = hi - lo + 1
    counts = np.zeros(size, dtype=np.int64)
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    for p in table.primes_up_to(root):
        p = int(p)
        pk = p
        while pk <= hi:
            start = ((lo + pk - 1) // pk) * pk
            if start <= hi:
                counts[start - lo::pk] += 1
                rem[start - lo::pk] //= p
            if pk > hi // p:
                break
            pk *= p
    counts += rem > 1
    return counts


def upsilon_range(table: PrimeTable, n_from: int, n_to: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, upsilon(n), pi(n)) arrays for every n in [n_from, n_to].

    One direct evaluation at n_from, then the Omega recurrence across the
    window; all exact int64.

    Raises:
        DomainError: n_from < 2 or empty range.
        OutOfRangeError: n_to beyond the table limit.
    """
    if n_from < 2 or n_from > n_to:
        raise DomainError(f"bad range [{n_from}, {n_to}]")
    if n_to > table.limit:
        raise OutOfRangeError(f"n_to={n_to} exceeds table limit {table.limit}")
    ns = np.arange(n_from, n_to + 1, dtype=np.int64)
    ups = np.empty(len(ns), dtype=np.int64)
    ups[0] = upsilon_value(table, n_from)
    if n_to > n_from:
        ups[1:] = ups[0] + np.cumsum(omega_window(table, n_from + 1, n_to))
    pis = np.searchsorted(table.primes, ns, side="right").astype(np.int64)
    return ns, ups, pis


def mean_location(table: PrimeTable, n: int) -> MeanLocation:
    """Exact argmin prime of |v_p(n!) - mean| plus the asymptotic guesses.

    Ties break to the smallest prime.  The deviation comparison is done on
    the integers |v_p * pi(n) - upsilon(n)|, so no rounding is involved.
    The scan also guards the monotonicity (v nonincreasing in p) that a
    binary-search variant would rely on.

    Raises:
        DomainError: n < 3.
        OutOfRangeError: n beyond the table limit.
        FactprimesError: the exponents are not nonincreasing in p.
    """
    if n < 3:
        raise DomainError(f"mean_location needs n >= 3, got {n}")
    v = valuation_vector(table, n)
    if np.any(np.diff(v) > 0):
        raise FactprimesError(f"exponent sequence of {n}! is not nonincreasing")
    ups = int(v.sum())
    pi_n = len(v)
    dev = np.abs(v * pi_n - ups)
    k_star = int(np.argmin(dev))  # argmin returns the first, i.e. smallest p
    ps = table.primes_up_to(n)
    p_star = int(ps[k_star])
    v_star = int(v[k_star])

    p_L = nth_prime(table, int(math.log(n)))

    if n >= ASYMPTOTIC_MIN_N:
        ln_n = math.log(n)
        llg = math.log(ln_n)
        p_approx = n / (ln_n * llg) + 1.0
        k_approx = n / (ln_n * ln_n * llg)
        k_approx_w = lambert_w_index(n)
    else:
        p_approx = None
        k_approx = None
        k_approx_w = None
    return MeanLocation(n=n, p_star=p_star, k_star=k_star + 1, v_star=v_star,
                        p_L=p_L, p_approx=p_approx, k_approx=k_approx,
                        k_approx_w=k_approx_w)


def lambert_w_index(n: int) -> float:
    """Predicted prime index of the mean exponent: n / (L * W(n/L)) with
    L = log n * log log n.

    Raises:
        DomainError: n < 16.
    """
    if n < ASYMPTOTIC_MIN_N:
        raise DomainError(f"index asymptotics need n >= 16, got {n}")
    big_l = math.log(n) * math.log(math.log(n))
    return n / (big_l * lambert_w(n / big_l))


def mean_vs_Lth_prime(table: PrimeTable, n: int) -> float:
    """Ratio of the mean exponent of n! to the floor(log n)-th prime.

    Convergence of this ratio is slow; it is reported, never asserted.

    Raises:
        DomainError: floor(log n) < 1, i.e. n < 3.
    """
    if n < 3:
        raise DomainError(f"needs floor(log n) >= 1, got n={n}")
    res = upsilon(table, n)
    return res.mean / nth_prime(table, int(math.log(n)))
