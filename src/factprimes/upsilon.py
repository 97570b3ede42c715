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
factor count over the window.  The same factor pass carries the set of
primes with an odd exponent in n!, whose log-sum is the log of the minimal
square perfecter (see factorial_windows).

A direct evaluation at n costs O(sqrt n), not one exponent per prime: with
r = isqrt(n), every prime p > r has exponent n // p <= Q = n // (r + 1),
and the primes with n // p = q are those in (n // (q + 1), n // q].  So
    upsilon(n) = sum of v_p(n!) over p <= r + sum_{q=1..Q} pi(n // q) - Q pi(r),
with all the pi values from one vectorized PrimeTable.count, and the
odd-exponent primes above r are the primes in those value runs for odd q.
The walker's anchor and scattered points (factorial_points) both use it,
and yield the same Columns, bit for bit.  The odd-exponent primes at one n
also come as ascending blocks of at most one value block
(odd_exponent_blocks), which perfecter.perfecter_factorial reduces one by
one, so the single-point perfecter holds no array of them.  pi(n) itself
is carried along a walk: Omega(m) == 1 exactly when m is prime.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, FactprimesError, OutOfRangeError, checked
from .primes import (PrimeTable, limb_prefix, log_scaled, log_totals, log_value,
                     nth_prime, pi, prime_blocks)
from .special_functions import lambert_w
from .valuation import _legendre_exponents, valuation_vector

if TYPE_CHECKING:
    from fractions import Fraction

# Below e^e the double logarithm is < 1 and the asymptotic location
# formulas are meaningless; they are populated from this point on.
ASYMPTOTIC_MIN_N = 16


class UpsilonResult(NamedTuple):
    """Exact exponent sum of n! plus its mean.

    mean_exact * pi_n == upsilon holds exactly; mean is the float rendering.
    """

    n: int
    upsilon: int
    pi_n: int
    mean_exact: Fraction
    mean: float


class MeanLocation(NamedTuple):
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
    """Exact exponent sum of n! (fast path, no result object), at O(sqrt n)
    cost.

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    return _anchor(table, checked("n", n, 2, table=table))[0]


def upsilon(table: PrimeTable, n: int) -> UpsilonResult:
    """Exponent sum, prime count and exact mean.

    Raises:
        DomainError: n not an integer, or n < 2.
        OutOfRangeError: n beyond the table limit.
    """
    from fractions import Fraction
    n = checked("n", n, 2, table=table)
    ups = upsilon_value(table, n)
    pi_n = pi(table, n)
    mean_exact = Fraction(ups, pi_n)
    return UpsilonResult(n=n, upsilon=ups, pi_n=pi_n, mean_exact=mean_exact,
                         mean=float(mean_exact))


# Points per step of the factor pass's cofactor step, whose temporaries take
# about 60 bytes a point.
_COFACTOR_BLOCK = 1 << 14


def _factor_pass(table: PrimeTable, lo: int, hi: int, root: int,
                 odd: np.ndarray | None = None, scaled: np.ndarray | None = None):
    """Omega(m), as int8, for every m in [lo, hi], by strided slices over
    the primes p <= root (root >= isqrt(hi)); whatever is left of m after
    dividing those out is 1 or one prime q > root, with exponent 1.

    With odd (the parities of v_p((lo-1)!) for the primes <= root, updated
    in place to those of hi!) and scaled (their log p * 2^53, see
    primes.log_scaled), also returns the signed change of the odd-exponent
    set's scaled log-sum from m-1 to m, exact in int64 (m has at most 15
    distinct prime factors, each below 2^58): the parity of v_p(m!) flips
    exactly for the primes dividing m to an odd power, and for q > root,
    v_q(m!) = m // q.
    """
    size = hi - lo + 1
    # narrow dtypes keep the strided passes in cache: Omega(m) <= 62 for
    # any int64 m, and the remainders fit int32 below 2^31
    counts = np.zeros(size, dtype=np.int8)
    rem = np.arange(lo, hi + 1, dtype=np.int32 if hi < 1 << 31 else np.int64)
    if odd is not None:
        deltas = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(table.primes_up_to(root).tolist()):
        start = -lo % p
        if start >= size:
            continue
        counts[start::p] += 1
        rem[start::p] //= p
        # e[j] = v_p(m) for the j-th multiple m of p in the window
        e = None if odd is None else np.ones((size - 1 - start) // p + 1, dtype=np.int64)
        pk = p * p
        while pk <= hi:
            off = -lo % pk
            if off < size:
                counts[off::pk] += 1
                rem[off::pk] //= p
                if e is not None:
                    e[(off - start) // p::pk // p] += 1
            pk *= p
        if e is not None:
            state = np.cumsum(e)
            state += odd[i]
            state &= 1
            odd[i] = state[-1]
            # in place, so a pass over p = 2 holds two arrays of half the
            # window: the sign, +1 joins the set and -1 leaves it, then its
            # product with the scaled log in e
            state *= 2
            state -= 1
            e &= 1
            state *= e
            np.multiply(state, scaled[i], out=e)
            deltas[start::p] += e
    left = rem > 1
    counts += left
    if odd is None:
        return counts, None
    for a in range(0, size, _COFACTOR_BLOCK):
        big = np.flatnonzero(left[a:a + _COFACTOR_BLOCK]) + a
        q = rem[big]
        sign = 2 * ((big + lo) // q & 1) - 1
        deltas[big] += sign * log_scaled(np.log(q.astype(np.float64)))
    return counts, deltas


def omega_window(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """Omega(m) (prime factors with multiplicity) for every m in [lo, hi].

    Segmented: strided slices add one for each prime power p^k dividing m
    for p up to sqrt(hi); whatever remains after dividing those out is at
    most one large prime factor.

    Raises:
        DomainError: lo or hi not an integer, lo < 2 or lo > hi.
        OutOfRangeError: the table cannot certify primes up to sqrt(hi).
    """
    lo, hi = checked("lo", lo, 2), checked("hi", hi, lo)
    root = checked("isqrt(hi)", math.isqrt(hi), table=table)
    return _factor_pass(table, lo, hi, root)[0].astype(np.int64)


class Columns(NamedTuple):
    """Exact left-hand sides at ascending n: the exponent sum of n! and,
    when asked for, the log of its minimal square perfecter, pi(n) (int32,
    as PrimeTable.rank) and theta(n)."""

    n: np.ndarray
    upsilon: np.ndarray
    log_perfecter: np.ndarray | None
    pi: np.ndarray | None = None
    theta: np.ndarray | None = None


def factorial_windows(table: PrimeTable, n_from: int, n_to: int, window: int,
                      *, perfecter: bool = False, count: bool = False,
                      piece: int | None = None) -> Iterator[Columns]:
    """Columns for every n in [n_from, n_to], in pieces of at most piece
    points (default window) of windows of window points.

    Anchored once at n_from - 1 by the O(sqrt n) evaluation; from there
    upsilon(n) = upsilon(n-1) + Omega(n), and the odd-exponent set of n!
    changes from that of (n-1)! in the primes dividing n to an odd power.
    Both come from one strided factor pass per window, and the running sums
    are carried over it piece by piece, so no column is built window-long.
    With perfecter the log-sum over the odd-exponent set is carried as an
    exact total (see primes.log_scaled), so every value is math.fsum over
    the same logs, bit for bit.  With count, pi(n) is carried too: it grows
    by one where Omega(n) == 1.  The arguments are checked when this is
    called.

    Raises:
        DomainError: an argument not an integer, n_from < 2, an empty
            range, or window or piece < 1.
        OutOfRangeError: n_to beyond the table limit.
    """
    n_from = checked("n_from", n_from, 2)
    n_to = checked("n_to", n_to, n_from, table=table)
    window = checked("window", window, 1)
    piece = window if piece is None else checked("piece", piece, 1)
    return _walk(table, n_from, n_to, window, piece, perfecter, count)


# Above isqrt(n), the primes with n // p = q are the value run
# (n // (q + 1), n // q], of about n / q^2 values.  Runs of at least
# _RUN_SPAN values (two log-directory steps) are summed through
# PrimeTable.log_totals_in; below them, primes are read one by one with
# their n // p.
_RUN_SPAN = 1 << 14


def _anchor(table: PrimeTable, n: int, perfecter: bool = False):
    """The O(sqrt n) evaluation at 1 <= n <= table.limit (see the module
    docstring): upsilon(n), the exponent parities of the primes p <= isqrt(n),
    pi(n) and, with perfecter, the total of the scaled logs of the primes
    with an odd exponent in n!; the runs of those come from
    PrimeTable.log_totals_in, so no array of them is held."""
    r = math.isqrt(n)
    small = table.primes_up_to(r)
    v = _legendre_exponents(small, n)
    q_max = n // (r + 1)
    pis = table.count(n // np.arange(1, q_max + 1))
    ups = int(v.sum()) + int(pis.sum()) - q_max * len(small)
    parity = v & 1
    pi_n = int(pis[0]) if q_max else 0
    total = None
    if perfecter:
        total = (sum(map(log_totals, _odd_exponent_blocks(table, n, small, parity)))
                 + sum(table.log_totals_in(lo, hi) for lo, hi in _odd_runs(n)[1]))
    return ups, parity, pi_n, total


def _odd_runs(n: int) -> tuple[int, list[tuple[int, int]]]:
    """The cut c >= r = isqrt(n) such that the primes in (c, n] have
    n // p <= q0 = isqrt(n // _RUN_SPAN), and the ascending value runs
    (lo, hi] above c whose primes have n // p odd."""
    r = math.isqrt(n)
    q0 = math.isqrt(n // _RUN_SPAN)
    cut = max(r, n // (q0 + 1))
    return cut, [(max(cut, n // (q + 1)), n // q)
                 for q in range(q0 - 1 + q0 % 2, 0, -2)]  # odd q, descending


def _odd_exponent_blocks(table: PrimeTable, n: int, small: np.ndarray,
                         parity: np.ndarray) -> Iterator[np.ndarray]:
    """The primes up to the cut of _odd_runs with an odd exponent in n!,
    ascending, in blocks: those up to isqrt(n) (small, with the exponent
    parities parity), then those above with n // p odd."""
    yield small[parity == 1]
    for ps in prime_blocks(table, math.isqrt(n), _odd_runs(n)[0]):
        yield ps[(n // ps) & 1 == 1]


def odd_exponent_blocks(table: PrimeTable, n: int) -> Iterator[np.ndarray]:
    """The primes with an odd exponent in n!, for 1 <= n <= table.limit,
    ascending, in blocks that each span at most one value block of
    prime_blocks: first those up to r = isqrt(n), by their exponent
    parities, then those above with n // p odd up to the cut of _odd_runs,
    then the primes of its value runs (max(r, n // (q + 1)), n // q] for
    odd q.  A caller that reduces the blocks one by one never holds the
    whole set."""
    small = table.primes_up_to(math.isqrt(n))
    yield from _odd_exponent_blocks(table, n, small, _legendre_exponents(small, n) & 1)
    for lo, hi in _odd_runs(n)[1]:
        yield from prime_blocks(table, lo, hi)


def odd_exponent_primes(table: PrimeTable, n: int) -> np.ndarray:
    """The ascending int64 array of the primes with an odd exponent in n!,
    for 1 <= n <= table.limit: the blocks of odd_exponent_blocks, filled
    into an array of its exact size, which pi counts for the runs above
    r = isqrt(n)."""
    n = checked("n", n, 1, table=table)
    blocks = odd_exponent_blocks(table, n)
    first = next(blocks)  # the primes up to r
    r = math.isqrt(n)
    qs = np.arange(1, n // (r + 1) + 1, 2)
    size = len(first) + int(
        (table.count(n // qs) - table.count(np.maximum(n // (qs + 1), r))).sum())
    odd = np.empty(size, dtype=np.int64)
    k = 0
    for ps in itertools.chain([first], blocks):
        odd[k:k + len(ps)] = ps
        k += len(ps)
    return odd


def factorial_points(table: PrimeTable, ns: np.ndarray, *,
                     perfecter: bool = False, count: bool = False) -> Columns:
    """Columns at the ascending int64 points ns (2 <= n <= table.limit),
    each point from its own O(sqrt n) evaluation (see _anchor), for points
    too far apart to walk.  The values equal factorial_windows' bit for
    bit."""
    if len(ns) and ns[0] < 2:
        raise DomainError(f"points must be >= 2, got {ns[0]}")
    if len(ns) and ns[-1] > table.limit:
        raise OutOfRangeError(f"n={ns[-1]} exceeds table limit {table.limit}")
    ups = np.empty(len(ns), dtype=np.int64)
    logs = np.empty(len(ns)) if perfecter else None
    pis = np.empty(len(ns), dtype=np.int32) if count else None
    for i, n in enumerate(ns.tolist()):
        ups[i], _, pi_n, total = _anchor(table, n, perfecter)
        if perfecter:
            logs[i] = log_value(total)
        if count:
            pis[i] = pi_n
    return Columns(ns, ups, logs, pis)


def _walk(table, n_from, n_to, window, piece, perfecter, count):
    root = math.isqrt(n_to)
    ups_run, parity, pi_run, total = _anchor(table, n_from - 1, perfecter)
    odd = scaled = None
    if perfecter:
        small = table.primes_up_to(root)
        # above isqrt(n_from - 1) the exponent in (n_from - 1)! is (n_from - 1) // p
        odd = ((n_from - 1) // small) & 1
        odd[:len(parity)] = parity
        scaled = log_scaled(np.log(small.astype(np.float64)))
    for lo in range(n_from, n_to + 1, window):
        hi = min(lo + window - 1, n_to)
        omega, deltas = _factor_pass(table, lo, hi, root, odd, scaled)
        for a in range(0, hi - lo + 1, piece):
            b = min(a + piece, hi - lo + 1)
            ups = np.cumsum(omega[a:b], dtype=np.int64)
            ups += ups_run
            ups_run = int(ups[-1])
            logs = pis = None
            if perfecter:
                logs, total = limb_prefix(deltas[a:b], total)
            if count:
                pis = np.cumsum(omega[a:b] == 1, dtype=np.int32)
                pis += pi_run
                pi_run = int(pis[-1])
            yield Columns(np.arange(lo + a, lo + b, dtype=np.int64), ups, logs, pis)
        del omega, deltas  # not held while the next window is walked


def upsilon_range(table: PrimeTable, n_from: int, n_to: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, upsilon(n), pi(n)) arrays for every n in [n_from, n_to].

    One factorial_windows window over the whole range (a window of n_to
    points spans it); all exact int64.

    Raises:
        DomainError: n_from or n_to not an integer, n_from < 2 or an empty
            range.
        OutOfRangeError: n_to beyond the table limit.
    """
    (cols,) = factorial_windows(table, n_from, n_to, n_to, count=True)
    return cols.n, cols.upsilon, cols.pi.astype(np.int64)


def mean_location(table: PrimeTable, n: int) -> MeanLocation:
    """Exact argmin prime of |v_p(n!) - mean| plus the asymptotic guesses.

    Ties break to the smallest prime.  The deviation comparison is done on
    the integers |v_p * pi(n) - upsilon(n)|, so no rounding is involved.
    The scan also guards the monotonicity (v nonincreasing in p) that a
    binary-search variant would rely on.

    Raises:
        DomainError: n not an integer, or n < 3.
        OutOfRangeError: n beyond the table limit.
        FactprimesError: the exponents are not nonincreasing in p.
    """
    n = checked("n", n, 3, table=table)
    v = valuation_vector(table, n)
    if np.any(np.diff(v) > 0):
        raise FactprimesError(f"exponent sequence of {n}! is not nonincreasing")
    ups = int(v.sum())
    pi_n = len(v)
    dev = np.abs(v * pi_n - ups)
    k_star = int(np.argmin(dev))  # argmin returns the first, i.e. smallest p
    p_star = nth_prime(table, k_star + 1)
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
        DomainError: n not an integer, or n < 16.
    """
    n = checked("n", n, ASYMPTOTIC_MIN_N)
    big_l = math.log(n) * math.log(math.log(n))
    return n / (big_l * lambert_w(n / big_l))


def mean_vs_Lth_prime(table: PrimeTable, n: int) -> float:
    """Ratio of the mean exponent of n! to the floor(log n)-th prime.

    Convergence of this ratio is slow; it is reported, never asserted.

    Raises:
        DomainError: n not an integer, or floor(log n) < 1, i.e. n < 3.
        OutOfRangeError: n beyond the table limit.
    """
    n = checked("n", n, 3, table=table)
    res = upsilon(table, n)
    return res.mean / nth_prime(table, int(math.log(n)))
