"""Prime sieve table and the elementary counting functions built on it.

A :class:`PrimeTable` is built once by :func:`build_table` and is immutable
afterwards, so it can be shared freely across threads and workers.  It holds
the primes as an odd-only bit set with a rank directory: ``pi`` is one rank
read and one popcount, ``nth_prime`` a search of the ranks, and a range of
primes is unpacked from its own words only (``PrimeTable.primes_in``); no
primality testing happens after construction.  The explicit
theta and pi bounds are records of the bound registry (``bounds.BOUNDS``);
``check_dusart_theta`` and ``check_dusart_pi`` return its reports.

Sums of prime logarithms are exact: every theta value is the correctly
rounded sum of its ``log p`` terms, as ``math.fsum`` would return it.  A
sum is carried as one Python int, the total of its scaled logs (see
:func:`log_scaled`), and :func:`log_value` rounds it once.  ``theta`` reads
the table's small log directory, filled on demand, and :func:`theta_from`
carries the total along runs of points, so the theta bounds' sweeps hold no
array over all primes.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import OutOfRangeError, ResourceLimitError, checked
from .report import BoundReport, Record

# Default cap on the sieve limit (build_table's limit_cap).  The table
# takes 3/32 of a byte a number, about 19 MB at 2e8; the first use of
# primes or log_prefix, which no query reads, adds 8 bytes a prime each
# (11.1e6 primes at 2e8).
DEFAULT_LIMIT_CAP = 200_000_000


def kahan_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float array.

    No code of the package calls it; it stays for the benchmark's tracer,
    which wraps it by name.  It is math.fsum, not a compensated loop, since
    a pure-Python Kahan sum is a slower and less accurate copy of it.
    """
    return math.fsum(values.tolist())


# Exact sums of prime logarithms.  Every float64 log p with p >= 2 lies in
# [2^-1, 2^5), so it is an integer multiple of 2^-53 and k = log p * 2^53 is
# an exact integer below 2^58.  A sum of them is carried as one Python int,
# the total of its k, and rounded once (log_value), which gives math.fsum's
# result bit for bit.  numpy sums them in two int64 limbs, k = a * 2^32 + b
# with a < 2^26 and 0 <= b < 2^32, which no run of fewer than 2^31 terms
# overflows.  The one bound left is limb_prefix's float step: it is exact
# while start >> 32 stays below 2^53, that is, for totals below 2^85 (theta
# near 1e9 is about 2^83).
_LOG_SCALE = 53
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_PREFIX_BLOCK = 1 << 16


def log_scaled(logs: np.ndarray) -> np.ndarray:
    """logs * 2^53, exact in int64, for float64 logs of integers >= 2."""
    return np.ldexp(logs, _LOG_SCALE).astype(np.int64)


def _joined(high, low) -> int:
    # the Python int of a pair of limbs, high * 2^32 + low
    return (int(high) << _LIMB_BITS) + int(low)


def limb_prefix(scaled: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
    """Correctly rounded prefix sums of a run of int64 scaled logs (of
    log_scaled, or signed sums of them), added to the total start, and the
    new total to continue from."""
    high = np.cumsum(scaled >> _LIMB_BITS)
    high += start >> _LIMB_BITS
    low = np.cumsum(scaled & _LIMB_MASK)
    low += start & _LIMB_MASK
    high += low >> _LIMB_BITS
    low &= _LIMB_MASK
    exact = high * float(1 << _LIMB_BITS) + low  # exact, then one rounding
    return np.ldexp(exact, -_LOG_SCALE), _joined(high[-1], low[-1])


def log_value(total: int) -> float:
    """The correctly rounded value of a total of scaled logs, as
    limb_prefix rounds its prefixes."""
    return math.ldexp(float(total), -_LOG_SCALE)


def log_totals(values: np.ndarray) -> int:
    """The total of the scaled logs of the integers values >= 2, which
    log_value rounds to math.fsum of those logs; block by block, so the
    temporaries do not grow with len(values)."""
    total = 0
    for i in range(0, len(values), _PREFIX_BLOCK):
        k = log_scaled(np.log(values[i:i + _PREFIX_BLOCK].astype(np.float64)))
        total += _joined((k >> _LIMB_BITS).sum(), (k & _LIMB_MASK).sum())
    return total


def _kahan_prefix(table: PrimeTable) -> np.ndarray:
    """Prefix sums of the logarithms of the table's primes, each one
    correctly rounded: theta at every prime, so ``out[i]`` equals
    ``math.fsum(log(primes[:i + 1]))``."""
    return theta_from(table, table.primes_in(0, table.limit), 0, 0)[0]


# Odd numbers per sieve segment, and per unpacked block of primes_in: a
# multiple of 64, so segments fill whole words.
_SEGMENT = 1 << 18
_WORD_BITS = 64


class PrimeTable(Record):
    """The primes up to ``limit`` as an odd-only bit set with a rank
    directory.

    Bit j of ``bits`` (little-endian uint64 words) is set iff 2j + 1 is
    prime.  ``rank[w]`` is the number of primes below 128 w + 1, the prime
    2 included, so pi(x) is one rank read plus one popcount (``count``).
    Together they take about limit/16 + limit/32 bytes.  ``primes_in``
    lists the primes in a value range by unpacking only its words.

    ``primes`` (every prime, int64) and ``log_prefix`` (``log_prefix[i]``
    equals ``sum(log(primes[j]) for j <= i)``, correctly rounded) are
    computed on first use, for callers that need all of them; the
    package's own queries read neither.  Two threads that read a cached
    array first at the same time may both compute it, with the same result.
    ``log_totals_in`` sums the logs of a value range while unpacking only
    its two ends, through a directory of the exact totals at every
    _LOG_STEP values (about limit/512 bytes), filled on demand up to the
    largest value asked for.  The table keeps a ``__dict__`` for these
    caches; its fields are read-only.
    """

    _fields = ("limit", "bits", "rank")

    def __init__(self, limit: int, bits: np.ndarray, rank: np.ndarray) -> None:
        bits.setflags(write=False)
        rank.setflags(write=False)
        size = limit // _LOG_STEP + 1
        super().__init__(limit=limit, bits=bits, rank=rank,
                         _log_directory=(np.zeros(size, np.int64), np.zeros(size, np.int64)),
                         _log_done=(0, 0))

    @functools.cached_property
    def primes(self) -> np.ndarray:
        primes = self.primes_in(0, self.limit)
        primes.setflags(write=False)
        return primes

    @functools.cached_property
    def log_prefix(self) -> np.ndarray:
        prefix = _kahan_prefix(self)
        prefix.setflags(write=False)
        return prefix

    def _log_entry(self, k: int) -> int:
        # Entry k of the log directory: the total of the scaled logs of the
        # primes <= k * _LOG_STEP, kept as high and low int64 limbs.  Entries
        # are filled a value block at a time, up to the largest asked for;
        # _log_done holds the values done and the running total there, one
        # tuple replaced whole, so threads that fill at once write the same
        # entries and read consistent totals.
        high, low = self._log_directory
        done, running = self._log_done
        while done < k * _LOG_STEP:
            hi = min(done + _VALUE_BLOCK, self.limit)
            ps = self.primes_in(done, hi)
            marks = np.arange(done + _LOG_STEP, hi + 1, _LOG_STEP)
            at = np.searchsorted(ps, marks, side="right")
            scaled = log_scaled(np.log(ps.astype(np.float64)))
            sums = [np.cumsum(np.concatenate(([first], part))) for first, part in (
                (running >> _LIMB_BITS, scaled >> _LIMB_BITS),
                (running & _LIMB_MASK, scaled & _LIMB_MASK))]
            high[marks // _LOG_STEP], low[marks // _LOG_STEP] = sums[0][at], sums[1][at]
            running = _joined(sums[0][-1], sums[1][-1])
            done = hi
            vars(self)["_log_done"] = (done, running)
        return _joined(high[k], low[k])

    def log_totals_in(self, lo: int, hi: int) -> int:
        """The total of the scaled logs of the primes p with lo < p <= hi
        (0 <= lo <= hi <= limit), which log_value rounds to math.fsum of
        their logs: two directory reads, and the primes of at most
        _LOG_STEP values unpacked at each end."""
        upper, lower = (self._log_entry(x // _LOG_STEP)
                        + log_totals(self.primes_in(x - x % _LOG_STEP, x))
                        for x in (hi, lo))
        return upper - lower

    def __len__(self) -> int:
        return self._pi(self.limit)

    def _pi(self, x: int) -> int:
        # pi(x) for one int 0 <= x <= limit, in Python ints
        if x < 2:
            return 0
        j = (x - 1) >> 1
        word = int(self.bits[j >> 6]) & ((2 << (j & 63)) - 1)
        return int(self.rank[j >> 6]) + word.bit_count()

    def count(self, x: np.ndarray) -> np.ndarray:
        """pi(x), elementwise, for a 1-D int or float array of
        0 <= x <= limit; a real x counts the primes up to floor(x)."""
        j = (np.floor(x) if x.dtype.kind == "f" else x).astype(np.int64)
        j -= 1
        j >>= 1
        np.maximum(j, 0, out=j)  # x < 2 is set to 0 below
        w = j >> 6
        j &= 63
        j ^= 63  # shifting a word left by 63 - (j & 63) keeps bits 0 .. j & 63
        below = self.bits[w]
        below <<= j.view(np.uint64)
        pis = self.rank[w].astype(np.int64)
        pis += np.bitwise_count(below)
        pis *= x >= 2
        return pis

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """The primes p with lo < p <= hi (clipped to [0, limit]), ascending,
        as a new int64 array of their exact count.  Only the words of
        (lo, hi] are unpacked, _SEGMENT bits at a time."""
        lo, hi = max(int(lo), 0), min(int(hi), self.limit)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        out = np.empty(self._pi(hi) - self._pi(lo), dtype=np.int64)
        k = 0
        if lo < 2 <= hi:
            out[0] = 2
            k = 1
        j_hi = (hi + 1) // 2  # the odd 2j + 1 in (lo, hi] have (lo + 1) // 2 <= j < j_hi
        for a in range((lo + 1) // 2, j_hi, _SEGMENT):
            b = min(a + _SEGMENT, j_hi)
            w = a // _WORD_BITS
            flags = np.unpackbits(self.bits[w:-(-b // _WORD_BITS)].view(np.uint8),
                                  bitorder="little").view(bool)  # nonzero is faster on bool
            idx = np.flatnonzero(flags[a - w * _WORD_BITS:b - w * _WORD_BITS])
            idx += a
            idx *= 2
            idx += 1
            out[k:k + len(idx)] = idx
            k += len(idx)
        return out

    def primes_up_to(self, n: float) -> np.ndarray:
        """All table primes <= n, as a new int64 array."""
        return self.primes_in(0, math.floor(n))


# Values per block of prime_blocks: at most 23000 primes (pi(2^18) = 23000),
# so a block's log limbs and their sums stay below a megabyte.
_VALUE_BLOCK = 1 << 18
# Values per entry of PrimeTable.log_directory: 64 words of bits.
_LOG_STEP = 2 * _WORD_BITS * 64


def prime_blocks(table: PrimeTable, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes in (lo, hi], ascending, in blocks of primes_in over
    _VALUE_BLOCK values, so that a long range is never held at once."""
    for a in range(lo, hi, _VALUE_BLOCK):
        yield table.primes_in(a, min(a + _VALUE_BLOCK, hi))


# The wheel of build_table: whether bit j of an odd-only sieve (the odd
# 2j + 1) is a multiple of a wheel prime depends on j modulo their product
# only, so every segment starts as a copy of one pattern.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)  # 15015 bits


def build_table(limit: int, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> PrimeTable:
    """Sieve all primes up to ``limit`` (inclusive) and build the table.

    A segmented odds-only sieve of Eratosthenes (after Bays & Hudson, BIT
    17, 1977) with a wheel pre-sieve (after Pritchard, CACM 24, 1981): each
    segment of _SEGMENT odd numbers starts as the _WHEEL-periodic pattern of
    the numbers prime to 3 .. 13, copied in doubling runs, is sieved as
    bytes by the primes from 17 up to isqrt(limit), packed into bits and
    counted into the rank directory, so the peak is the table itself plus
    one segment.

    Raises:
        DomainError: limit not an integer, or limit < 2.
        ResourceLimitError: limit exceeds ``limit_cap``.
    """
    limit = checked("sieve limit", limit, 2)
    if limit > checked("limit_cap", limit_cap):
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the configured cap {limit_cap}")

    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    base = np.flatnonzero(small)[1 + len(_WHEEL_PRIMES):]  # the primes in (13, root]
    firsts = (base * base - 1) // 2  # the bit of p^2, where crossing off starts
    halves = (base - 1) // 2  # p's odd multiples are the bits j = halves mod p
    pattern = np.ones(2 * _WHEEL, dtype=bool)  # two periods: any phase is one slice
    for p in _WHEEL_PRIMES:
        pattern[(p - 1) // 2::p] = False

    n_bits = (limit + 1) // 2  # bit j stands for 2j + 1 <= limit
    n_words = -(-n_bits // _WORD_BITS)
    bits = np.empty(n_words, dtype=np.uint64)
    rank = np.empty(n_words, dtype=np.int32)
    segment = np.empty(min(_SEGMENT, n_words * _WORD_BITS), dtype=bool)
    running = 1  # the prime 2
    for a in range(0, n_bits, _SEGMENT):
        size = min(_SEGMENT, n_bits - a)
        done = min(_WHEEL, size)
        segment[:done] = pattern[a % _WHEEL:a % _WHEEL + done]
        while done < size:  # done stays a multiple of the period until the last copy
            more = min(done, size - done)
            segment[done:done + more] = segment[:more]
            done += more
        segment[size:] = False
        if a == 0:
            segment[0] = False  # 1 is not prime
            segment[[(p - 1) // 2 for p in _WHEEL_PRIMES if p <= limit]] = True
        k = int(np.searchsorted(firsts, a + size))  # the primes with p^2 in reach
        starts = np.maximum(firsts[:k], a + (halves[:k] - a) % base[:k]) - a
        for p, s in zip(base[:k].tolist(), starts.tolist()):
            segment[s:size:p] = False
        words = np.packbits(segment[:-(-size // _WORD_BITS) * _WORD_BITS],
                            bitorder="little").view(np.uint64)
        w = a // _WORD_BITS
        bits[w:w + len(words)] = words
        counts = np.bitwise_count(words)
        rank[w] = running
        np.cumsum(counts[:-1], dtype=np.int32, out=rank[w + 1:w + len(words)])
        rank[w + 1:w + len(words)] += running
        running += int(counts.sum(dtype=np.int64))
    return PrimeTable(limit=limit, bits=bits, rank=rank)


def pi(table: PrimeTable, n: int) -> int:
    """Number of primes <= n, for real n.

    Raises:
        DomainError: n not a finite number, or n < 0.
        OutOfRangeError: n beyond the table limit.
    """
    return table._pi(math.floor(checked("n", n, 0, table=table, real=True)))


def theta(table: PrimeTable, x: float) -> float:
    """Chebyshev theta: sum of log p over primes p <= x, correctly rounded
    (PrimeTable.log_totals_in).

    Returns 0.0 for x < 2.  Accepts real x; only the integer part matters.

    Raises:
        DomainError: x not a finite number, or x < 0.
        OutOfRangeError: x beyond the table limit.
    """
    x = checked("x", x, 0, table=table, real=True)
    return log_value(table.log_totals_in(0, math.floor(x)))


def theta_from(table: PrimeTable, ns: np.ndarray, done: int, total: int
               ) -> tuple[np.ndarray, int]:
    """theta at the ascending integer points ns, all in (done, table.limit],
    from the total of the scaled logs of the primes up to done; returned
    with the total of those up to ns[-1].  The primes in between are
    unpacked _VALUE_BLOCK values at a time, and each point takes the
    correctly rounded total of those at or below it, as theta gives it."""
    out = np.empty(len(ns))
    last = int(ns[-1])
    for a in range(done, last, _VALUE_BLOCK):
        b = min(a + _VALUE_BLOCK, last)
        i, j = np.searchsorted(ns, (a, b), side="right")  # the points in (a, b]
        ps = table.primes_in(a, b)
        if len(ps):
            prefix, after = limb_prefix(log_scaled(np.log(ps.astype(np.float64))), total)
            # each prime counts from the first point at or above it on
            cuts = np.concatenate(([0], np.searchsorted(ns[i:j], ps), [j - i]))
            out[i:j] = np.repeat(np.concatenate(([log_value(total)], prefix)), np.diff(cuts))
            total = after
        else:
            out[i:j] = log_value(total)
    return out, total


def nth_prime(table: PrimeTable, k: int) -> int:
    """The k-th prime, 1-indexed (nth_prime(1) == 2).

    Raises:
        DomainError: k not an integer, or k < 1.
        OutOfRangeError: the table holds fewer than k primes.
    """
    k = checked("prime index", k, 1)
    if k > len(table):
        raise OutOfRangeError(
            f"table up to {table.limit} holds only {len(table)} primes")
    if k == 1:
        return 2
    # the word holding the k-th prime, then its bit among the word's set bits
    w = int(np.searchsorted(table.rank, k, side="left")) - 1
    flags = np.unpackbits(table.bits[w:w + 1].view(np.uint8), bitorder="little")
    j = w * _WORD_BITS + int(np.flatnonzero(flags)[k - int(table.rank[w]) - 1])
    return 2 * j + 1


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
