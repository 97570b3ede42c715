"""Independent correctness oracle for the factprimes benchmark.

Nothing here imports factprimes.  Primes come from a plain numpy sieve whose
count is checked against ``sympy.primepi``.  Exponents of n! are Legendre
sums: numpy int64 in bulk, plain Python ints at spot points.  Omega(n) at
spot points comes from ``sympy.factorint``.  Right-hand sides are evaluated
in float64 over whole ranges and in mpmath at spot points, with the
constants recomputed by ``mpmath.quad`` and ``mpmath.expint`` from their
defining expressions and checked against the paper's 10-digit table.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import sympy

# First n at which each bound is claimed.
VALIDITY = {
    "T1_upper_upsilon": 2,
    "T2_upper_mean": 3,
    "C3_upper_mean": 12_602_987,
    "T4_lower_upsilon": 3,
    "T5_lower_mean": 2,
    "TB2": 2,
    "S32_perfecter": 4,
}
ALIASES = {"T1": "T1_upper_upsilon", "T2": "T2_upper_mean", "C3": "C3_upper_mean",
           "T4": "T4_lower_upsilon", "T5": "T5_lower_mean", "S32": "S32_perfecter"}
UPPER = {"T1_upper_upsilon", "T2_upper_mean", "C3_upper_mean", "TB2"}
MEAN_LHS = {"T2_upper_mean", "C3_upper_mean", "T5_lower_mean"}

# Exponent sums at spot points above this use the numpy path, not plain ints.
PLAIN_INT_MAX = 2_000_000

# The paper's 10-digit values of the constants the right-hand sides use.
_TABULATED = {"c4": 21.18095291, "c8": -11.86870152, "c10": 30.52238614}


@functools.cache
def constants() -> dict[str, mpmath.mpf]:
    """c4, c8, c10 from their defining expressions, at 40 digits."""
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        lg2 = mpmath.log(2)
        c1 = (-5937 * lg2**2 + 3965 * lg2 + 1586) / (600 * lg2**3)
        c5 = (8337 * lg2**2 - 3965 * lg2 - 1586) / (600 * lg2**3)
        c2 = mpmath.quad(lambda x: (1200 * x**3 + 365 * x**2 + 9944 * x - 1993)
                         / (1200 * (x - 1)**4 * mpmath.log(x)), [2, mpmath.e + 1])
        c6 = mpmath.quad(lambda x: (1200 * x**3 - 7565 * x**2 - 2744 * x - 407)
                         / (1200 * (x - 1)**4 * mpmath.log(x)), [2, mpmath.e])
        e1, e2, e3 = (mpmath.expint(1, z) for z in (1, 2, 3))
        c3 = (mpf(793) / 240 * e1 + mpf(2379) / 200 * e2 + mpf(793) / 100 * e3 + c2)
        c7 = c6 - (mpf(1513) / 240 * e1 + mpf(343) / 150 * e2 + mpf(407) / 1200 * e3)
        n, lg = mpf(29), mpmath.log(29)
        e3_min = -(n * (1200 * n**2 * lg**2 - 2379 * n**2 * lg - 1586 * n**2
                        + 1565 * n * lg**2 + 3172 * n * lg + 3172 * n
                        + 407 * lg**2 - 793 * lg - 1586)) / (1200 * (n - 1)**3 * lg**3)
        n, lg = mpf(2), lg2
        r2 = (-3193 * n / (2400 * lg) - 3193 * n / (2400 * lg**2)
              - 793 * n / (1200 * lg**3) - 793 * n / (400 * lg**4))
        out = {"c4": c1 + c3, "c8": c5 + c7 + e3_min, "c10": -r2}
    for name, value in out.items():
        if abs(float(value) - _TABULATED[name]) > 1e-8:
            raise RuntimeError(f"oracle constant {name}={value} disagrees with the table")
    return out


def rhs(tid: str, n, log, c: dict):
    """Right-hand side of bound ``tid`` at n (float64 arrays or mpmath)."""
    lg = log(n)
    if tid == "T1_upper_upsilon":
        return ((n - 1) * log(log(n - 1)) + c["c4"] * (n - 1)
                + n / lg + 1717433 * n / lg**5)
    if tid == "T2_upper_mean":
        b = 1 + lg
        return (lg / b * lg * log(log(n - 1)) + c["c4"] * lg * lg / b
                + lg / b + 1717433 / (b * lg**3))
    if tid == "C3_upper_mean":
        return lg * log(lg) + 380537 * lg / 17966 + 1
    if tid == "T4_lower_upsilon":
        return ((n - 1) * log(lg) + c["c8"] * (n - 1) - n / lg
                - 16381 * n / (5000 * lg**2) - 6 * n / lg**3
                - 54281 * n / (800 * lg**4) - c["c10"] * lg)
    if tid == "T5_lower_mean":
        k = 5000 * lg / (6381 + 5000 * lg)
        return ((n - 1) * k / n * lg * log(lg) + c["c8"] * (n - 1) * k * lg / n
                - 16381 * k / (5000 * lg) - 6 * k / lg**2
                - 54281 * k / (800 * lg**3) - c["c10"] * k * lg * lg / n)
    if tid == "TB2":
        return 793 * n / (200 * lg * lg)
    raise KeyError(tid)


def s32_exponents(n, log):
    """Lower and upper exponents of the two-sided perfecter bound."""
    lg = log(n)
    lower = n / 2 - 793 * n / 200 * (1 / lg + 1 / (2 * log(n / 2)))
    upper = n + 793 * n / (200 * lg)
    return lower, upper


def legendre(n: int, p: int) -> int:
    """v_p(n!) as the plain-int sum of n // p^k."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


class Oracle:
    """Primes up to ``limit`` and exact exponent statistics of n! from them."""

    def __init__(self, limit: int):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        flags[4::2] = False
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[p]:
                flags[p * p::2 * p] = False
        self.primes = np.flatnonzero(flags).astype(np.int64)
        if len(self.primes) != int(sympy.primepi(limit)):
            raise RuntimeError(f"oracle sieve disagrees with sympy.primepi({limit})")
        self._logs = np.log(self.primes.astype(np.float64))
        self._cfloat = {k: float(v) for k, v in constants().items()}

    # ------------------------------------------------------------ exact parts
    def pi(self, n) -> np.ndarray:
        return np.searchsorted(self.primes, n, side="right")

    def valuations(self, n: int) -> np.ndarray:
        """v_p(n!) for every prime p <= n (numpy int64 Legendre sums)."""
        ps = self.primes[:int(self.pi(n))]
        v = np.zeros(len(ps), dtype=np.int64)
        pk = ps.copy()
        live = len(ps)
        while live:
            v[:live] += n // pk[:live]
            live = int(np.count_nonzero(pk[:live] <= n // ps[:live]))
            pk[:live] *= ps[:live]
        return v

    def upsilon_plain(self, n: int) -> int:
        """upsilon(n) as a plain-int Legendre sum."""
        return sum(legendre(n, p) for p in self.primes[:int(self.pi(n))].tolist())

    def upsilon(self, ns: np.ndarray) -> np.ndarray:
        """upsilon(n) for sorted n: a consecutive run uses Omega counts."""
        ns = np.asarray(ns, dtype=np.int64)
        lo, hi = int(ns[0]), int(ns[-1])
        if hi - lo + 1 != len(ns):
            return np.array([int(self.valuations(int(n)).sum()) for n in ns], dtype=np.int64)
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        rest = np.arange(lo, hi + 1, dtype=np.int64)
        for p in self.primes[:int(self.pi(math.isqrt(hi)))].tolist():
            pk = p
            while pk <= hi:
                first = -(-lo // pk) * pk
                counts[first - lo::pk] += 1
                rest[first - lo::pk] //= p
                pk *= p
        counts += rest > 1
        counts[0] = self.valuations(lo).sum() if lo >= 2 else 0
        return np.cumsum(counts)

    def theta(self, ns: np.ndarray) -> np.ndarray:
        prefix = np.concatenate(([0.0], np.cumsum(self._logs)))
        return prefix[self.pi(ns)]

    def perfecter_logs(self, lo: int, hi: int) -> np.ndarray:
        """log of the minimal square perfecter of n! for n in [lo, hi].

        The parity of v_p(n!) flips exactly when v_p(n) is odd, so the
        odd-exponent set is updated from sympy.factorint(n), and each value
        is an exactly rounded math.fsum over that set.
        """
        odd: dict[int, float] = {}
        out = []
        for n in range(2, hi + 1):
            for p, e in sympy.factorint(n).items():
                if e % 2:
                    if p in odd:
                        del odd[p]
                    else:
                        odd[p] = math.log(p)
            if n >= lo:
                out.append(math.fsum(odd.values()))
        return np.array(out)

    def perfecter(self, n: int) -> tuple[np.ndarray, float]:
        odd = self.primes[:int(self.pi(n))][(self.valuations(n) & 1) == 1]
        return odd, math.fsum(np.log(odd.astype(np.float64)).tolist())

    # ------------------------------------------------------------ bound slack
    def lhs_rhs(self, tid: str, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """float64 (lhs, rhs, slack) of bound ``tid`` at sorted points ``ns``."""
        nf = np.asarray(ns, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            if tid == "S32_perfecter":
                logs = self.perfecter_logs(int(ns[0]), int(ns[-1]))[np.asarray(ns) - int(ns[0])]
                lower, upper = s32_exponents(nf, np.log)
                return logs, upper, np.minimum(logs - lower, upper - logs)
            r = rhs(tid, nf, np.log, self._cfloat)
            if tid == "TB2":
                lhs = np.abs(self.theta(ns) - nf)
            else:
                lhs = self.upsilon(ns).astype(np.float64)
                if tid in MEAN_LHS:
                    lhs = lhs / self.pi(ns)
        return lhs, r, (r - lhs) if tid in UPPER else (lhs - r)

    def slack_mp(self, tid: str, n: int) -> mpmath.mpf:
        """Slack of bound ``tid`` at one n: exact lhs, 30-digit mpmath rhs."""
        with mpmath.workdps(30):
            x = mpmath.mpf(n)
            if tid == "S32_perfecter":
                odd, _ = self.perfecter(n)
                logs = mpmath.fsum(mpmath.log(int(p)) for p in odd)
                lower, upper = s32_exponents(x, mpmath.log)
                return min(logs - lower, upper - logs)
            r = rhs(tid, x, mpmath.log, constants())
            if tid == "TB2":
                theta = mpmath.fsum(mpmath.log(p) for p in self.primes[:int(self.pi(n))].tolist())
                lhs = abs(theta - x)
            else:
                ups = self.upsilon_plain(n) if n <= PLAIN_INT_MAX else int(self.valuations(n).sum())
                lhs = mpmath.mpf(ups) / int(sympy.primepi(n)) if tid in MEAN_LHS else mpmath.mpf(ups)
            return (r - lhs) if tid in UPPER else (lhs - r)

    def spot_check(self, ns) -> list[str]:
        """Cross-check the oracle itself at a few n with sympy."""
        bad = []
        for n in ns:
            n = int(n)
            if int(self.pi(n)) != int(sympy.primepi(n)):
                bad.append(f"oracle pi({n}) != sympy.primepi")
            if n > 2:
                ups = self.valuations(n).sum() - self.valuations(n - 1).sum()
                if ups != sum(sympy.factorint(n).values()):
                    bad.append(f"oracle upsilon({n}) - upsilon({n - 1}) != Omega({n})")
        return bad
