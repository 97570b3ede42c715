"""Recomputation of the explicit constants and machine verification of the
five exponent-sum bound theorems plus the simplified mean corollary.

Every right-hand side is assembled from locally recomputed constants, never
from the tabulated decimals; the decimals are kept only as comparison
targets so the whole table is self-validating.  Each constant also carries
a frozen high-precision evaluation of its defining expression (computed
once with 40-digit arithmetic) against which the binary64 recomputation is
measured.

Theorem identifiers and their claimed validity windows:

    T1_upper_upsilon   n >= 2   upsilon(n) <  rhs_T1(n)
    T2_upper_mean      n >= 3   mean(n)    <  rhs_T2(n)
    C3_upper_mean      n >= 12602987   mean(n) < rhs_C3(n)
    T4_lower_upsilon   n >= 3   upsilon(n) >  rhs_T4(n)
    T5_lower_mean      n >= 2   mean(n)    >  rhs_T5(n)

plus the table-backed checks TB2/TB4 (theta deviation), PI_LB/PI_UB
(prime-count bounds) and S32_perfecter (two-sided perfecter bound).

Each of these is one :class:`Bound` record in ``BOUNDS``, its only
description.  :func:`columns` chooses the points, in slices of
``slice_points(n_to)``, and :func:`evaluate` decides the verdicts of a
slice; ``sweep``, ``verify`` and ``scan`` call both.  Exact left-hand sides
come from upsilon.factorial_windows over a range, a factor pass per window
of ``walk_window(n_to)`` points with the running sums carried slice by
slice, and from upsilon.factorial_points at scattered points; pi reads the
table, and theta is carried slice by slice as an exact log total along runs
and read from the table's log directory at scattered points, at real n
too.  Pointwise evaluation is a one-point slice and :func:`rhs_value` a
one-point rhs, so all agree bit for bit.  Memory stays O(slice), beyond
the factor pass's narrow window arrays.

Note the T1 right-hand side contains (n-1) * log log(n-1), which diverges
to -inf at n = 2; the verifier evaluates and reports exactly that, so the
n = 2 endpoint of T1's claimed window comes out as a violation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError, checked
from .primes import PrimeTable, theta, theta_from
from .report import MARGINAL_SLACK, BoundReport, Record
from .special_functions import (DEFAULT_QUADRATURE, QuadratureSpec,
                                exp_integral, integrate)
from .upsilon import Columns, factorial_points, factorial_windows

if TYPE_CHECKING:
    from fractions import Fraction

S1_EXACT_CAP = 1000

# 10-significant-digit tabulated values of the constants (display targets).
TABULATED = {
    "c1": 7.416262921,
    "c2": 12.35466367,
    "c3": 13.76468999,
    "c4": 21.18095291,
    "c5": -1.645482755,
    "c6": -8.600279758,
    "c7": -10.09955739,
    "c8": -11.86870152,
    "c9": -16.42613005,
    "c10": 30.52238614,
    "e3_min": -0.1236613745,
    "eps": 0.144266447,
}

# Frozen 40-digit evaluations of the defining expressions, rounded to
# binary64.  eps has no defining expression (it is adopted as tabulated);
# see the eps entry in compute_constants.
EXACT_EVAL = {
    "c1": 7.416262922467185337,
    "c2": 12.354663674944275347,
    "c3": 13.764689995125509776,
    "c4": 21.180952917592695113,
    "c5": -1.645482758911331708,
    "c6": -8.600279758435287830,
    "c7": -10.099557388593928477,
    "c8": -11.868701521883183707,
    "c9": -16.426130049779620763,
    "c10": 30.522386137357905584,
    "e3_min": -0.123661374377923522,
    "eps": 0.144266447,
}

# Constants whose defining expression is a finite closed form (no
# quadrature, no exponential integral).
CLOSED_FORM = ("c1", "c5", "c9", "c10", "e3_min")

# Rational coefficient of log n in the simplified mean upper bound.
C3_SLOPE_NUM = 380537
C3_SLOPE_DEN = 17966

# Coefficient of the deviation bound that drives both perfecter exponents.
_DEV_COEFF = 793 / 200

# The pi(n) lower bound is only claimed from 599 on.
PI_LOWER_MIN_N = 599


class ConstantEntry(NamedTuple):
    """One recomputed constant with its provenance and comparison targets."""

    name: str
    value: float
    method: str
    abs_err_estimate: float
    tabulated: float
    exact_eval: float

    @property
    def abs_diff(self) -> float:
        """Distance from the frozen high-precision evaluation."""
        return abs(self.value - self.exact_eval)


class ConstantsTable(Record):
    """All recomputed constants, addressable by name or attribute; iterating
    yields the entries."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[str, ConstantEntry]) -> None:
        super().__init__(entries=entries)

    def __getattr__(self, name: str) -> float:
        entries = object.__getattribute__(self, "entries")
        if name in entries:
            return entries[name].value
        raise AttributeError(name)

    def __iter__(self):
        return iter(self.entries.values())


class ErrorTerms(NamedTuple):
    """The six auxiliary error terms at one n."""

    e1: float
    e2: float
    e3: float
    e4: float
    r1: float
    r2: float


def _integrand_upper(x: float) -> float:
    # integrand whose antiderivative drives the upper S1 approximation
    return (1200 * x**3 + 365 * x**2 + 9944 * x - 1993) / (1200 * (x - 1) ** 4 * math.log(x))


def _integrand_lower(x: float) -> float:
    # integrand for the lower S1 approximation
    return (1200 * x**3 - 7565 * x**2 - 2744 * x - 407) / (1200 * (x - 1) ** 4 * math.log(x))


def error_terms(n: float) -> ErrorTerms:
    """Evaluate all six error terms at n (binary64 closed forms).

    e2 involves the exponential integral at log(n-1), which diverges as
    n -> 2; e2(2) is reported as -inf.  e1 and e3 have numerator and
    denominator divided by n^3, so they stay finite up to the float max.

    Raises:
        DomainError: n not a finite number, or n < 2.
    """
    n = checked("n", n, 2, real=True)
    lg = math.log(n)
    lg2 = lg * lg
    x = 1 / n

    denom = 1200 * (1 - x) ** 3 * lg**3
    e1 = -((1200 * lg2 + 2379 * lg + 1586) - (6365 * lg2 + 3172 * lg + 3172) * x
           + (1993 * lg2 + 793 * lg + 1586) * x * x) / denom
    e3 = -((1200 * lg2 - 2379 * lg - 1586) + (1565 * lg2 + 3172 * lg + 3172) * x
           + (407 * lg2 - 793 * lg - 1586) * x * x) / denom

    if n == 2:
        e2 = float("-inf")
    else:
        u = math.log(n - 1)
        e2 = -(793 / 240 * exp_integral(1, u)
               + 2379 / 200 * exp_integral(1, 2 * u)
               + 793 / 100 * exp_integral(1, 3 * u))
    e4 = (1513 / 240 * exp_integral(1, lg)
          + 343 / 150 * exp_integral(1, 2 * lg)
          + 407 / 1200 * exp_integral(1, 3 * lg))

    r1 = (-1607 * n / (2400 * lg) - 1607 * n / (2400 * lg2)
          + 793 * n / (1200 * lg**3) + 793 * n / (400 * lg**4))
    r2 = (-3193 * n / (2400 * lg) - 3193 * n / (2400 * lg2)
          - 793 * n / (1200 * lg**3) - 793 * n / (400 * lg**4))
    return ErrorTerms(e1=e1, e2=e2, e3=e3, e4=e4, r1=r1, r2=r2)


def kappa(n: float) -> float:
    """Correction factor 5000 log n / (6381 + 5000 log n), in (0, 1), for a
    finite real n >= 2."""
    return _kappa(math.log(checked("n", n, 2, real=True)))


def _kappa(lg):
    # kappa as a function of log n, for floats and arrays alike
    return 5000 * lg / (6381 + 5000 * lg)


def compute_constants(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> ConstantsTable:
    """Recompute every constant from its defining expression.

    Closed forms are evaluated directly, c2 and c6 by adaptive quadrature,
    c3 and c7 through the exponential integral, and c4/c8 by their exact
    arithmetic relations c4 = c1 + c3 and c8 = c5 + c7 + e3_min.
    """
    lg2 = math.log(2.0)
    c1 = (-5937 * lg2**2 + 3965 * lg2 + 1586) / (600 * lg2**3)
    c5 = (8337 * lg2**2 - 3965 * lg2 - 1586) / (600 * lg2**3)

    c2, c2_err = integrate(_integrand_upper, 2.0, math.e + 1.0, spec)
    c6, c6_err = integrate(_integrand_lower, 2.0, math.e, spec)

    ei1 = exp_integral(1, 1.0)
    ei2 = exp_integral(1, 2.0)
    ei3 = exp_integral(1, 3.0)
    c3 = 793 / 240 * ei1 + 2379 / 200 * ei2 + 793 / 100 * ei3 + c2
    c7 = c6 - (1513 / 240 * ei1 + 343 / 150 * ei2 + 407 / 1200 * ei3)

    terms29 = error_terms(29)
    e3_min = terms29.e3
    c4 = c1 + c3
    c8 = c5 + c7 + e3_min
    c9 = -error_terms(2).r1
    c10 = -error_terms(2).r2

    ulp = np.finfo(np.float64).eps

    def entry(name, value, method, err):
        return ConstantEntry(name=name, value=value, method=method,
                             abs_err_estimate=err, tabulated=TABULATED[name],
                             exact_eval=EXACT_EVAL[name])

    entries = {
        "c1": entry("c1", c1, "closed-form", 8 * ulp * abs(c1)),
        "c2": entry("c2", c2, "quadrature", c2_err),
        "c3": entry("c3", c3, "exp-integral + quadrature", c2_err + 8 * ulp * abs(c3)),
        "c4": entry("c4", c4, "c1 + c3", c2_err + 16 * ulp * abs(c4)),
        "c5": entry("c5", c5, "closed-form", 8 * ulp * abs(c5)),
        "c6": entry("c6", c6, "quadrature", c6_err),
        "c7": entry("c7", c7, "exp-integral + quadrature", c6_err + 8 * ulp * abs(c7)),
        "c8": entry("c8", c8, "c5 + c7 + e3_min", c6_err + 16 * ulp * abs(c8)),
        "c9": entry("c9", c9, "closed-form", 8 * ulp * abs(c9)),
        "c10": entry("c10", c10, "closed-form", 8 * ulp * abs(c10)),
        "e3_min": entry("e3_min", e3_min, "closed-form", 8 * ulp),
        # eps is adopted as tabulated; the inequality it appears in is
        # verified separately and the sampled infimum is merely reported.
        "eps": entry("eps", TABULATED["eps"], "adopted", 0.0),
    }
    return ConstantsTable(entries=entries)


@lru_cache(maxsize=1)
def default_constants() -> ConstantsTable:
    """Constants recomputed once with the default quadrature budget: the
    one table every right-hand side reads (evaluate and rhs_value call it)."""
    return compute_constants()


def s1(table: PrimeTable, n: int, *, exact: bool = False) -> float | Fraction:
    """S1(n) = sum over primes p <= n of (n-1)/(p-1).

    Float path uses exactly-rounded summation; exact=True returns the
    rational value (capped at n <= 1000).

    Raises:
        DomainError / OutOfRangeError: bad n.
        ResourceLimitError: exact requested beyond the cap.
    """
    n = checked("n", n, 2, table=table)
    ps = table.primes_up_to(n)
    if exact:
        if n > S1_EXACT_CAP:
            raise ResourceLimitError(f"exact s1 capped at n <= {S1_EXACT_CAP}")
        from fractions import Fraction
        return sum(Fraction(n - 1, int(p) - 1) for p in ps)
    return math.fsum((n - 1.0) / (p - 1.0) for p in ps.astype(np.float64))


def s2(table: PrimeTable, n: int) -> float:
    """S2(n) = sum over primes p <= n of log n / log p, for an integer
    2 <= n <= table.limit."""
    n = checked("n", n, 2, table=table)
    ps = table.primes_up_to(n).astype(np.float64)
    return math.log(n) * math.fsum(1.0 / np.log(ps))


# ------------------------------------------------------------ right-hand sides
# Each takes a float64 array of n and the constants.  The operation order is
# that of the printed formulas; log log 1 = log 0 = -inf is wanted (T1 and T2
# at n = 2), so Bound.rhs_at evaluates them with the divide warning off.

def _rhs_t1(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return ((n - 1) * np.log(np.log(n - 1)) + c.c4 * (n - 1)
            + n / lg + 1717433 * n / lg**5)


def _rhs_t2(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    b = 1 + lg
    return (lg / b * lg * np.log(np.log(n - 1)) + c.c4 * lg * lg / b
            + lg / b + 1717433 / (b * lg**3))


def _rhs_c3(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return lg * np.log(lg) + C3_SLOPE_NUM / C3_SLOPE_DEN * lg + 1


def _rhs_t4(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return ((n - 1) * np.log(lg) + c.c8 * (n - 1) - n / lg
            - 16381 * n / (5000 * lg**2) - 6 * n / lg**3
            - 54281 * n / (800 * lg**4) - c.c10 * lg)


def _rhs_t5(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    k = _kappa(lg)
    return ((n - 1) * k / n * lg * np.log(lg) + c.c8 * (n - 1) * k * lg / n
            - 16381 * k / (5000 * lg) - 6 * k / lg**2
            - 54281 * k / (800 * lg**3) - c.c10 * k * lg * lg / n)


def _rhs_tb2(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return 793 * n / (200 * lg * lg)


def _rhs_tb4(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    return 1717433 * n / np.log(n)**4


def _rhs_pi_lb(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return n / lg * (1 + 1 / lg)


def _rhs_pi_ub(n: np.ndarray, c: ConstantsTable) -> np.ndarray:
    lg = np.log(n)
    return n / lg * (1 + 6381 / (5000 * lg))


def _rhs_s32(n: np.ndarray, c: ConstantsTable | None) -> np.ndarray:
    # the upper exponent of the two-sided perfecter bound
    return n + _DEV_COEFF * n / np.log(n)


def perfecter_exponents(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper exponents of the two-sided perfecter bound,
    n/2 - (793/200) n (1/log n + 1/(2 log(n/2))) and n + (793/200) n / log n,
    elementwise over a float64 array of n >= 2 (claimed from 4; at n = 2,
    log(n/2) = 0 makes the lower exponent -inf, with a divide warning)."""
    lg = np.log(n)
    return (n / 2 - _DEV_COEFF * n * (1 / lg + 1 / (2 * np.log(n / 2))),
            _rhs_s32(n, None))


# ------------------------------------------------------------------ registry

class Bound(NamedTuple):
    """One checked inequality ``lhs <sense> rhs(n)``, claimed for n >= start.

    ``lhs`` names the left-hand side: "upsilon" (exponent sum of n!),
    "mean" (upsilon / pi(n), decided exactly against the binary64 rhs),
    "theta" (|theta(n) - n|), "pi" (prime count) or "perfecter" (log of the
    minimal square perfecter).  ``sense`` is "<", ">", "<=" or ">=", or
    "between" for the two-sided perfecter bound, whose sides both come from
    perfecter_exponents; its rhs is the upper exponent.  ``rhs`` maps a
    float64 array of n and the constants to the right-hand side.
    """

    id: str
    alias: str | None
    start: int
    sense: str
    lhs: str
    rhs: Callable[[np.ndarray, ConstantsTable], np.ndarray]

    @property
    def upper(self) -> bool:
        """True when the slack is rhs - lhs (an upper bound on the lhs)."""
        return self.sense in ("<", "<=")

    def rhs_at(self, n: np.ndarray, c: ConstantsTable) -> np.ndarray:
        """The right-hand side at a float64 array of n."""
        with np.errstate(divide="ignore"):
            return self.rhs(n, c)


BOUNDS = {b.id: b for b in (
    Bound("T1_upper_upsilon", "T1", 2, "<", "upsilon", _rhs_t1),
    Bound("T2_upper_mean", "T2", 3, "<", "mean", _rhs_t2),
    Bound("C3_upper_mean", "C3", 12_602_987, "<", "mean", _rhs_c3),
    Bound("T4_lower_upsilon", "T4", 3, ">", "upsilon", _rhs_t4),
    Bound("T5_lower_mean", "T5", 2, ">", "mean", _rhs_t5),
    Bound("TB2", None, 2, "<", "theta", _rhs_tb2),
    Bound("TB4", None, 2, "<", "theta", _rhs_tb4),
    Bound("PI_LB", None, PI_LOWER_MIN_N, ">=", "pi", _rhs_pi_lb),
    Bound("PI_UB", None, 2, "<=", "pi", _rhs_pi_ub),
    Bound("S32_perfecter", "S32", 4, "between", "perfecter", _rhs_s32),
)}

# Left-hand sides defined at every real n >= 2, not at integers only.
_REAL_LHS = ("theta", "pi")

_ALIASES = {b.alias: b.id for b in BOUNDS.values() if b.alias}

_COMPARE = {"<": np.less, ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}


def resolve_theorem_id(theorem_id: str) -> str:
    """Expand a short alias (T1, ..., T5, C3, S32) to the canonical id."""
    tid = _ALIASES.get(theorem_id, theorem_id)
    if tid not in BOUNDS:
        known = sorted(set(BOUNDS) | set(_ALIASES))
        raise DomainError(f"unknown theorem id {theorem_id!r}; known: {known}")
    return tid


def rhs_value(theorem_id: str, n: float) -> float:
    """The right-hand side of one bound at one finite real n >= 2, bit for
    bit the rhs that evaluate_theorem and sweep report (a one-point array).

    Raises:
        DomainError: n not finite or below 2, or a step of the formula
            overflows or turns invalid at n (near the top of the float
            range); log log 1 = -inf at n = 2 is a value, not an error.
    """
    bound = BOUNDS[resolve_theorem_id(theorem_id)]
    n = checked("n", n, 2, real=True)
    # trapped here only, so sweeps pay nothing for it
    with np.errstate(over="raise", invalid="raise"):
        try:
            return float(bound.rhs_at(np.array([n], dtype=np.float64),
                                      default_constants())[0])
        except FloatingPointError as exc:
            raise DomainError(f"{bound.id} rhs is not representable at n={n}: {exc}"
                              ) from None


# -------------------------------------------------------------- sweep engine

def walk_window(n_to: int) -> int:
    """Points per factor-pass window of a walk ending at n_to >= 1.  A window
    costs a strided pass per prime up to isqrt(n_to) plus a part linear in
    its points, so it is the power of two above 64 isqrt(n_to), from 2^14
    (below 65536) to 2^19 (from 2^24 on)."""
    return min(max(1 << (64 * math.isqrt(n_to)).bit_length(), 1 << 14), 1 << 19)


def slice_points(n_to: int) -> int:
    """Points per verdict slice of a sweep ending at n_to >= 1, for every
    kind: a quarter of the walk window, at most 2^14 (2^12 below 65536,
    2^13 below 2^18).  evaluate's temporaries stay cache-sized, and short
    runs small; below 2^14 the per-slice overhead shows on long runs."""
    return min(1 << 14, walk_window(n_to) // 4)


def walk_points(kinds: tuple[str, ...], n_from: int, n_to: int, *, step: int = 1,
                log_samples: int | None = None) -> int:
    """Points per factor-pass window that :func:`columns` walks: at most
    walk_window(n_to) for steps below it, and 0 for log-spaced points,
    wider steps and the left-hand sides read from the table."""
    window = walk_window(max(n_to, 1))
    if log_samples is not None or set(kinds) <= set(_REAL_LHS) or step >= window:
        return 0
    return min(window, n_to - n_from + 1)


class Window(NamedTuple):
    """Per-point arrays of one bound over one slice of points, ascending in n.

    The fields are those of BoundReport after its theorem id.
    """

    n: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    applicable: np.ndarray
    marginal: np.ndarray


def _check_range(table: PrimeTable, n_from, n_to, *, real: bool = False) -> None:
    # an integral float is an integer n here: sweep ranges accept 1e6
    checked("n", n_from, 2, real=True)
    if checked("n", n_to, real=True) < n_from:
        raise DomainError(f"n_to={n_to} is below n_from={n_from}")
    checked("n", n_to, table=table, real=True)
    for n in (n_from, n_to):
        if not (real or n == int(n)):
            raise DomainError(f"n must be an integer, got {n}")


def _mean_holds(sense: str, ups: np.ndarray, pis: np.ndarray, mean: np.ndarray,
                rhs: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Verdicts of upsilon/pi <sense> rhs, exact against the binary64 rhs.

    upsilon and pi are below 2^53, so the float mean is their quotient
    correctly rounded, within |mean| 2^-53 of it: where |slack| exceeds
    |mean| 2^-52, the float comparison has the exact sign.  The points
    nearer than that compare Fraction(upsilon, pi) with Fraction(rhs).
    """
    holds = _COMPARE[sense](mean, rhs)
    near = np.flatnonzero(np.abs(slack) <= np.abs(mean) * 2.0**-52).tolist()
    if near:
        from fractions import Fraction
    for i in near:
        holds[i] = _COMPARE[sense](Fraction(int(ups[i]), int(pis[i])),
                                   Fraction(float(rhs[i])))
    return holds


def evaluate(table: PrimeTable, bound: Bound, cols: Columns) -> Window:
    """Evaluate one bound at the points cols.n, from the exact left-hand
    sides in cols (the mean reads cols.pi, theta cols.theta, and pi the
    table; theta and pi take float64 points too): the one place a verdict
    is decided."""
    ns = cols.n
    nf = ns.astype(np.float64)
    if bound.lhs == "perfecter":
        lhs = cols.log_perfecter
        with np.errstate(divide="ignore"):  # -inf at n = 2, as rhs_at allows
            lower, rhs = perfecter_exponents(nf)
        # the rhs reported is the upper exponent, the slack the smaller margin
        slack = np.minimum(lhs - lower, rhs - lhs)
        holds = (lhs > lower) & (lhs < rhs)
    else:
        rhs = bound.rhs_at(nf, default_constants())
        if bound.lhs == "upsilon":
            lhs = cols.upsilon.astype(np.float64)
        elif bound.lhs == "mean":
            lhs = cols.upsilon / cols.pi
        elif bound.lhs == "theta":
            lhs = np.abs(cols.theta - ns)
        else:
            lhs = table.count(ns).astype(np.float64)
        slack = rhs - lhs if bound.upper else lhs - rhs
        if bound.lhs == "mean":
            holds = _mean_holds(bound.sense, cols.upsilon, cols.pi, lhs, rhs, slack)
        else:
            holds = _COMPARE[bound.sense](lhs, rhs)
    return Window(ns, lhs, rhs, slack, holds, ns >= bound.start,
                  np.abs(slack) < MARGINAL_SLACK)


def _points(table: PrimeTable, kinds: tuple[str, ...], ns: np.ndarray) -> Columns:
    # exact left-hand sides at the scattered points ns, each on its own:
    # theta from the table's log directory, not its prefix; pi reads the table
    cols = (Columns(ns, None, None) if set(kinds) <= set(_REAL_LHS) else
            factorial_points(table, ns, perfecter="perfecter" in kinds,
                             count="mean" in kinds))
    if "theta" in kinds:
        cols = cols._replace(theta=np.array([theta(table, x) for x in ns.tolist()]))
    return cols


def log_spaced(n_from: int, n_to: int, k: int) -> np.ndarray:
    """k geometrically spaced integers spanning [n_from, n_to], deduplicated;
    k above the number of integers there is refused before any allocation."""
    n_from = checked("n_from", n_from, 1)
    n_to = checked("n_to", n_to, n_from)
    k = checked("sample count", k, 1, most=n_to - n_from + 1)
    pts = np.clip(np.geomspace(n_from, n_to, k).round().astype(np.int64), n_from, n_to)
    # nondecreasing already, so a neighbour mask dedups as np.unique would,
    # without its lazy import of numpy.ma
    return pts[np.r_[True, pts[1:] != pts[:-1]]]


def _walked(walk: Iterator[Columns], n_from: int, step: int) -> Iterator[Columns]:
    """Every step-th row from n_from of the consecutive walked pieces; a
    piece shorter than its offset has none."""
    for cols in walk:
        start = (n_from - int(cols.n[0])) % step
        if start < len(cols.n):
            yield Columns(*(None if a is None else a[start::step] for a in cols))


def _theta_runs(table: PrimeTable, chunks: Iterator[np.ndarray]) -> Iterator[Columns]:
    # theta along consecutive chunks of a run of integer points, its exact
    # total carried from 0 and from one chunk to the next
    done, total = 0, 0
    for ns in chunks:
        theta_n, total = theta_from(table, ns, done, total)
        done = int(ns[-1])
        yield Columns(ns, None, None, theta=theta_n)


def columns(table: PrimeTable, kinds: tuple[str, ...], n_from: int, n_to: int, *,
            step: int = 1, log_samples: int | None = None) -> Iterator[Columns]:
    """The points n_from, n_from + step, ... <= n_to, or log_samples
    log-spaced points, with the exact left-hand sides of the kinds kinds
    (Bound.lhs values; pi(n) is computed only for "mean"), in ascending
    slices of at most slice_points(n_to) points.  Steps below
    walk_window(n_to) walk factorial_windows in windows of walk_points, in
    pieces of a slice times step, and keep every step-th row; log-spaced
    points and wider steps go through factorial_points, since one anchor
    costs about as much as walking one window.  Runs of theta points carry
    theta(n) from slice to slice.  The arguments are checked here."""
    _check_range(table, n_from, n_to)
    n_from, n_to = int(n_from), int(n_to)
    step = checked("step", step, 1, most=None if log_samples is None else 1)
    size = slice_points(n_to)
    window = walk_points(kinds, n_from, n_to, step=step, log_samples=log_samples)
    if window:
        walk = factorial_windows(table, n_from, n_to, window, piece=size * step,
                                 perfecter="perfecter" in kinds, count="mean" in kinds)
        return _walked(walk, n_from, step)
    if log_samples is not None:
        points = log_spaced(n_from, n_to, log_samples)
        chunks = (points[i:i + size] for i in range(0, len(points), size))
    else:
        span = size * step
        chunks = (np.arange(lo, min(lo + span, n_to + 1), step, dtype=np.int64)
                  for lo in range(n_from, n_to + 1, span))
        if step < walk_window(n_to):
            # runs of points, not scattered ones: theta is carried along
            # them, and pi read from the table in evaluate
            if "theta" in kinds:
                return _theta_runs(table, chunks)
            return (Columns(ns, None, None) for ns in chunks)
    return (_points(table, kinds, ns) for ns in chunks)


def sweep(table: PrimeTable, theorem_id: str, n_from: int, n_to: int, *,
          log_samples: int | None = None) -> Iterator[Window]:
    """The slices of :func:`columns` over [n_from, n_to], each judged by
    :func:`evaluate`.  The arguments are checked here, before any slice.

    Raises:
        DomainError: unknown id, non-integral or non-finite ends, empty
            range, n_from < 2 (points below a bound's start are evaluated,
            applicable false), or more samples than points.
        OutOfRangeError: n_to beyond the table limit.
    """
    bound = BOUNDS[resolve_theorem_id(theorem_id)]
    cols = columns(table, (bound.lhs,), n_from, n_to, log_samples=log_samples)
    return (evaluate(table, bound, col) for col in cols)


def _window_reports(theorem_id: str, window: Window) -> list[BoundReport]:
    """One BoundReport per point of a window."""
    return [BoundReport(theorem_id, *row)
            for row in zip(*(a.tolist() for a in window))]


def evaluate_theorem(table: PrimeTable, theorem_id: str, n: float) -> BoundReport:
    """Evaluate one bound at one n: exact lhs, recomputed-constant rhs.

    n is an integer, except for the theta and pi bounds (TB2, TB4, PI_LB,
    PI_UB), which take any finite real n >= 2.  Probing outside a bound's
    claimed window is allowed; the report carries applicable=False there.

    Raises:
        DomainError / OutOfRangeError: n not evaluable at all.
    """
    bound = BOUNDS[resolve_theorem_id(theorem_id)]
    real = bound.lhs in _REAL_LHS
    _check_range(table, n, n, real=real)
    ns = np.array([n], dtype=None if real else np.int64)
    window = evaluate(table, bound, _points(table, (bound.lhs,), ns))
    return _window_reports(bound.id, window)[0]


class RangeSummary(NamedTuple):
    """Aggregate outcome of a range verification run."""

    theorem_id: str
    n_from: int
    n_to: int
    sampling: str
    n_checked: int
    n_applicable: int
    all_hold: bool
    min_slack: float
    argmin_n: int
    violations: tuple[int, ...]
    marginal_count: int


def summarize_reports(theorem_id: str, n_from: int, n_to: int,
                      log_samples: int | None,
                      windows: Iterable[Window]) -> RangeSummary:
    """Reduce sweep slices to a summary, one slice at a time.

    Only applicable points count towards the verdict, the minimum slack
    (the first minimum in ascending n) and the marginal count.  Each slice
    gets its own summary, and merge_summaries folds them onto the summary
    of no point (min slack inf, at n_from).
    """
    sampling = "exhaustive" if log_samples is None else f"log-spaced({log_samples})"
    zero = RangeSummary(theorem_id=theorem_id, n_from=n_from, n_to=n_to, sampling=sampling,
                        n_checked=0, n_applicable=0, all_hold=True, min_slack=math.inf,
                        argmin_n=n_from, violations=(), marginal_count=0)
    return merge_summaries([zero, *(_slice_summary(zero, w) for w in windows)])


def _slice_summary(zero: RangeSummary, w: Window) -> RangeSummary:
    # the summary of one slice, with the range fields of zero
    idx = np.flatnonzero(w.applicable)
    if not len(idx):
        return zero._replace(n_checked=len(w.n))
    best = idx[np.argmin(w.slack[idx])]
    violations = tuple(w.n[idx[~w.holds[idx]]].tolist())
    return zero._replace(
        n_checked=len(w.n), n_applicable=len(idx), all_hold=not violations,
        min_slack=float(w.slack[best]), argmin_n=int(w.n[best]), violations=violations,
        marginal_count=int(np.count_nonzero(w.marginal[idx])))


def merge_summaries(parts: Sequence[RangeSummary]) -> RangeSummary:
    """The summary of consecutive ranges, in ascending order, from their
    own: what summarize_reports gives over their union.  Counts add up,
    violations concatenate, and the first minimum slack wins ties."""
    best = None
    for p in parts:
        if p.n_applicable and (best is None or p.min_slack < best.min_slack):
            best = p
    best = best or parts[0]  # no applicable point: inf, at n_from
    violations = tuple(n for p in parts for n in p.violations)
    return parts[0]._replace(
        n_to=parts[-1].n_to, n_checked=sum(p.n_checked for p in parts),
        n_applicable=sum(p.n_applicable for p in parts), all_hold=not violations,
        min_slack=best.min_slack, argmin_n=best.argmin_n, violations=violations,
        marginal_count=sum(p.marginal_count for p in parts))


def verify_range(table: PrimeTable, theorem_id: str, n_from: int, n_to: int,
                 *, log_samples: int | None = None
                 ) -> tuple[list[BoundReport], RangeSummary]:
    """Evaluate one bound over [n_from, n_to], exhaustively or log-spaced.

    Returns a report for every point, in ascending n, plus the summary.
    Callers that need only the summary, or a stream of rows, consume
    :func:`sweep` directly and hold one window at a time.
    """
    tid = resolve_theorem_id(theorem_id)
    windows = list(sweep(table, tid, n_from, n_to, log_samples=log_samples))
    reports = [r for w in windows for r in _window_reports(tid, w)]
    return reports, summarize_reports(tid, n_from, n_to, log_samples, windows)
