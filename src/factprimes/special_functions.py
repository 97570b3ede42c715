"""Numerical kernel: exponential integral, Lambert W, adaptive quadrature,
and the truncated asymptotic expansion of the logarithmic integral.

exp_integral(a, z) is E_a(z) = integral of exp(-t z) t^(-a) over t in
[1, inf).  It is evaluated by the classical pair of methods: a power
series for z <= 1 and a modified-Lentz continued fraction for z > 1.
lambert_w solves w exp(w) = x on the principal branch with Halley
iteration.  Both are accurate to roughly 1e-14 relative, comfortably
inside their advertised 1e-12 contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureError

EULER_GAMMA = 0.5772156649015328606
_INV_E = math.exp(-1.0)

_SERIES_CF_SWITCH = 1.0  # classical switch point between series and CF
_MAX_ITER = 400
_HALLEY_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and depth budget for adaptive Simpson integration."""

    abs_tol: float = 1e-10
    max_depth: int = 50

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise DomainError("abs_tol must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Adaptive Simpson integral of f over [a, b].

    Returns (value, err_estimate); the estimate is the accumulated
    Richardson correction of the accepted panels and is <= spec.abs_tol
    on success.

    Raises:
        DomainError: a >= b or non-finite endpoint values.
        QuadratureError: max_depth exhausted before the local tolerance was
            met (the best value and its estimate ride along on the error).
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise DomainError("integrand is not finite on [a, b]")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a: float, m: float, b: float, fa: float, fm: float, fb: float,
                panel: float, tol: float, depth: int) -> tuple[float, float]:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - panel
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth <= 0:
            raise QuadratureError(
                "adaptive Simpson hit max_depth",
                best_value=left + right + delta / 15.0,
                err_estimate=abs(delta) / 15.0,
            )
        lv, le = recurse(a, lm, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        rv, re = recurse(m, rm, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        return lv + rv, le + re

    return recurse(a, mid, b, fa, fm, fb, whole, spec.abs_tol, spec.max_depth)


def exp_integral(a: int, z: float) -> float:
    """Generalized exponential integral E_a(z) for integer a >= 1, z > 0.

    Raises:
        DomainError: a < 1 or z <= 0.
    """
    if a < 1:
        raise DomainError(f"order must be an integer >= 1, got {a}")
    if not z > 0:
        raise DomainError(f"argument must be positive, got {z}")

    am1 = a - 1
    if z > _SERIES_CF_SWITCH:
        # modified Lentz continued fraction
        b = z + a
        c = 1e308
        d = 1.0 / b
        h = d
        for i in range(1, _MAX_ITER):
            an = -i * (am1 + i)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = c * d
            h *= delta
            if abs(delta - 1.0) < 1e-16:
                return h * math.exp(-z)
        raise QuadratureError("continued fraction failed to converge",
                              best_value=h * math.exp(-z), err_estimate=math.nan)

    # power series around z = 0
    ans = (1.0 / am1) if am1 != 0 else (-math.log(z) - EULER_GAMMA)
    fact = 1.0
    for i in range(1, _MAX_ITER):
        fact *= -z / i
        if i != am1:
            delta = -fact / (i - am1)
        else:
            psi = -EULER_GAMMA + sum(1.0 / m for m in range(1, am1 + 1))
            delta = fact * (-math.log(z) + psi)
        ans += delta
        if abs(delta) < abs(ans) * 1e-17:
            return ans
    raise QuadratureError("series failed to converge",
                          best_value=ans, err_estimate=math.nan)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W: the w >= -1 with w exp(w) = x.

    Halley iteration from log1p(x) for x >= 0 and from branch-point or
    small-argument seeds for negative x.  Residual |w e^w - x| stays below
    1e-13 * max(1, |x|).

    Raises:
        DomainError: x < -1/e (outside the principal branch) or not finite.
        QuadratureError: Halley iteration did not converge (the last
            iterate and its residual ride along on the error).
    """
    if not math.isfinite(x):
        raise DomainError(f"lambert_w needs a finite x, got {x}")
    if x < -_INV_E:
        raise DomainError(f"lambert_w needs x >= -1/e, got {x}")
    if x == -_INV_E:
        return -1.0
    if x == 0.0:
        return 0.0
    if x >= 0.0:
        w = math.log1p(x)
    elif x < -0.25:
        w = -1.0 + math.sqrt(2.0 * (1.0 + math.e * x))
    else:
        w = x
    for _ in range(_HALLEY_MAX_ITER):
        ew = math.exp(w)
        resid = w * ew - x
        if abs(resid) <= 1e-13 * max(1.0, abs(x)):
            return w
        w1 = w + 1.0
        w -= resid / (ew * w1 - (w + 2.0) * resid / (2.0 * w1))
    raise QuadratureError("Halley iteration failed to converge",
                          best_value=w, err_estimate=abs(w * math.exp(w) - x))


def log_integral_expansion(n: float, terms: int) -> tuple[float, float]:
    """Truncated integration-by-parts expansion of the integral of 1/log x
    from 2 to n.

    Returns the combination
        n * sum_{k=1..terms} (k-1)!/log^k n  -  2 * sum_{k=1..terms} (k-1)!/log^k 2
    together with the magnitude of the first omitted series term,
    terms! * n / log^(terms+1) n, as a crude error scale.  The exact
    remainder is terms! times the integral of log^-(terms+1).

    Raises:
        DomainError: n <= 2 or terms outside [1, 20].
    """
    if not n > 2:
        raise DomainError(f"expansion needs n > 2, got {n}")
    if not 1 <= terms <= 20:
        raise DomainError(f"terms must be in [1, 20], got {terms}")
    ln_n = math.log(n)
    ln_2 = math.log(2.0)
    fact = 1.0
    sum_n = 0.0
    sum_2 = 0.0
    for k in range(1, terms + 1):
        sum_n += fact / ln_n**k
        sum_2 += fact / ln_2**k
        fact *= k
    value = n * sum_n - 2.0 * sum_2
    first_omitted = fact * n / ln_n ** (terms + 1)
    return value, first_omitted


def log_integral(n: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Integral of 1/log x from 2 to n by adaptive quadrature.

    The integrand blows up at x = 1; the fixed lower limit 2 and the
    domain check keep every evaluation away from that singularity.

    Raises:
        DomainError: n < 2.
    """
    if n < 2:
        raise DomainError(f"log_integral starts at 2, got upper limit {n}")
    if n == 2:
        return 0.0, 0.0
    return integrate(lambda x: 1.0 / math.log(x), 2.0, float(n), spec)
