"""Every entry point applies one argument rule (errors.checked): an integer
argument refuses a float, even an integral one, and a real argument
refuses nan and +-inf; a str is refused too, and so is a value
below the argument's least, all with DomainError.  A value above the table
raises OutOfRangeError.  Sweep ranges are the one exception: they take an
integral float as an integer.

The last test keeps a future entry point from skipping the check: every
numeric parameter of every callable the package exports must appear in
one of the tables below."""

import inspect
import math
import pickle
import signal
from typing import Any, Callable, NamedTuple

import pytest

import factprimes
from factprimes import (DomainError, OutOfRangeError, QuadratureSpec,
                        bertrand_equivalence, build_table, check_dusart_pi,
                        check_dusart_theta, digit_sum, error_terms,
                        evaluate_theorem, exp_integral,
                        factorial_valuation_oracle, full_decomposition,
                        integrate, is_prime, kappa, lambert_w, lambert_w_index,
                        legendre_valuation, log_integral,
                        log_integral_expansion, log_spaced, mean_location,
                        mean_vs_Lth_prime, nth_prime, odd_exponent_primes,
                        omega, perfecter_bounds, perfecter_factorial, pi, s1,
                        s2, squarefree_kernel, theta, theta_classed, upsilon,
                        upsilon_asymptotic_gap, upsilon_range, upsilon_value,
                        valuation_vector, verify_range)
from factprimes.bounds import columns, default_constants, rhs_value
from factprimes.report import Record
from factprimes.upsilon import factorial_windows, omega_window
from factprimes.valuation import decomposition_blocks

# the limit of the table_small fixture
LIMIT = 10_000


class Arg(NamedTuple):
    """One argument of one entry point."""

    func: str                       # the entry point's name
    param: str                      # the argument's parameter name
    call: Callable[[Any, Any], Any]  # (table, value) -> result, the rest valid
    good: Any                       # a value it accepts
    low: Any                        # a value below its least, or None
    high: Any = None                # a value above the table, or None


INTEGER_ARGS = {
    "valuation_vector": Arg("valuation_vector", "n", valuation_vector, 10, 1, LIMIT + 1),
    "full_decomposition": Arg("full_decomposition", "n", full_decomposition, 10, 1, LIMIT + 1),
    "decomposition_blocks": Arg("decomposition_blocks", "n", decomposition_blocks,
                                10, 1, LIMIT + 1),
    "mean_location": Arg("mean_location", "n", mean_location, 10, 2, LIMIT + 1),
    "theta_classed": Arg("theta_classed", "n", lambda t, v: theta_classed(t, v, 2),
                         10, 1, LIMIT + 1),
    "theta_classed_q": Arg("theta_classed", "q", lambda t, v: theta_classed(t, 10, v), 3, 1),
    "bertrand_equivalence": Arg("bertrand_equivalence", "n", bertrand_equivalence,
                                10, 1, LIMIT + 1),
    "omega_window_lo": Arg("omega_window", "lo", lambda t, v: omega_window(t, v, 20), 10, 1),
    "omega_window_hi": Arg("omega_window", "hi", lambda t, v: omega_window(t, 2, v),
                           10, 1, (LIMIT + 1) ** 2),
    "s1": Arg("s1", "n", s1, 10, 1, LIMIT + 1),
    "s1_exact": Arg("s1", "n", lambda t, v: s1(t, v, exact=True), 10, 1, LIMIT + 1),
    "s2": Arg("s2", "n", s2, 10, 1, LIMIT + 1),
    "omega": Arg("omega", "n", lambda t, v: omega(v), 10, 0),
    "is_prime": Arg("is_prime", "n", lambda t, v: is_prime(v), 10, None),
    "legendre_valuation": Arg("legendre_valuation", "n",
                              lambda t, v: legendre_valuation(v, 2), 10, -1),
    "legendre_valuation_p": Arg("legendre_valuation", "p",
                                lambda t, v: legendre_valuation(10, v), 3, 1),
    "factorial_valuation_oracle": Arg("factorial_valuation_oracle", "n",
                                      lambda t, v: factorial_valuation_oracle(v, 2), 10, -1),
    "factorial_valuation_oracle_p": Arg("factorial_valuation_oracle", "p",
                                        lambda t, v: factorial_valuation_oracle(10, v), 3, 1),
    "digit_sum": Arg("digit_sum", "n", lambda t, v: digit_sum(v, 2), 10, -1),
    "digit_sum_base": Arg("digit_sum", "base", lambda t, v: digit_sum(10, v), 10, 1),
    "build_table": Arg("build_table", "limit", lambda t, v: build_table(v), 10, 1),
    "build_table_limit_cap": Arg("build_table", "limit_cap",
                                 lambda t, v: build_table(10, limit_cap=v), 10, None),
    "nth_prime": Arg("nth_prime", "k", nth_prime, 10, 0, 1230),  # pi(10^4) = 1229
    "upsilon_value": Arg("upsilon_value", "n", upsilon_value, 10, 1, LIMIT + 1),
    "upsilon": Arg("upsilon", "n", upsilon, 10, 1, LIMIT + 1),
    "upsilon_asymptotic_gap": Arg("upsilon_asymptotic_gap", "n", upsilon_asymptotic_gap,
                                  10, 2, LIMIT + 1),
    "upsilon_range_n_from": Arg("upsilon_range", "n_from",
                                lambda t, v: upsilon_range(t, v, 20), 10, 1),
    "upsilon_range_n_to": Arg("upsilon_range", "n_to", lambda t, v: upsilon_range(t, 2, v),
                              10, 1, LIMIT + 1),
    "factorial_windows_n_from": Arg("factorial_windows", "n_from",
                                    lambda t, v: list(factorial_windows(t, v, 20, 8)), 10, 1),
    "factorial_windows_n_to": Arg("factorial_windows", "n_to",
                                  lambda t, v: list(factorial_windows(t, 2, v, 8)),
                                  10, 1, LIMIT + 1),
    "factorial_windows_window": Arg("factorial_windows", "window",
                                    lambda t, v: list(factorial_windows(t, 2, 20, v)), 10, 0),
    "factorial_windows_piece": Arg("factorial_windows", "piece",
                                   lambda t, v: list(factorial_windows(t, 2, 20, 8, piece=v)),
                                   10, 0),
    "lambert_w_index": Arg("lambert_w_index", "n", lambda t, v: lambert_w_index(v), 16, 15),
    "mean_vs_Lth_prime": Arg("mean_vs_Lth_prime", "n", mean_vs_Lth_prime, 10, 2, LIMIT + 1),
    "odd_exponent_primes": Arg("odd_exponent_primes", "n", odd_exponent_primes,
                               10, 0, LIMIT + 1),
    "perfecter_factorial": Arg("perfecter_factorial", "n", perfecter_factorial,
                               10, 0, LIMIT + 1),
    "perfecter_factorial_exact_max_bits": Arg(
        "perfecter_factorial", "exact_max_bits",
        lambda t, v: perfecter_factorial(t, 10, exact_max_bits=v), 10, -1),
    "squarefree_kernel_base": Arg("squarefree_kernel", "base",
                                  lambda t, v: squarefree_kernel([(v, 1)]), 3, 1),
    "squarefree_kernel_exponent": Arg("squarefree_kernel", "exponent",
                                      lambda t, v: squarefree_kernel([(2, v), (3, 1)]), 1, 0),
    "log_spaced_n_from": Arg("log_spaced", "n_from", lambda t, v: log_spaced(v, 20, 3), 10, 0),
    "log_spaced_n_to": Arg("log_spaced", "n_to", lambda t, v: log_spaced(2, v, 3), 10, 1),
    "log_spaced_k": Arg("log_spaced", "k", lambda t, v: log_spaced(2, 20, v), 10, 0),
    "columns_step": Arg("columns", "step",
                        lambda t, v: list(columns(t, ("upsilon",), 2, 20, step=v)), 10, 0),
    "verify_range_log_samples": Arg("verify_range", "log_samples",
                                    lambda t, v: verify_range(t, "T1", 3, 100, log_samples=v),
                                    10, 0),
    "exp_integral_order": Arg("exp_integral", "a", lambda t, v: exp_integral(v, 1.0), 1, 0),
    "log_integral_expansion_terms": Arg("log_integral_expansion", "terms",
                                        lambda t, v: log_integral_expansion(100.0, v), 3, 0),
    "QuadratureSpec_max_depth": Arg("QuadratureSpec", "max_depth",
                                    lambda t, v: QuadratureSpec(max_depth=v), 10, -1),
}

REAL_ARGS = {
    "pi": Arg("pi", "n", pi, 10.5, -1, LIMIT + 0.5),
    "theta": Arg("theta", "x", theta, 10.5, -0.5, LIMIT + 0.5),
    "check_dusart_theta": Arg("check_dusart_theta", "x", check_dusart_theta,
                              10.5, 1.5, LIMIT + 0.5),
    "check_dusart_pi": Arg("check_dusart_pi", "n", check_dusart_pi, 10.5, 1.5, LIMIT + 0.5),
    "evaluate_theorem_theta": Arg("evaluate_theorem", "n",
                                  lambda t, v: evaluate_theorem(t, "TB2", v),
                                  10.5, 1.5, LIMIT + 0.5),
    "error_terms": Arg("error_terms", "n", lambda t, v: error_terms(v), 10.5, 1.5),
    "kappa": Arg("kappa", "n", lambda t, v: kappa(v), 10.5, 1.5),
    "rhs_value": Arg("rhs_value", "n", lambda t, v: rhs_value("T1", v), 10.5, 1.5),
    "exp_integral_z": Arg("exp_integral", "z", lambda t, v: exp_integral(1, v), 1.5, 0.0),
    "log_integral": Arg("log_integral", "n", lambda t, v: log_integral(v), 10.5, 1.5),
    "log_integral_expansion": Arg("log_integral_expansion", "n",
                                  lambda t, v: log_integral_expansion(v, 3), 10.5, 2.0),
    "QuadratureSpec_abs_tol": Arg("QuadratureSpec", "abs_tol",
                                  lambda t, v: QuadratureSpec(abs_tol=v), 1e-10, 0.0),
    "integrate_a": Arg("integrate", "a", lambda t, v: integrate(math.sin, v, 20.0), 10.5, None),
    "integrate_b": Arg("integrate", "b", lambda t, v: integrate(math.sin, 1.0, v), 10.5, 1.0),
    "lambert_w": Arg("lambert_w", "x", lambda t, v: lambert_w(v), 10.5, -0.5),
}

# sweep ranges and single points of the integer bounds: an integral float
# counts as an integer there
RANGE_ARGS = {
    "evaluate_theorem": Arg("evaluate_theorem", "n", lambda t, v: evaluate_theorem(t, "T1", v),
                            10, 1, LIMIT + 1),
    "perfecter_bounds": Arg("perfecter_bounds", "n", perfecter_bounds, 10, 1, LIMIT + 1),
    "verify_range_n_from": Arg("verify_range", "n_from",
                               lambda t, v: verify_range(t, "T1", v, 20), 10, 1),
    "verify_range_n_to": Arg("verify_range", "n_to", lambda t, v: verify_range(t, "T1", 2, v),
                             10, 1, LIMIT + 1),
}

# exported records the package fills in itself, from checked arguments
RECORDS = {"BertrandCheck", "BoundReport", "ConstantEntry", "ErrorTerms",
           "MeanLocation", "PerfecterResult", "PrimeTable", "RangeSummary",
           "ThetaClassed", "UpsilonResult", "Valuation", "ValuationProfile"}

# refused by every argument
ALWAYS_REFUSED = (math.nan, math.inf, -math.inf, "10")


@pytest.fixture(autouse=True)
def deadline():
    """A call that never returns fails after 10 s instead of stalling the
    suite (SIGALRM, where the platform has it)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def hung(signum, frame):
        raise TimeoutError("the call did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check(arg: Arg, table, refused, accepted):
    for v in refused + (() if arg.low is None else (arg.low,)):
        with pytest.raises(DomainError):
            arg.call(table, v)
    if arg.high is not None:
        with pytest.raises(OutOfRangeError):
            arg.call(table, arg.high)
    for v in accepted:
        arg.call(table, v)


@pytest.mark.parametrize("name", INTEGER_ARGS)
def test_rejects_non_integers(name, table_small):
    arg = INTEGER_ARGS[name]
    _check(arg, table_small, (10.5, 10.0) + ALWAYS_REFUSED, (arg.good,))


@pytest.mark.parametrize("name", REAL_ARGS)
def test_rejects_non_finite_reals(name, table_small):
    arg = REAL_ARGS[name]
    _check(arg, table_small, ALWAYS_REFUSED, (arg.good,))


@pytest.mark.parametrize("name", RANGE_ARGS)
def test_range_ends_take_integral_floats_only(name, table_small):
    arg = RANGE_ARGS[name]
    _check(arg, table_small, (10.5,) + ALWAYS_REFUSED, (arg.good, float(arg.good)))


CALLS_ONCE_WRONG = {
    "digit_sum(10, nan)": lambda t: digit_sum(10, math.nan),
    "is_prime(inf)": lambda t: is_prime(math.inf),
    "is_prime(nan)": lambda t: is_prime(math.nan),
    "legendre_valuation(10, nan)": lambda t: legendre_valuation(10, math.nan),
    "digit_sum(10, 2.5)": lambda t: digit_sum(10, 2.5),
    "squarefree_kernel([(2, 1.5), (3, 1)])": lambda t: squarefree_kernel([(2, 1.5), (3, 1)]),
    "kappa(nan)": lambda t: kappa(math.nan),
    "theta_classed(t, 10, 2.0)": lambda t: theta_classed(t, 10, 2.0),
    "log_spaced(2, 10, 2.5)": lambda t: log_spaced(2, 10, 2.5),
    "factorial_windows(t, 2, 10, 0)": lambda t: factorial_windows(t, 2, 10, 0),
}


@pytest.mark.parametrize("name", CALLS_ONCE_WRONG)
def test_calls_that_looped_returned_or_raised_bare_errors(name, table_small):
    # the first two looped forever, the next five returned a value computed
    # from the bad argument, and the last three raised a bare TypeError (or,
    # for factorial_windows, a ValueError once iterated)
    with pytest.raises(DomainError):
        CALLS_ONCE_WRONG[name](table_small)


def _numeric(param: inspect.Parameter) -> bool:
    ann = param.annotation
    if not isinstance(ann, str):
        ann = getattr(ann, "__name__", "")
    return ann.removesuffix(" | None") in ("int", "float")


def test_every_exported_numeric_argument_is_tabled():
    tabled = {(a.func, a.param)
              for table in (INTEGER_ARGS, REAL_ARGS, RANGE_ARGS) for a in table.values()}
    assert all(_is_record(getattr(factprimes, r)) for r in RECORDS)
    missing = []
    for name, obj in vars(factprimes).items():
        if (name.startswith("_") or not callable(obj) or name in RECORDS
                or (isinstance(obj, type) and issubclass(obj, BaseException))):
            continue
        missing += [f"{name}.{p.name}" for p in inspect.signature(obj).parameters.values()
                    if _numeric(p) and (name, p.name) not in tabled]
    assert missing == []


def _is_record(obj) -> bool:
    # a NamedTuple or a report.Record: a class of named, read-only fields
    return isinstance(obj, type) and (issubclass(obj, Record) or (
        issubclass(obj, tuple) and hasattr(obj, "_fields")))


def test_record_fields_are_read_only(table_small):
    t = table_small
    records = {
        "BertrandCheck": bertrand_equivalence(t, 20),
        "BoundReport": evaluate_theorem(t, "T1", 20),
        "ConstantEntry": default_constants().entries["c1"],
        "ConstantsTable": default_constants(),
        "ErrorTerms": error_terms(20),
        "MeanLocation": mean_location(t, 100),
        "PerfecterResult": perfecter_factorial(t, 20),
        "PrimeTable": t,
        "QuadratureSpec": QuadratureSpec(),
        "RangeSummary": verify_range(t, "T1", 3, 20)[1],
        "ThetaClassed": theta_classed(t, 20, 2),
        "UpsilonResult": upsilon(t, 20),
        "Valuation": legendre_valuation(20, 3),
        "ValuationProfile": full_decomposition(t, 20),
    }
    assert RECORDS <= set(records)
    for name, record in records.items():
        cls = getattr(factprimes, name)
        assert type(record) is cls and _is_record(cls) and cls._fields, name
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record), name
    assert not pickle.loads(pickle.dumps(t)).bits.flags.writeable
