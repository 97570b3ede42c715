"""Exception hierarchy shared by all factprimes modules, and the argument
check every entry point applies."""

import numbers
import operator
import sys


class FactprimesError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FactprimesError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class OutOfRangeError(FactprimesError, ValueError):
    """A query exceeds what a precomputed table can answer."""


class ResourceLimitError(FactprimesError, RuntimeError):
    """A request would exceed a configured memory or runtime cap."""


class WorkerError(FactprimesError, RuntimeError):
    """A worker process of a split range failed or could not be started."""


class QuadratureError(FactprimesError, ArithmeticError):
    """Adaptive integration failed to converge within the depth limit.

    The best available estimate is attached so callers can decide whether
    to accept it anyway.
    """

    def __init__(self, message: str, best_value: float, err_estimate: float):
        super().__init__(message)
        self.best_value = best_value
        self.err_estimate = err_estimate


def checked(what: str, x, least=None, *, above=None, most=None, table=None,
            real: bool = False):
    """x, once it passes the argument rule of every entry point; what
    names x in the error.

    x must be an integer (a float is refused, even an integral one) and is
    returned as an int, or, with real, any finite number, returned as it
    is.  Then it must be >= least, > above and <= most, each when given,
    else DomainError, and <= table.limit when a primes.PrimeTable is
    given, else OutOfRangeError.
    """
    if real:
        if not (isinstance(x, numbers.Real) and abs(x) <= sys.float_info.max):
            raise DomainError(f"{what} must be a finite number, got {x!r}")
    else:
        try:
            x = operator.index(x)
        except TypeError:
            raise DomainError(f"{what} must be an integer, got {x!r}") from None
    if least is not None and x < least:
        raise DomainError(f"{what} must be >= {least}, got {x}")
    if above is not None and x <= above:
        raise DomainError(f"{what} must be > {above}, got {x}")
    if most is not None and x > most:
        raise DomainError(f"{what} must be <= {most}, got {x}")
    if table is not None and x > table.limit:
        raise OutOfRangeError(f"{what}={x} exceeds table limit {table.limit}")
    return x
