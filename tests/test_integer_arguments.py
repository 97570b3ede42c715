"""Every entry point that takes an integer n refuses a non-integral or nan
n with DomainError, instead of a bare TypeError or ValueError or a value
computed from the float."""

import math

import pytest

from factprimes import (DomainError, bertrand_equivalence, digit_sum,
                        full_decomposition, legendre_valuation, mean_location,
                        omega, s1, s2, theta_classed, valuation_vector)
from factprimes.upsilon import omega_window

ENTRY_POINTS = {
    "valuation_vector": lambda t, n: valuation_vector(t, n),
    "full_decomposition": lambda t, n: full_decomposition(t, n),
    "mean_location": lambda t, n: mean_location(t, n),
    "theta_classed": lambda t, n: theta_classed(t, n, 2),
    "bertrand_equivalence": lambda t, n: bertrand_equivalence(t, n),
    "omega_window_lo": lambda t, n: omega_window(t, n, 20),
    "omega_window_hi": lambda t, n: omega_window(t, 2, n),
    "s1": lambda t, n: s1(t, n),
    "s1_exact": lambda t, n: s1(t, n, exact=True),
    "s2": lambda t, n: s2(t, n),
    "omega": lambda t, n: omega(n),
    "legendre_valuation": lambda t, n: legendre_valuation(n, 2),
    "digit_sum": lambda t, n: digit_sum(n, 2),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_rejects_non_integers(name, table_small):
    call = ENTRY_POINTS[name]
    for n in (10.5, 10.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            call(table_small, n)
    call(table_small, 10)  # an int is accepted
