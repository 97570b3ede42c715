"""Memory contracts, measured with tracemalloc (numpy reports its buffers
to it): the prime table costs what it returns, one factorial point costs
O(sqrt N), and a perfecter costs its output plus one block of temporaries.
"""

import math
import tracemalloc

import numpy as np
import pytest

from factprimes import build_table, perfecter_factorial, primes, upsilon_value
from factprimes.upsilon import factorial_points

N = 2_000_000


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def table():
    return build_table(N)


def test_build_table_holds_flags_and_primes_only():
    table, peak = traced_peak(build_table, N)
    # limit/2 flag bytes and the exact-size primes, plus one sieve block
    # of indices; the log prefix is not built
    assert peak <= N // 2 + table.primes.nbytes + 8 * primes._SIEVE_BLOCK
    assert "log_prefix" not in vars(table)


def test_log_prefix_is_built_once_on_first_use(table):
    prefix, peak = traced_peak(lambda: table.log_prefix)
    assert prefix.nbytes == table.primes.nbytes and not prefix.flags.writeable
    assert peak <= prefix.nbytes + 64 * primes._PREFIX_BLOCK
    assert table.log_prefix is prefix


@pytest.mark.parametrize("n", [N // 7, N])
def test_one_factorial_point_costs_sqrt_n(table, n):
    _, peak = traced_peak(upsilon_value, table, n)
    assert peak <= 64 * math.isqrt(N)
    _, peak = traced_peak(factorial_points, table, np.array([n], dtype=np.int64))
    assert peak <= 64 * math.isqrt(N)


@pytest.mark.parametrize("n", [N, None])
def test_perfecter_costs_its_output_and_one_block(table_big, n):
    # the same block budget from 2e6 to the table limit, where the
    # exponent vector alone would take 6.5 MB
    res, peak = traced_peak(perfecter_factorial, table_big, n or table_big.limit)
    assert peak <= res.odd_primes.nbytes + 64 * primes._PREFIX_BLOCK
