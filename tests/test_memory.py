"""Memory contracts, measured with tracemalloc (numpy reports its buffers
to it): the prime table costs its bits and ranks plus one sieve segment,
one factorial point costs O(sqrt N), or one value block with its perfecter
log, and a perfecter costs its output plus one block of temporaries.
"""

import math
import tracemalloc

import numpy as np
import pytest

from factprimes import (bounds, build_table, cli, evaluate_theorem,
                        perfecter_factorial, primes, upsilon_value)
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


def test_build_table_holds_bits_ranks_and_one_segment():
    table, peak = traced_peak(build_table, N)
    # N/16 bytes of bits and N/32 of ranks, plus one segment of byte flags
    # and its packed words; neither primes nor the log prefix is built
    assert table.bits.nbytes + table.rank.nbytes <= N // 16 + N // 32 + 16
    assert peak <= table.bits.nbytes + table.rank.nbytes + 3 * primes._SEGMENT // 2
    assert "primes" not in vars(table) and "log_prefix" not in vars(table)


def test_log_prefix_is_built_once_on_first_use():
    table = build_table(N)
    prefix, peak = traced_peak(lambda: table.log_prefix)
    assert len(prefix) == len(table) and not prefix.flags.writeable
    assert peak <= prefix.nbytes + 64 * primes._PREFIX_BLOCK
    assert table.log_prefix is prefix
    assert "primes" not in vars(table)


@pytest.mark.parametrize("n", [N // 7, N])
def test_one_factorial_point_costs_sqrt_n(table, n):
    _, peak = traced_peak(upsilon_value, table, n)
    assert peak <= 64 * math.isqrt(N)
    _, peak = traced_peak(factorial_points, table, np.array([n], dtype=np.int64))
    assert peak <= 64 * math.isqrt(N)


@pytest.mark.parametrize("n", [N, None])
def test_perfecter_point_holds_no_prime_array(table_big, n):
    # the odd-exponent primes are summed value block by value block: the
    # 4.5 MB array of them at the table limit is never held
    _, peak = traced_peak(factorial_points, table_big,
                          np.array([n or table_big.limit], dtype=np.int64),
                          perfecter=True)
    assert peak <= 32 * primes._PREFIX_BLOCK


@pytest.mark.parametrize("n", [N, None])
def test_perfecter_costs_its_output_and_one_block(table_big, n):
    # the same block budget from 2e6 to the table limit, where the
    # exponent vector alone would take 6.5 MB
    res, peak = traced_peak(perfecter_factorial, table_big, n or table_big.limit)
    assert peak <= res.odd_primes.nbytes + 64 * primes._PREFIX_BLOCK


def test_no_query_builds_the_prime_array():
    table = build_table(200_000)
    for tid in bounds.BOUNDS:
        lo = bounds.BOUNDS[tid].start if tid.startswith("S32") else 3
        list(bounds.sweep(table, tid, lo, 70_000))
        list(bounds.sweep(table, tid, lo, 199_000, log_samples=30))
        evaluate_theorem(table, tid, 199_999)
    perfecter_factorial(table, 199_999)
    upsilon_value(table, 199_999)
    assert "primes" not in vars(table)


@pytest.mark.parametrize("argv", [
    ["verify", "T1", "--from", "2", "--to", "70000"],
    ["verify", "T2", "--from", "3", "--to", "70000", "--out", "t2.csv"],
    ["verify", "C3", "--from", "12602987", "--to", "12603100"],
    ["verify", "TB2", "--from", "2", "--to", "199000", "--log-samples", "30"],
    ["verify", "PI_UB", "--from", "2", "--to", "70000"],
    ["verify", "S32", "--from", "4", "--to", "199000", "--log-samples", "30"],
    ["perfecter", "199999"],
    ["decompose", "199999", "--format", "csv"],
    ["scan", "--from", "2", "--to", "199000", "--step", "70001", "--out", "scan.csv"],
    ["scan", "--from", "2", "--to", "3000", "--out", "scan.csv"],
], ids=lambda argv: "-".join(argv[:2]))
def test_no_cli_command_reads_the_prime_array(argv, monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("the whole prime array was built")
    monkeypatch.setattr(primes.PrimeTable, "primes", property(refuse))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--max-sieve", "13000000"]) in (cli.EXIT_OK, cli.EXIT_VIOLATION)
