"""Memory contracts, measured with tracemalloc (numpy reports its buffers
to it): the prime table costs its bits and ranks plus one sieve segment,
one factorial point costs O(sqrt N), or one value block with its perfecter
log, a perfecter or a decomposition costs one block of temporaries beyond
what it returns, and a walked sweep one verdict slice plus a byte a point
of its walk window.
"""

import math
import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from factprimes import (bounds, build_table, cli, evaluate_theorem,
                        perfecter_factorial, primes, upsilon_value)
from factprimes.upsilon import factorial_points, odd_exponent_primes

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
    # exponent vector alone would take 6.5 MB and the odd-exponent primes
    # 4.5 MB: the blocks are reduced one by one
    _, peak = traced_peak(perfecter_factorial, table_big, n or table_big.limit)
    assert peak <= 32 * primes._PREFIX_BLOCK


def test_odd_exponent_primes_cost_their_array_and_one_block(table_big):
    odd, peak = traced_peak(odd_exponent_primes, table_big, table_big.limit)
    assert peak <= odd.nbytes + 32 * primes._PREFIX_BLOCK


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_decompose_costs_the_table_and_one_block(table, fmt, monkeypatch):
    # the 149k factor rows at N would take 3.6 MB as the arrays of primes
    # and exponents; they are written block by block instead (N, not a
    # larger n: tracemalloc makes every rendered row slow)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        code, peak = traced_peak(cli.main, ["decompose", str(N), "--format", fmt])
    assert code == cli.EXIT_OK
    table_bytes = table.bits.nbytes + table.rank.nbytes
    assert peak <= table_bytes + 3 * primes._SEGMENT // 2 + 32 * primes._PREFIX_BLOCK


def test_no_query_builds_the_prime_array():
    table = build_table(200_000)
    starts = {tid: bounds.BOUNDS[tid].start if tid.startswith("S32") else 3
              for tid in bounds.BOUNDS}
    for tid, lo in starts.items():
        list(bounds.sweep(table, tid, lo, 199_000, log_samples=30))
        evaluate_theorem(table, tid, 199_999)
    evaluate_theorem(table, "TB2", 1234.5)
    perfecter_factorial(table, 199_999)
    upsilon_value(table, 199_999)
    # scattered theta points read the log directory, not the prefix
    assert "log_prefix" not in vars(table)
    for tid, lo in starts.items():
        list(bounds.sweep(table, tid, lo, 70_000))
    # nor do runs of theta points: they carry theta slice by slice
    assert "primes" not in vars(table) and "log_prefix" not in vars(table)


def test_walked_sweep_memory_does_not_grow_with_the_walk_window(table, monkeypatch):
    # the running sums are carried one verdict slice at a time, so the
    # only window-long array held while slices are out is the factor
    # pass's int8 Omega: a byte a point, against 20 with window-long sums.
    # S32's factor pass adds its int32 remainders and int64 log changes,
    # and two int64 arrays over half the window in its pass over p = 2:
    # 21 bytes a point, as its cofactor step takes 2^14 points at a time
    size = bounds.slice_points(N)
    monkeypatch.setattr(bounds, "slice_points", lambda n_to: size)
    for tid, lo, per_point in (("T2", 3, 2), ("S32", 4, 24)):
        peaks = {}
        for walk in (1 << 15, 1 << 17):
            monkeypatch.setattr(bounds, "walk_window", lambda n_to, w=walk: w)
            windows = bounds.sweep(table, tid, lo, N)
            summary, peaks[walk] = traced_peak(bounds.summarize_reports, tid, lo, N, None,
                                               windows)
            assert summary.all_hold and summary.n_checked == N - lo + 1
        assert peaks[1 << 17] - peaks[1 << 15] <= per_point * ((1 << 17) - (1 << 15)), tid


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


def mallopt_calls(monkeypatch, argv):
    """The glibc thresholds cli.main sets for argv, by parameter."""
    calls = {}

    def mallopt(param, value):
        calls[param] = value
        return 1
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    # a sieve cap of 2 refuses every run here before it builds a table
    assert cli.main(argv + ["--max-sieve", "2"]) == cli.EXIT_RESOURCE
    return calls[cli._M_MMAP_THRESHOLD], calls[cli._M_TRIM_THRESHOLD]


@pytest.mark.parametrize("n_to", [70_000, 10**6, 4 * 10**6, 2 * 10**7, 10**8,
                                  2 * 10**8, 10**12])
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_mmap_threshold_covers_the_walk_window(monkeypatch, capsys, n_to, command):
    # glibc serves a request of the mmap threshold or more (with its
    # 16-byte header) by a fresh mapping, every page of which faults anew:
    # an int64 array over the walk window must stay below the threshold,
    # or an exhaustive T1 sweep to 2e7 takes 100x the minor faults
    argv = (["verify", "T1"] if command == "verify" else ["scan", "--out", "scan.csv"])
    mmap, trim = mallopt_calls(monkeypatch, argv + ["--from", "3", "--to", str(n_to)])
    assert mmap > 8 * bounds.walk_window(n_to) + 16
    assert trim >= 16 * mmap


@pytest.mark.parametrize("argv", [
    ["verify", "T2", "--from", "3", "--to", "50100"],
    ["verify", "C3", "--from", "12602987", "--to", "12622986"],
    ["verify", "T4", "--from", "3", "--to", "20000000", "--log-samples", "200"],
    ["verify", "TB2", "--from", "2", "--to", "100000000"],
    ["scan", "--from", "2", "--to", "20000000", "--step", "600000", "--out", "scan.csv"],
    ["perfecter", "20000000"],
    ["decompose", "1000000"],
], ids=lambda argv: "-".join(argv[:2]))
def test_short_runs_keep_the_small_thresholds(monkeypatch, capsys, argv):
    # runs that walk windows of at most 2^16 points, or none at all: theta
    # and pi read the table, log-spaced points and wide steps are anchored
    assert mallopt_calls(monkeypatch, argv) == (1 << 20, 16 << 20)
