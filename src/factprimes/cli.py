"""Command-line front end.

Commands: decompose, verify, constants, perfecter, scan.  All numeric
output is rendered with fixed 12-significant-digit formatting and '.' as
the decimal point, so identical invocations produce byte-identical output
regardless of locale or platform.  Per-n rows (verify --out, scan,
decompose) go through one row writer, _write_rows: a %-template, its
fields %d, %Nd, %.12g and %s, is rendered in numpy ROW_SLICE rows at a
time by the rows module, which this module imports only once a run is to
write rows; the text is template % row byte for byte, and %.12g is fmt
byte for byte.  Scalar lines use fmt.
verify and scan take their points and verdicts from bounds.columns and
bounds.evaluate; no bound formula, comparison or start is restated here.
They run their ranges through _run_range, and keep only their per-chunk
work and result lines.  Every id refuses --from below 2.

--jobs N splits an exhaustive verify range, or a scan range, into at most N
contiguous chunks.  This process builds the table and the constants, forks
one worker for each chunk after the first (os.fork: a worker inherits the
imported package and the table copy-on-write, where starting an interpreter
would cost about 190 ms), and sweeps the first chunk itself.  A worker
writes its rows to an unlinked file beside --out and sends back its
partial result; the parts are merged in chunk order and the rows appended
with os.sendfile, so the output is byte-identical at every N.  A range is
split only into chunks of at least MIN_CHUNK_POINTS points, or
MIN_CHUNK_ROWS when rows are written, so that every chunk pays back its
fork; shorter ranges, log-spaced samples, --jobs 1 and platforms other than
Linux run in this process alone.  Whatever ends a split run, an error, an
interrupt or a kill, no worker outlives it.

Run as a program (``python -m factprimes.cli`` or the ``factprimes``
script, that is main() without argv), main first calls gc.freeze(): the
objects numpy and the package made at import leave the collector's reach,
so the interpreter's exit skips a full collection over them (about 17 ms a
process on a 2-vCPU x86-64 host).  main(argv) with an explicit list, as
tests and tracers call it, leaves the collector's state alone.

Exit codes: 0 success / all checks hold, 1 a verified inequality failed or
a constant missed its tolerance, 2 bad arguments, 3 resource limits,
unwritable output or a failed worker.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import itertools
import os
import pickle
import sys
import tempfile
from itertools import pairwise
from typing import Sequence

import numpy as np

from . import bounds, perfecter, primes
from .errors import DomainError, OutOfRangeError, ResourceLimitError, WorkerError, checked
from .upsilon import odd_exponent_blocks, upsilon as upsilon_stats
from .valuation import decomposition_blocks

DEFAULT_MAX_SIEVE = 20_000_000
MAX_SIEVE_ENV = "FACTPRIMES_MAX_SIEVE"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def fmt(x) -> str:
    """Deterministic 12-significant-digit rendering (ints stay ints)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


# Rows rendered at a time: the writer's memory is O(ROW_SLICE), whatever
# the length of the columns it is given.  Larger slices render faster but
# hold more at once: on a 2-vCPU x86-64 host a verify --out row took
# 0.33-0.35 us to render at 1024 rows and 0.28-0.32 us at 2048, whose
# 50k-point run peaked 0.5 MB higher.
ROW_SLICE = 1024

# bool cells by index, as fmt renders them, NUL-padded to whole words
_BOOL = np.array([fmt(False), fmt(True)], dtype="S8")


def _bool_cells(mask: np.ndarray) -> np.ndarray:
    return _BOOL[mask.astype(np.intp)]


def _write_rows(fh, template: str, columns: Sequence[np.ndarray]) -> None:
    """Write template % row for every row of the aligned numpy columns.

    Int columns go to %d and %Nd, int or float columns to %.12g (fmt byte
    for byte, inf, nan and -0.0 included) and fixed-width bytes columns
    (numpy "S") to %s.  Each slice of ROW_SLICE rows is one string from
    rows.render, written with one write call (an unbuffered stdout turns
    every write into a system call).
    """
    from .rows import render
    for lo in range(0, len(columns[0]), ROW_SLICE):
        fh.write(render(template, [c[lo:lo + ROW_SLICE] for c in columns]))


def _sieve_limit(needed: int, max_sieve: int | None) -> int:
    # the sieve cap (--max-sieve, else the environment, else the default),
    # checked against the request before any work; a cap below 2 admits no
    # sieve at all: a malformed argument, not a limit
    source, cap = "--max-sieve", max_sieve
    if cap is None:
        source, env = MAX_SIEVE_ENV, os.environ.get(MAX_SIEVE_ENV)
        try:
            cap = DEFAULT_MAX_SIEVE if env is None else int(env)
        except ValueError as exc:
            raise DomainError(f"{MAX_SIEVE_ENV} must be an integer, got {env!r}") from exc
    if cap < 2:
        raise DomainError(f"{source} must be >= 2, got {cap}")
    if needed > cap:
        raise ResourceLimitError(
            f"request needs a sieve up to {needed}, above the cap {cap} "
            f"(raise --max-sieve or {MAX_SIEVE_ENV})")
    return cap


# ------------------------------------------------------------------- chunks

# A range is split only where every chunk pays back its fork several times
# over.  On a 2-vCPU x86-64 host a fork round trip (fork, os._exit, waitpid)
# of a process holding the package and a table took 2.1-2.8 ms, before the
# copy-on-write faults of both processes, a swept point 0.05-0.16 us with
# no row written, and a point with its row written 0.5-0.6 us: 2^17 points
# are 7-21 ms of work, and 2^15 rows 16-20 ms.  With rows written, --jobs 2
# measured even with --jobs 1 at 2^14 rows a chunk (verify T2 to 50100:
# 168-176 ms either way, 40 alternating runs) and 3-4% faster from 2^15 on.
MIN_CHUNK_POINTS = 1 << 17
MIN_CHUNK_ROWS = 1 << 15

# Workers need os.fork, and appending their rows needs an os.sendfile that
# copies from file to file: Linux has both.
_CAN_SPLIT = sys.platform.startswith("linux")


def _chunks(n_from: int, n_to: int, step: int, jobs: int, size: int
            ) -> list[tuple[int, int]]:
    """The points n_from, n_from + step, ... <= n_to cut into at most jobs
    contiguous chunks of at least size points each, as (first, last)
    pairs; one chunk, [n_from, n_to], where no cut is worth it."""
    points = (n_to - n_from) // step + 1
    count = min(jobs, points // size) if _CAN_SPLIT else 1
    if count < 2:
        return [(n_from, n_to)]
    cuts = [n_from + points * i // count * step for i in range(count + 1)]
    return [(a, b - step) for a, b in pairwise(cuts)]


def _in_chunks(chunks, work, fh) -> list:
    """[work(first, last, out) for each chunk], in chunk order, where work
    writes the chunk's rows to out when fh is given.

    This process runs the first chunk with out = fh, after forking one
    worker for each other chunk.  A worker writes to an unlinked file beside
    fh, sends its result back pickled through a pipe and leaves by
    os._exit; its rows are then appended to fh in the kernel.  A worker that
    fails raises WorkerError here, and on any error or interrupt the
    workers still running are killed and reaped.
    """
    if len(chunks) == 1:
        return [work(*chunks[0], fh)]
    where = None if fh is None else os.path.dirname(os.path.abspath(fh.name))
    running: dict[int, tuple[int, int]] = {}  # pid -> chunk, until reaped
    parent = os.getpid()
    with contextlib.ExitStack() as stack:
        stack.callback(_stop, running)
        workers = []
        for chunk in chunks[1:]:
            out = None if fh is None else stack.enter_context(
                tempfile.TemporaryFile("w+", newline="", dir=where))
            r, w = os.pipe()
            pipe = stack.enter_context(open(r, "rb"))
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(w)
                raise WorkerError(f"cannot fork: {exc}") from None
            if pid == 0:
                _worker(work, chunk, out, w, parent)
            os.close(w)
            running[pid] = chunk
            workers.append((pid, pipe, out))
        results = [work(*chunks[0], fh)]
        for pid, pipe, out in workers:
            sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            first, last = running.pop(pid)
            ok, result = (pickle.loads(sent) if code == 0 and sent
                          else (False, f"exit status {code}"))
            if not ok:
                raise WorkerError(f"n in [{first}, {last}]: {result}")
            results.append(result)
            if out is not None:
                fh.flush()
                _append(fh.fileno(), out.fileno())
    return results


# linux/prctl.h's option for the signal a process gets when its parent
# dies, and Linux's SIGKILL (importing signal would cost a split run 1 ms)
_PR_SET_PDEATHSIG, _SIGKILL = 1, 9


def _worker(work, chunk, out, pipe: int, parent: int):
    # the body of a forked worker: it leaves by os._exit, never returning
    # into the frames it was forked from, and dies with its parent, however
    # that ends (SIGKILL included), or at once if it already has
    code = 1
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, _SIGKILL)
        if os.getppid() != parent:
            return
        try:
            result = True, work(*chunk, out)
            if out is not None:
                out.flush()
        except Exception as exc:  # the parent reports it and exits
            result = False, f"{type(exc).__name__}: {exc}"
        with open(pipe, "wb") as fh:
            pickle.dump(result, fh)
        code = 0
    finally:
        os._exit(code)


def _stop(running: dict[int, tuple[int, int]]) -> None:
    # kill and reap the workers not reaped yet (after an error or interrupt)
    for pid in running:
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)


def _append(dst: int, src: int) -> None:
    # the whole file src appended to dst with no copy through this process
    size, done = os.fstat(src).st_size, 0
    while done < size:
        done += os.sendfile(dst, src, done, size - done)


class _Unwritable(Exception):
    """--out could not be opened or written; main exits with EXIT_RESOURCE."""


def _run_range(args, kinds: tuple[str, ...], header: str, work, *, step: int = 1,
               log_samples: int | None = None) -> list:
    """[work(table, first, last, out) for each chunk of the range], out the
    open --out or None: the steps verify and scan share.
    The sieve cap and bounds.columns' checks come first, so a refused
    request neither opens --out nor sieves."""
    n_from, n_to = args.n_from, args.n_to
    _keep_window_buffers(bounds.walk_points(kinds, n_from, n_to, step=step,
                                            log_samples=log_samples))
    cap = _sieve_limit(n_to, args.max_sieve)
    bounds.columns(None, kinds, n_from, n_to, step=step, log_samples=log_samples)
    chunks = _chunks(n_from, n_to, step, args.jobs if log_samples is None else 1,
                     MIN_CHUNK_ROWS if args.out else MIN_CHUNK_POINTS)
    try:
        with (open(args.out, "w", newline="") if args.out
              else contextlib.nullcontext()) as fh:
            if fh is not None:
                # the row writer's module, compiled before the table is
                # built, so that its compile transient is not stacked on
                # the table in the run's peak RSS (0.1 MB lower on T2 to 5e4)
                from . import rows  # noqa: F401
            table = primes.build_table(n_to, limit_cap=cap)
            bounds.default_constants()  # computed once, before any fork
            if fh is not None:
                fh.write(header + "\n")
            return _in_chunks(chunks, functools.partial(work, table), fh)
    except OSError as exc:
        if not args.out:
            raise
        raise _Unwritable(f"cannot write {args.out}: {exc}") from None


# ---------------------------------------------------------------- decompose

def cmd_decompose(args) -> int:
    # the sieve cap, then n, then the row writer's module (compiled before
    # the table, as in _run_range), then the table
    cap = _sieve_limit(args.n, args.max_sieve)
    checked("n", args.n, 2)
    from . import rows  # noqa: F401
    table = primes.build_table(args.n, limit_cap=cap)
    res = upsilon_stats(table, args.n)
    # the factor rows go out block by block: no array over all primes <= n
    blocks, out = decomposition_blocks(table, args.n), sys.stdout

    if args.format == "json":
        import json
        # json.dumps(..., separators=(",", ":")) of {n, factors, upsilon, mean}:
        # the first pair, of the prime 2, opens the list, and a comma leads
        # every later one
        ps, vs = next(blocks)
        out.write('{"n":%d,"factors":[[%d,%d]' % (args.n, ps[0], vs[0]))
        for ps, vs in itertools.chain([(ps[1:], vs[1:])], blocks):
            _write_rows(out, ",[%d,%d]", (ps, vs))
        out.write('],"upsilon":%d,"mean":%s}\n' % (
            res.upsilon, json.dumps(float(fmt(res.mean)))))
    elif args.format == "csv":
        out.write("p,v\n")
        for ps, vs in blocks:
            _write_rows(out, "%d,%d\n", (ps, vs))
        print(f"# upsilon={res.upsilon}")
        print(f"# mean={fmt(res.mean)}")
    else:
        out.write(f"{args.n}! = product of:\n")
        template = f"  %{len(str(primes.nth_prime(table, res.pi_n)))}d ^ %d\n"
        for ps, vs in blocks:
            _write_rows(out, template, (ps, vs))
        print(f"upsilon({args.n}) = {res.upsilon}")
        print(f"mean exponent = {res.mean_exact.numerator}/{res.mean_exact.denominator}"
              f" = {fmt(res.mean)}")
    return EXIT_OK


# ------------------------------------------------------------------- verify

# violations printed with their sides; the summary line counts them all
MAX_SHOWN = 20

CSV_HEADER = "theorem_id,n,lhs,rhs,slack,holds,applicable,marginal"

# the holds,applicable,marginal cells, indexed by 4*holds + 2*applicable + marginal
_FLAGS = np.array([f"{fmt(bool(c & 4))},{fmt(bool(c & 2))},{fmt(bool(c & 1))}"
                   for c in range(8)], dtype="S20")


def _stream(tid, windows, fh, shown):
    """Pass sweep slices through, writing each point's CSV row to fh (when
    given) and keeping the first MAX_SHOWN violations in shown."""
    template = tid + ",%d,%.12g,%.12g,%.12g,%s\n"
    for w in windows:
        if fh is not None:
            flags = _FLAGS[w.holds * np.uint8(4) + w.applicable * np.uint8(2) + w.marginal]
            _write_rows(fh, template, (w.n, w.lhs, w.rhs, w.slack, flags))
        bad = np.flatnonzero(w.applicable & ~w.holds)[:MAX_SHOWN - len(shown)]
        shown += zip(*(a[bad].tolist() for a in (w.n, w.lhs, w.rhs, w.slack)))
        yield w


def cmd_verify(args) -> int:
    bound = bounds.BOUNDS[bounds.resolve_theorem_id(args.theorem)]

    def work(table, first, last, fh):
        shown: list[tuple] = []
        windows = bounds.sweep(table, bound.id, first, last, log_samples=args.log_samples)
        return (bounds.summarize_reports(bound.id, first, last, args.log_samples,
                                         _stream(bound.id, windows, fh, shown)), shown)

    parts = _run_range(args, (bound.lhs,), CSV_HEADER, work, log_samples=args.log_samples)
    summary = bounds.merge_summaries([part for part, _ in parts])
    shown = [v for _, part in parts for v in part][:MAX_SHOWN]

    skipped = summary.n_checked - summary.n_applicable
    note = f" ({skipped} below the validity window n >= {bound.start})" if skipped else ""
    print(f"{bound.id} [{args.n_from}..{args.n_to}] {summary.sampling}: "
          f"checked {summary.n_checked}{note}")
    if not summary.n_applicable:
        print("no verdict: no point in the validity window")
        return EXIT_OK
    if summary.all_hold:
        print(f"all hold; min slack {fmt(summary.min_slack)} at n={summary.argmin_n}")
        return EXIT_OK
    print(f"VIOLATIONS at {len(summary.violations)} point(s): "
          + ", ".join(str(n) for n, *_ in shown)
          + (", ..." if len(summary.violations) > len(shown) else ""))
    for n, lhs, rhs, slack in shown:
        print(f"  n={n}: lhs={fmt(lhs)} rhs={fmt(rhs)} slack={fmt(slack)}")
    return EXIT_VIOLATION


# ---------------------------------------------------------------- constants

def cmd_constants(args) -> int:
    if not args.tol >= 0:  # nan too
        raise DomainError(f"--tol must be a number >= 0, got {args.tol!r}")
    table = bounds.compute_constants()
    names = list(table.entries)
    if args.only is not None:
        wanted = [w.strip() for w in args.only.split(",") if w.strip()]
        if not wanted:
            raise DomainError(f"--only names no constant: {args.only!r}")
        unknown = [w for w in wanted if w not in table.entries]
        if unknown:
            raise DomainError(f"unknown constant name(s): {', '.join(unknown)}")
        names = wanted
    header = f"{'name':<8} {'recomputed':>20} {'tabulated':>16} {'abs_diff':>12}  method"
    print(header)
    worst = 0.0
    for name in names:
        e = table.entries[name]
        worst = max(worst, e.abs_diff)
        print(f"{e.name:<8} {fmt(e.value):>20} {fmt(e.tabulated):>16} "
              f"{fmt(e.abs_diff):>12}  {e.method}")
    ok = worst <= args.tol
    print(f"max |recomputed - defining expression| = {fmt(worst)} "
          f"(tolerance {fmt(args.tol)}) -> {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------- perfecter

def _decimal(x: int) -> str:
    # str() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default, where the limit exists), a guard for untrusted input only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(x)
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_perfecter(args) -> int:
    # the sieve cap, then n, then the table
    cap = _sieve_limit(args.n, args.max_sieve)
    checked("n", args.n, 1)
    table = primes.build_table(max(args.n, 2), limit_cap=cap)
    res = perfecter.perfecter_factorial(table, args.n,
                                        exact_max_bits=args.exact_max_bits)
    # the first primes from the blocks' head: the whole set is never held
    shown = itertools.islice(itertools.chain.from_iterable(
        odd_exponent_blocks(table, args.n)), 30)
    print(f"perfecter({args.n}!):")
    print(f"  odd-exponent primes ({res.count}): "
          + (" ".join(map(str, shown)) + (" ..." if res.count > 30 else "") or "none"))
    print(f"  log value = {fmt(res.log_value)}")
    if res.exact_value is not None:
        print(f"  exact value = {_decimal(res.exact_value)}")
    else:
        print(f"  exact value suppressed (over {args.exact_max_bits} bits; "
              "raise --exact-max-bits)")
    if args.n >= bounds.BOUNDS["S32_perfecter"].start:
        # the S32 comparisons, on the log value already computed
        lower, upper = (float(v[0]) for v in bounds.perfecter_exponents(
            np.array([args.n], dtype=np.float64)))
        print(f"  lower bound exponent {fmt(lower)} < log value: "
              f"{fmt(res.log_value > lower)}")
        print(f"  upper bound exponent {fmt(upper)} > log value: "
              f"{fmt(res.log_value < upper)}")
    return EXIT_OK


# --------------------------------------------------------------------- scan

SCAN_HEADER = "n,upsilon,pi,mean,t1_rhs,t1_holds,t4_rhs,t4_holds,c3_rhs,c3_holds,perfecter_log"
_SCAN_BOUNDS = ("T1_upper_upsilon", "T4_lower_upsilon", "C3_upper_mean")
# the left-hand sides of a scan row beyond upsilon
_SCAN_KINDS = ("mean", "perfecter")


def _scan_rows(fh, table, cols) -> None:
    """Write one slice of scan rows, the T1/T4/C3 cells from the registry's
    verdicts.  A row's T4 and C3 cells are empty where that bound is not
    applicable; applicability is a suffix of the ascending rows, so the
    rows split into at most three runs, one template each."""
    t1, t4, c3 = (bounds.evaluate(table, bounds.BOUNDS[tid], cols) for tid in _SCAN_BOUNDS)
    head = (cols.n, cols.upsilon, cols.pi, c3.lhs, t1.rhs, _bool_cells(t1.holds))
    cells = [(w.rhs, _bool_cells(w.holds)) for w in (t4, c3)]
    cuts = {len(cols.n) - np.count_nonzero(w.applicable) for w in (t4, c3)}
    for a, b in pairwise(sorted({0, len(cols.n)} | cuts)):
        shown = [t4.applicable[a], c3.applicable[a]]
        template = "".join("%.12g,%s," if on else ",," for on in shown)
        extra = [c[a:b] for on, pair in zip(shown, cells) if on for c in pair]
        _write_rows(fh, "%d,%d,%d,%.12g,%.12g,%s," + template + "%.12g\n",
                    [c[a:b] for c in head] + extra + [cols.log_perfecter[a:b]])


def cmd_scan(args) -> int:
    def work(table, first, last, out):
        rows = 0
        for cols in bounds.columns(table, _SCAN_KINDS, first, last, step=args.step):
            _scan_rows(out, table, cols)
            rows += len(cols.n)
        return rows

    rows = sum(_run_range(args, _SCAN_KINDS, SCAN_HEADER, work, step=args.step))
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------- main

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_window_buffers(points: int) -> None:
    """Fix glibc's mmap threshold above the largest array of a walk window
    of points points (8 bytes a point), at least 1 MiB, and its trim
    threshold at 16 times that.

    A sweep allocates and frees the same window arrays again and again.
    With glibc's dynamic thresholds each of them is a fresh mmap unless a
    larger block has been freed before (the table holds no such block), and
    every page of it faults anew: about 27x the minor faults and 12-18% more
    time on an exhaustive T1 sweep to 2e7 with 2^16-point windows, and 100x
    the faults with 2^18-point windows under a 1 MiB threshold (2-vCPU
    x86-64, glibc).  Where mallopt is missing this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap = max(1 << 20, 16 * points)
    mallopt(_M_MMAP_THRESHOLD, mmap)
    mallopt(_M_TRIM_THRESHOLD, 16 * mmap)


def _job_count(text: str) -> int:
    # argparse reports the error on stderr and exits with EXIT_USAGE
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factprimes",
        description="Prime decomposition of n!, exponent-sum statistics, "
                    "explicit bound verification, and minimal square perfecters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_sieve(p):
        p.add_argument("--max-sieve", type=int, default=None, metavar="M",
                       help=f"sieve cap (default {DEFAULT_MAX_SIEVE}, "
                            f"env {MAX_SIEVE_ENV})")

    p = sub.add_parser("decompose", help="prime decomposition of n!")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_max_sieve(p)
    p.set_defaults(func=cmd_decompose)

    def add_range(p):
        # verify and scan: the range, its split and the sieve cap
        p.add_argument("--from", dest="n_from", type=int, required=True)
        p.add_argument("--to", dest="n_to", type=int, required=True)
        p.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                       help="split the range into at most N chunks, one process "
                            "each, where every chunk is long enough to pay for "
                            "its process (log-spaced samples stay in one); the "
                            "output is the same at every N")
        add_max_sieve(p)

    p = sub.add_parser("verify", help="check one bound over a range of n")
    ids = " ".join(b.alias or b.id for b in bounds.BOUNDS.values())
    p.add_argument("theorem", help=f"{ids} or canonical id")
    add_range(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--log-samples", type=int, default=None, metavar="K",
                      help="check K geometrically spaced points instead")
    p.add_argument("--out", default=None, help="write per-n CSV report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="recompute the bound constants")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--only", default=None, metavar="NAMES",
                   help="comma-separated subset, e.g. c1,c5,c9,c10")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("perfecter", help="minimal square perfecter of n!")
    p.add_argument("n", type=int)
    p.add_argument("--exact-max-bits", type=int,
                   default=perfecter.DEFAULT_EXACT_MAX_BITS)
    add_max_sieve(p)
    p.set_defaults(func=cmd_perfecter)

    p = sub.add_parser("scan", help="CSV table of per-n statistics")
    add_range(p)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; argv None means the program's own sys.argv, and
    only then is the collector's state touched (see the module docstring)."""
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_window_buffers(0)  # verify and scan raise them to their windows
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except WorkerError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, OutOfRangeError) as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
