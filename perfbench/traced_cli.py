"""Run one factprimes CLI invocation with timing wrappers on the package.

    python perfbench/traced_cli.py TRACE_JSON CLI_ARG...

Wrappers go around the public functions named in ``TRACED``, in every
package module and module-level dict that holds them, so calls through
``bounds._RHS`` or a ``from .x import f`` name are seen too.  A name the
package no longer defines is reported as absent.  Each call is a span;
spans are kept per thread, a span's self time is its length minus the part
its child spans cover (children on worker threads count against the span
that started the pool), and spans are folded into per-name totals in
memory and written to TRACE_JSON when the command returns.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# module -> public functions to time; "rhs_*" matches every name with that prefix.
TRACED = {
    "primes": ("build_table", "kahan_sum", "_kahan_prefix", "pi", "theta",
               "check_dusart_theta", "check_dusart_pi"),
    "valuation": ("valuation_vector", "full_decomposition"),
    "upsilon": ("upsilon_range", "omega_window", "upsilon_value", "upsilon"),
    "special_functions": ("exp_integral", "integrate", "lambert_w"),
    "bounds": ("compute_constants", "verify_range", "evaluate_theorem",
               "summarize_reports", "error_terms", "rhs_*"),
    "perfecter": ("perfecter_factorial", "perfecter_bounds"),
    "cli": ("main",),
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    """Per-name span totals and counters for one process."""

    def __init__(self):
        self.local = threading.local()
        self.root: list = []          # span stack of the thread that calls main
        self.local.stack = self.root
        self.lock = threading.Lock()
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.count_errors: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            local_parent = bool(stack)
            parent = stack[-1] if stack else (tracer.root[-1] if tracer.root else None)
            frame = [0.0, []]  # same-thread child time, other-thread child intervals
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(name, frame, t0, t1, parent, local_parent)
            if count is not None:
                c0 = perf_counter()
                try:
                    count(tracer.counts, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError) as exc:
                    tracer.count_errors.append(f"{name}: {exc!r}")
                # counting is tracer work: keep it out of the parent's self time
                tracer._credit(parent, local_parent, c0, perf_counter())
            return result

        return wrapper

    def _close(self, name, frame, t0, t1, parent, local_parent):
        own = (t1 - t0) - frame[0] - _covered(frame[1])
        with self.lock:
            s = self.spans[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += own
        self._credit(parent, local_parent, t0, t1)

    @staticmethod
    def _credit(parent, local_parent, t0, t1):
        if parent is None:
            return
        if local_parent:
            parent[0] += t1 - t0
        else:
            parent[1].append((t0, t1))

    def record(self) -> dict:
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in self.spans.items()},
                "counts": dict(self.counts), "absent": self.absent,
                "count_errors": self.count_errors}


# ---------------------------------------------------------------- counters

def _count_table(counts, args, kwargs, table):
    counts["primes.table.bytes"] += table.primes.nbytes + table.log_prefix.nbytes


def _count_upsilon_range(counts, args, kwargs, result):
    counts["upsilon.points"] += len(result[0])


def _count_verify(counts, args, kwargs, result):
    reports, summary = result
    counts["bounds.reports_built"] += len(reports)
    counts["bounds.points_checked"] += summary.n_checked
    counts["bounds.useful_reports"] += sum(
        1 for r in reports if (r.applicable and not r.holds) or r.marginal)


def _count_valuation(counts, args, kwargs, v):
    counts["valuation.primes_touched"] += len(v)


def _count_pool(counts, args, kwargs, pool):
    counts["cli.threads"] = max(counts["cli.threads"], getattr(pool, "_max_workers", 1))


COUNTERS = {
    "primes.build_table": _count_table,
    "upsilon.upsilon_range": _count_upsilon_range,
    "bounds.verify_range": _count_verify,
    "valuation.valuation_vector": _count_valuation,
}


def install(tracer: Tracer) -> None:
    """Replace every traced function, wherever the package holds it."""
    import factprimes.cli  # noqa: F401  (imports every module of the package)

    modules = [m for k, m in sys.modules.items()
               if k == "factprimes" or k.startswith("factprimes.")]
    replace = {}
    for mod_name, names in TRACED.items():
        mod = sys.modules.get(f"factprimes.{mod_name}")
        for name in names:
            if name.endswith("*"):
                found = [k for k, v in (vars(mod) if mod else {}).items()
                         if k.startswith(name[:-1]) and callable(v)]
                if not found:
                    tracer.absent.append(f"{mod_name}.{name}")
            else:
                found = [name] if callable(getattr(mod, name, None)) else []
                if not found:
                    tracer.absent.append(f"{mod_name}.{name}")
            for fname in found:
                key = f"{mod_name}.{fname}"
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, tracer.wrap(key, fn, COUNTERS.get(key)))
    # pools the CLI starts count as its worker threads
    cli = sys.modules["factprimes.cli"]
    for k, v in vars(cli).items():
        if isinstance(v, type) and issubclass(v, concurrent.futures.Executor):
            replace[id(v)] = (v, _counted_pool(tracer, v))
    tracer.counts["cli.threads"] = 1

    for mod in modules:
        for k, v in list(vars(mod).items()):
            if id(v) in replace and replace[id(v)][0] is v:
                setattr(mod, k, replace[id(v)][1])
            elif isinstance(v, dict):
                for dk, dv in list(v.items()):
                    if id(dv) in replace and replace[id(dv)][0] is dv:
                        v[dk] = replace[id(dv)][1]


def _counted_pool(tracer: Tracer, cls):
    def make(*args, **kwargs):
        pool = cls(*args, **kwargs)
        _count_pool(tracer.counts, args, kwargs, pool)
        return pool
    return make


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import factprimes.cli as cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
