"""factprimes benchmark: CLI workloads checked against an independent oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the CLI is run from ``src/`` there.
A workload is a fixed list of ``python -m factprimes.cli`` cases, run one
at a time from this single driver process (a closed loop, one client).
The seed picks the range offsets and the oracle's spot-check points; the
program only sees argv.  The case list is repeated for about ``--seconds``
and every timing is the median over those rounds.  Each case is checked:
its exit code, and its output against ``oracle.py`` the first time and
byte for byte against that first output afterwards.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds whose cases run under ``traced_cli.py`` and
reports the per-layer metrics.  The last stdout line is the JSON result;
the line before it is a detail record with the run's stamp, per-case
figures, counts with their bases and the names found absent.
``--smoke`` shrinks every case for a quick self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASE_TIMEOUT_S = 60
# Stop starting rounds after this long, so a run ends well within 180 s.
DEADLINE_S = 120

SETUP_CODE = ("import sys, factprimes\n"
              "from factprimes import bounds, primes\n"
              "primes.build_table(int(sys.argv[1]))\n"
              "bounds.default_constants()\n"
              "print(factprimes.__file__)\n")


@dataclass
class Case:
    """One CLI invocation and what the oracle needs to check it."""

    key: str
    argv: list[str]
    kind: str                      # verify | scan | perfecter | decompose
    lo: int
    hi: int
    theorem: str | None = None
    log_samples: int | None = None
    out: str | None = None         # --out file, relative to the work dir
    violations: tuple | None = None


def verify_case(key, theorem, lo, hi, *, jobs=1, log_samples=None, out=False, violations=None):
    argv = ["verify", theorem, "--from", str(lo), "--to", str(hi)]
    if log_samples:
        argv += ["--log-samples", str(log_samples)]
    out = f"{key}.csv" if out else None
    if out:
        argv += ["--out", out]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return Case(key, argv, "verify", lo, hi, theorem, log_samples, out, violations)


def scan_case(key, hi, jobs):
    argv = ["scan", "--from", "2", "--to", str(hi), "--out", f"{key}.csv"]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return Case(key, argv, "scan", 2, hi, out=f"{key}.csv")


# Why each workload exists, and the layer it loads, is in BENCHMARK.json.
def build_cases(workload: str, rng: random.Random, smoke: bool) -> list[Case]:
    """The fixed case list of a workload, with seeded offsets."""
    def size(full, tiny):
        n = tiny if smoke else full
        return n, rng.randrange(max(1, n // 200))   # offset of at most 0.5%

    if workload == "verify_dense":
        n, d = size(50_000, 2_000)
        tb, dt = size(25_000, 1_000)
        e, de = size(10_000, 300)
        t4, d4 = size(50_000, 2_000)
        return [verify_case("T1", "T1", 3, n + d),
                verify_case("T1_jobs2", "T1", 3, n + d, jobs=2),
                verify_case("T4", "T4", 3, t4 + d4),
                verify_case("TB2", "TB2", 2, tb + dt),
                # the documented finding: T1 fails at the n = 2 end of its window
                verify_case("T1_endpoint", "T1", 2, e + de, violations=(2,))]
    if workload == "verify_stream":
        n, d = size(50_000, 2_000)
        t5, d5 = size(50_000, 2_000)
        return [verify_case("T2", "T2", 3, n + d, out=True),
                verify_case("T2_jobs2", "T2", 3, n + d, jobs=2, out=True),
                verify_case("T5", "T5", 3, t5 + d5, out=True)]
    if workload == "sieve_sparse":
        top, d = size(20_000_000, 200_000)
        w, dw = size(20_000, 200)
        c3 = 12_602_987 + rng.randrange(20_000)
        dec, dd = size(1_000_000, 20_000)
        pf, dp = size(20_000_000, 200_000)
        top1, d1 = size(20_000_000, 200_000)
        k = 20 if smoke else 200
        return [verify_case("T4_log", "T4", 3, top - d, log_samples=k),
                verify_case("T1_log", "T1", 3, top1 - d1, log_samples=k),
                verify_case("C3", "C3", c3, c3 + w - dw),
                verify_case("C3_jobs2", "C3", c3, c3 + w - dw, jobs=2),
                Case("perfecter", ["perfecter", str(pf - dp)], "perfecter", pf - dp, pf - dp),
                Case("decompose", ["decompose", str(dec - dd), "--format", "csv"], "decompose",
                     dec - dd, dec - dd)]
    if workload == "perfecter_scan":
        n, d = size(2_500, 300)
        s, ds = size(2_500, 300)
        return [scan_case("scan", n + d, 1), scan_case("scan_jobs2", n + d, 2),
                verify_case("S32", "S32", 4, s + ds)]
    raise ValueError(workload)


WORKLOADS = ("verify_dense", "verify_stream", "sieve_sparse", "perfecter_scan")
# (--jobs 1 case, the same case at --jobs 2) of each workload
JOBS_PAIRS = {"verify_dense": ("T1", "T1_jobs2"), "verify_stream": ("T2", "T2_jobs2"),
              "sieve_sparse": ("C3", "C3_jobs2"), "perfecter_scan": ("scan", "scan_jobs2")}


@dataclass
class Result:
    code: int
    wall: float
    rss_mb: float
    stdout: str                    # sha256 of what the case printed
    csv: str | None                # sha256 of its --out file
    out_bytes: int
    trace: dict | None = None


def spawn(cmd: list[str], env: dict, work: Path) -> tuple[int, float, float]:
    """Run one child; return its exit code, wall time and own peak RSS.

    os.wait4 gives the rusage of this child alone; RUSAGE_CHILDREN would be
    a running maximum over every child reaped so far.  A child's ru_maxrss
    starts from this process's resident size when it is spawned, so the
    driver keeps outputs on disk, not in memory, and runs the oracle in a
    process of its own.
    """
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_setup(limit: int, env: dict, work: Path) -> float:
    """Time one fresh process that imports the package and builds its tables."""
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(limit)], env=env, cwd=work,
                         capture_output=True, text=True, timeout=CASE_TIMEOUT_S)
    wall = perf_counter() - t0
    if out.returncode != 0 or Path(out.stdout.strip()).resolve().parent != SRC / "factprimes":
        raise SetupError(f"set-up failed or imported another factprimes:\n{out.stdout}{out.stderr}")
    return wall


class SetupError(RuntimeError):
    pass


def run_case(case: Case, env: dict, work: Path, traced: bool, keep: bool) -> Result:
    """Run one case; with ``keep`` its output files stay for the oracle."""
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), "trace.json", *case.argv]
    else:
        cmd = [sys.executable, "-m", "factprimes.cli", *case.argv]
    if case.out:
        (work / case.out).unlink(missing_ok=True)
    code, wall, rss = spawn(cmd, env, work)
    files = [work / "stdout"]
    if case.out and (work / case.out).exists():
        files.append(work / case.out)
    digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]
    out_bytes = sum(f.stat().st_size for f in files)
    if keep:
        for f, suffix in zip(files, (".out", ".first.csv")):
            os.replace(f, work / f"{case.key}{suffix}")
    trace = None
    if traced and (work / "trace.json").exists():
        trace = json.loads((work / "trace.json").read_text())
        (work / "trace.json").unlink()
    return Result(code, wall, rss, digests[0], digests[1] if len(digests) > 1 else None,
                  out_bytes, trace)


def oracle_check(cases: list[Case], first: dict[str, Result], seed: int, env: dict,
                 work: Path) -> dict:
    """Check each case's first output in a separate oracle process."""
    spec = {"seed": seed, "limit": max(c.hi for c in cases), "cases": []}
    for c in cases:
        res = first[c.key]
        spec["cases"].append({**asdict(c), "code": res.code, "stdout_path": f"{c.key}.out",
                              "csv_path": f"{c.key}.first.csv" if res.csv else None})
    (work / "spec.json").write_text(json.dumps(spec))
    out = subprocess.run([sys.executable, str(HERE / "checks.py"), "spec.json"], cwd=work, env=env,
                         capture_output=True, text=True, timeout=CASE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"oracle process failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


# ------------------------------------------------------------ layer metrics
def span(name, field="total_s"):
    """(traced names needed, value from one traced round) of one span field."""
    return [name], lambda r: r["spans"].get(name, {}).get(field, 0)


def count(key, needs=None):
    return [needs] if needs else [], lambda r: r["counts"].get(key, 0)


def own_time(prefix):
    return [], lambda r: sum(v["self_s"] for k, v in r["spans"].items() if k.startswith(prefix))


def useful_ratio(r):
    built = r["counts"].get("bounds.reports_built", 0)
    return r["counts"].get("bounds.useful_reports", 0) / built if built else 0.0


LAYERS = ("primes", "valuation", "upsilon", "special_functions", "bounds", "perfecter", "cli")
# name -> (unit, traced names it needs, value from one traced round)
PER_LAYER = {
    "primes.build_table.s": ("s", *span("primes.build_table")),
    "primes.build_table.calls": ("count", *span("primes.build_table", "calls")),
    "primes.kahan_prefix.s": ("s", *span("primes._kahan_prefix")),
    "primes.kahan_sum.s": ("s", *span("primes.kahan_sum")),
    "primes.table.bytes": ("bytes", *count("primes.table.bytes", "primes.build_table")),
    "upsilon.upsilon_range.s": ("s", *span("upsilon.upsilon_range")),
    "upsilon.omega_window.s": ("s", *span("upsilon.omega_window")),
    "upsilon.points": ("count", *count("upsilon.points", "upsilon.upsilon_range")),
    "bounds.verify_range.self_s": ("s", *span("bounds.verify_range", "self_s")),
    "bounds.rhs.s": ("s", ["bounds.rhs_*"], lambda r: sum(
        v["total_s"] for k, v in r["spans"].items() if k.startswith("bounds.rhs_"))),
    "bounds.rhs.calls": ("count", ["bounds.rhs_*"], lambda r: sum(
        v["calls"] for k, v in r["spans"].items() if k.startswith("bounds.rhs_"))),
    "bounds.evaluate_theorem.calls": ("count", *span("bounds.evaluate_theorem", "calls")),
    "bounds.summarize_reports.s": ("s", *span("bounds.summarize_reports")),
    "bounds.points_checked": ("count", *count("bounds.points_checked", "bounds.verify_range")),
    "bounds.reports_built": ("count", *count("bounds.reports_built", "bounds.verify_range")),
    "bounds.useful_report_ratio": ("ratio", ["bounds.verify_range"], useful_ratio),
    "bounds.compute_constants.s": ("s", *span("bounds.compute_constants")),
    "special_functions.exp_integral.calls": ("count", *span("special_functions.exp_integral", "calls")),
    "valuation.valuation_vector.s": ("s", *span("valuation.valuation_vector")),
    "valuation.valuation_vector.calls": ("count", *span("valuation.valuation_vector", "calls")),
    "valuation.primes_touched": ("count", *count("valuation.primes_touched", "valuation.valuation_vector")),
    "perfecter.perfecter_factorial.s": ("s", *span("perfecter.perfecter_factorial")),
    "perfecter.perfecter_factorial.calls": ("count", *span("perfecter.perfecter_factorial", "calls")),
    "cli.main.self_s": ("s", *span("cli.main", "self_s")),
    "cli.out_bytes": ("bytes", [], lambda r: r["out_bytes"]),
    "cli.threads": ("count", *count("cli.threads")),
    **{f"layer.{m}.self_s": ("s", *own_time(f"{m}.")) for m in LAYERS},
    "trace.wall_s": ("s", [], lambda r: r["wall"]),
    "trace.unaccounted_s": ("s", [], lambda r: r["unaccounted"]),
}
# Counts and the base each is taken out of.
COUNT_BASES = {
    "upsilon.points": "bounds.points_checked",
    "bounds.reports_built": "bounds.points_checked",
    "bounds.rhs.calls": "bounds.points_checked",
    "valuation.primes_touched": "valuation.valuation_vector.calls",
    "primes.table.bytes": "primes.build_table.calls",
    "cli.out_bytes": "points",
}


def traced_round(cases: list[Case], results: dict[str, Result]) -> dict:
    """Sum one traced round's spans and counts over its cases."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    absent: set[str] = set()
    errors: list[str] = []
    out_bytes = unaccounted = 0.0
    for case in cases:
        res = results[case.key]
        out_bytes += res.out_bytes
        t = res.trace or {"spans": {}, "counts": {}, "absent": [], "count_errors": ["no trace"]}
        for k, v in t["spans"].items():
            acc = spans.setdefault(k, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += v[f]
        for k, v in t["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "cli.threads" else counts.get(k, 0) + v
        absent.update(t["absent"])
        errors += t["count_errors"]
        unaccounted += res.wall - t["spans"].get("cli.main", {}).get("total_s", 0.0)
    return {"spans": spans, "counts": counts, "absent": sorted(absent), "count_errors": errors,
            "out_bytes": out_bytes, "unaccounted": unaccounted,
            "wall": sum(results[c.key].wall for c in cases)}


def layer_metrics(rounds: list[dict], untraced_wall: float, points: int) -> tuple[dict, dict]:
    metrics = {name: {"value": median([fn(r) for r in rounds]), "unit": unit}
               for name, (unit, _, fn) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - untraced_wall,
                                   "unit": "s"}
    absent = sorted({a for r in rounds for a in r["absent"]})
    metrics["trace.absent"] = {"value": len(absent), "unit": "count"}
    first = rounds[0]
    detail = {
        "absent": absent,
        "absent_metrics": sorted(k for k, (_, needs, _) in PER_LAYER.items()
                                 if any(n in absent for n in needs)),
        "count_errors": sorted(set(first["count_errors"])),
        "counts_repeat": all(r["counts"] == first["counts"] and r["out_bytes"] == first["out_bytes"]
                             for r in rounds),
        "count_bases": {k: {"value": metrics[k]["value"], "base": b,
                            "base_value": metrics[b]["value"] if b in metrics else points}
                        for k, b in COUNT_BASES.items()},
        # shares of the traced wall, and of the part inside cli.main
        "self_time_share": {m: metrics[f"layer.{m}.self_s"]["value"] / metrics["trace.wall_s"]["value"]
                            for m in LAYERS},
        "self_time_share_in_process": {
            m: metrics[f"layer.{m}.self_s"]["value"]
            / (metrics["trace.wall_s"]["value"] - metrics["trace.unaccounted_s"]["value"])
            for m in LAYERS},
        "spans": {k: v for k, v in sorted(first["spans"].items())},
    }
    return metrics, detail


# --------------------------------------------------------------------- run
def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("FACTPRIMES_MAX_SIEVE", None)
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    args = ap.parse_args(argv)
    started = perf_counter()

    if not (SRC / "factprimes" / "cli.py").is_file():
        print(f"perfbench: no factprimes source under {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    cases = build_cases(args.workload, rng, args.smoke)
    env = child_env()
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        limit = max(c.hi for c in cases)
        modes = [False] if args.trace == 0 else [False, True]
        rounds: list[tuple[bool, dict[str, Result]]] = []
        # set-up runs before the first round (warming the file cache) and
        # after each round, so its median spans the same moments as the cases
        setup = [run_setup(limit, env, work)]
        t_measure = perf_counter()
        while True:
            for traced in modes:
                keep = not rounds
                rounds.append((traced, {c.key: run_case(c, env, work, traced, keep) for c in cases}))
            setup.append(run_setup(limit, env, work))
            spent = perf_counter() - t_measure
            per_cycle = spent / (len(rounds) // len(modes))
            if (args.smoke or spent + per_cycle > args.seconds
                    or perf_counter() - started + per_cycle > DEADLINE_S):
                break

        # correctness: the oracle checks each case's first output; every later
        # output, traced or not, must repeat it byte for byte
        first = rounds[0][1]
        checked = oracle_check(cases, first, args.seed, env, work)
        wrong = checked["failures"]           # oracle findings on the first outputs
        j1, j2 = JOBS_PAIRS[args.workload]
        # --jobs promises byte-identical results (scan reports name their file)
        if ((first[j1].csv or first[j1].stdout) != (first[j2].csv or first[j2].stdout)):
            wrong[j2] = wrong[j2] + ["--jobs 2 output differs from --jobs 1"]
        failures = {k: list(v) for k, v in wrong.items()}
        attempted = failed = 0
        for _, results in rounds:
            for c in cases:
                res, ref = results[c.key], first[c.key]
                if (res.code, res.stdout, res.csv) == (ref.code, ref.stdout, ref.csv):
                    bad = wrong[c.key]
                else:
                    bad = [f"output differs from the first run (exit {res.code})"]
                    failures[c.key] += bad
                attempted += 1
                failed += bool(bad)

        plain = [r for traced, r in rounds if not traced]
        # a slow moment of the host hits one case of one round: take each
        # case's median over the rounds, then add the cases up
        wall = sum(median([r[c.key].wall for r in plain]) for c in cases)
        points = sum(checked["points"].values())
        if args.trace == 0:
            metrics = {
                "points_per_s": {"value": points / wall, "unit": "1/s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": median([max(r[c.key].rss_mb for c in cases) for r in plain]),
                                "unit": "MB"},
                "setup_s": {"value": median(setup), "unit": "s"},
                "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
                "jobs2_speedup": {"value": median([r[j1].wall / r[j2].wall for r in plain]),
                                  "unit": "ratio"},
            }
            detail = {}
        else:
            traced_rounds = [traced_round(cases, r) for traced, r in rounds if traced]
            metrics, detail = layer_metrics(traced_rounds, wall, points)

        detail.update({
            "stamp": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "smoke": args.smoke, "commit": git_commit(),
                      "python": sys.version.split()[0], "numpy": checked["numpy"],
                      "nproc": len(os.sched_getaffinity(0)),
                      "cases": {c.key: ["python", "-m", "factprimes.cli", *c.argv] for c in cases}},
            "rounds": len(rounds), "points": points, "fail_ratio": failed / attempted,
            "setup_s": setup,
            "cases": {c.key: {"wall_s": median([r[c.key].wall for r in plain]),
                              "peak_rss_mb": max(r[c.key].rss_mb for r in plain),
                              "exit": first[c.key].code, "points": checked["points"][c.key],
                              "failures": failures[c.key]} for c in cases},
        })
        print("perfbench-detail " + json.dumps(detail))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
