"""Check factprimes CLI output against the independent oracle.

    python perfbench/checks.py SPEC_JSON

SPEC_JSON names the seed, the largest n, and each case with its exit code
and saved output files.  The result is one JSON line: the mismatches found
for each case and the number of n checked or rows written it should have.
This runs in its own process after the timed rounds, so the oracle's
memory never counts in a case's peak RSS.

Each ``check_*`` function returns a list of mismatch messages; an empty
list means the output is correct.  Whole outputs are compared with the
float64 oracle, and seeded spot points are re-evaluated with exact
integers and mpmath.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import sympy

from oracle import ALIASES, VALIDITY, Oracle, legendre, s32_exponents

# Printed values carry 12 significant digits.
PRINTED_REL = 2e-11
# Program and oracle recompute the constants independently, so right-hand
# sides may differ by the quadrature tolerance, far below this.
RHS_REL = 1e-9
SPOT_POINTS = 8

_HEAD = re.compile(r"(\S+) \[(\d+)\.\.(\d+)\] (\S+): checked (\d+)(?: \((\d+) below)?")
_HOLD = re.compile(r"all hold; min slack (\S+) at n=(\d+)")
_VIOL = re.compile(r"VIOLATIONS at (\d+) point\(s\): (.*)")


def _near(a, b, rel, scale=None) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if scale is None:
        scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):
        return (a == b) | (np.abs(a - b) <= rel * np.maximum(1.0, scale))


def _first_bad(what: str, ns, ok) -> list[str]:
    ok = np.asarray(ok)
    if ok.all():
        return []
    i = int(np.argmin(ok))
    return [f"{what} wrong at n={int(ns[i])} ({int((~ok).sum())} rows)"]


def sample_points(lo: int, hi: int, log_samples: int | None) -> np.ndarray:
    """The n a verify run must check: all of [lo, hi], or k log-spaced."""
    if log_samples is None:
        return np.arange(lo, hi + 1, dtype=np.int64)
    pts = np.geomspace(lo, hi, log_samples).round().astype(np.int64)
    return np.unique(np.clip(pts, lo, hi))


def _spots(rng: random.Random, ns: np.ndarray, extra=()) -> list[int]:
    picks = [int(ns[rng.randrange(len(ns))]) for _ in range(SPOT_POINTS)]
    return sorted(set(picks) | {int(x) for x in extra})


def _spot_slack(oracle: Oracle, tid, ns, slack, spots) -> list[str]:
    bad = oracle.spot_check(spots)
    for n in spots:
        i = int(np.searchsorted(ns, n))
        exact = float(oracle.slack_mp(tid, n))
        scale = abs(exact) + abs(float(slack[i]))
        if not _near(exact, slack[i], RHS_REL, scale):
            bad.append(f"oracle float slack {slack[i]} != mpmath {exact} at n={n}")
    return bad


def check_verify(oracle: Oracle, case, stdout: str, code: int, csv: bytes | None,
                 rng: random.Random) -> list[str]:
    """Summary verdict, checked count, min slack and argmin; CSV rows if any."""
    tid = ALIASES.get(case.theorem, case.theorem)
    ns = sample_points(case.lo, case.hi, case.log_samples)
    lines = stdout.splitlines()
    head = _HEAD.match(lines[0]) if lines else None
    if not head:
        return [f"unparsable verify output {lines[:1]}"]
    sampling = "exhaustive" if case.log_samples is None else f"log-spaced({case.log_samples})"
    valid = VALIDITY[tid]
    skipped = int(np.count_nonzero(ns < valid))
    bad = []
    if head.group(1, 2, 3, 4) != (tid, str(case.lo), str(case.hi), sampling):
        bad.append(f"verify header {lines[0]!r}")
    if int(head.group(5)) != len(ns) or int(head.group(6) or 0) != skipped:
        bad.append(f"checked count {head.group(5)}/{head.group(6)}, expected {len(ns)}/{skipped}")

    lhs, rhs, slack = oracle.lhs_rhs(tid, ns)
    applicable = ns >= valid
    violations = ns[applicable & ~(slack > 0)]
    if code != (1 if len(violations) else 0):
        bad.append(f"exit code {code} with {len(violations)} oracle violations")
    if case.violations is not None and violations.tolist() != list(case.violations):
        bad.append(f"oracle violations {violations[:5].tolist()} != {case.violations}")
    hold, viol = (_HOLD.match(lines[1]), _VIOL.match(lines[1])) if len(lines) > 1 else (None, None)
    argmin = None
    if len(violations) == 0:
        if not hold:
            bad.append(f"expected 'all hold', got {lines[1:2]}")
        else:
            argmin, reported = int(hold.group(2)), float(hold.group(1))
            i = int(np.searchsorted(ns, argmin))
            if i >= len(ns) or ns[i] != argmin or not applicable[i]:
                bad.append(f"argmin n={argmin} is not a checked point")
            else:
                scale = abs(lhs[i]) + abs(rhs[i])
                if not _near(reported, slack[i], RHS_REL, scale):
                    bad.append(f"min slack {reported} != oracle {slack[i]} at n={argmin}")
                if slack[i] > slack[applicable].min() + RHS_REL * max(1.0, scale):
                    j = int(np.argmin(np.where(applicable, slack, np.inf)))
                    bad.append(f"argmin n={argmin}, oracle argmin n={ns[j]}")
    elif not viol:
        bad.append(f"expected VIOLATIONS, got {lines[1:2]}")
    else:
        shown = [int(x) for x in viol.group(2).replace(", ...", "").split(", ")]
        if int(viol.group(1)) != len(violations) or shown != violations[:20].tolist():
            bad.append(f"violations {viol.group(0)!r} != oracle {violations[:20].tolist()}")

    spots = _spots(rng, ns[applicable], [argmin] if argmin else [])
    bad += _spot_slack(oracle, tid, ns, slack, spots)
    if case.out is not None:
        bad += _check_report_csv(tid, ns, lhs, rhs, slack, applicable, csv)
    return bad


def _check_report_csv(tid, ns, lhs, rhs, slack, applicable, csv) -> list[str]:
    lines = (csv or b"").decode().splitlines()
    if not lines or lines[0] != "theorem_id,n,lhs,rhs,slack,holds,applicable,marginal":
        return [f"report header {lines[:1]}"]
    if len(lines) - 1 != len(ns):
        return [f"report has {len(lines) - 1} rows, expected {len(ns)}"]
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    if set(cols[0]) != {tid}:
        return [f"report theorem ids {sorted(set(cols[0]))[:3]}"]
    n = np.array(cols[1], dtype=np.int64)
    got = [np.array(c, dtype=np.float64) for c in cols[2:5]]
    flags = [np.array(c) == "true" for c in cols[5:8]]
    scale = np.abs(lhs) + np.abs(rhs)
    decided = np.abs(slack) > RHS_REL * np.maximum(1.0, scale)
    return (_first_bad("report n", ns, n == ns)
            + _first_bad("report lhs", ns, _near(got[0], lhs, PRINTED_REL))
            + _first_bad("report rhs", ns, _near(got[1], rhs, RHS_REL))
            + _first_bad("report slack", ns, _near(got[2], slack, RHS_REL, scale))
            + _first_bad("report holds", ns, ~decided | (flags[0] == (slack > 0)))
            + _first_bad("report applicable", ns, flags[1] == applicable)
            + _first_bad("report marginal", ns, ~decided | (flags[2] == (np.abs(slack) < 1e-6))))


def check_scan(oracle: Oracle, case, csv: bytes | None, rng: random.Random) -> list[str]:
    """Every row of a scan table; seeded rows again with mpmath."""
    lines = (csv or b"").decode().splitlines()
    header = "n,upsilon,pi,mean,t1_rhs,t1_holds,t4_rhs,t4_holds,c3_rhs,c3_holds,perfecter_log"
    if not lines or lines[0] != header:
        return [f"scan header {lines[:1]}"]
    ns = np.arange(case.lo, case.hi + 1, dtype=np.int64)
    if len(lines) - 1 != len(ns):
        return [f"scan has {len(lines) - 1} rows, expected {len(ns)}"]
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    ups = oracle.upsilon(ns)
    pis = oracle.pi(ns)
    _, t1, t1_slack = oracle.lhs_rhs("T1_upper_upsilon", ns)
    logs = oracle.perfecter_logs(case.lo, case.hi)
    bad = (_first_bad("scan n", ns, np.array(cols[0], dtype=np.int64) == ns)
           + _first_bad("scan upsilon", ns, np.array(cols[1], dtype=np.int64) == ups)
           + _first_bad("scan pi", ns, np.array(cols[2], dtype=np.int64) == pis)
           + _first_bad("scan mean", ns, _near(np.array(cols[3], dtype=np.float64), ups / pis, PRINTED_REL))
           + _first_bad("scan t1_rhs", ns, _near(np.array(cols[4], dtype=np.float64), t1, RHS_REL))
           + _first_bad("scan t1_holds", ns, (np.array(cols[5]) == "true") == (t1_slack > 0))
           + _first_bad("scan c3", ns, (np.array(cols[8]) == "") & (np.array(cols[9]) == ""))
           + _first_bad("scan perfecter_log", ns,
                        _near(np.array(cols[10], dtype=np.float64), logs, PRINTED_REL)))
    m = ns >= 3
    _, t4, t4_slack = oracle.lhs_rhs("T4_lower_upsilon", ns[m])
    bad += (_first_bad("scan t4_rhs", ns[m], _near(np.array(cols[6])[m].astype(np.float64), t4, RHS_REL))
            + _first_bad("scan t4_holds", ns[m], (np.array(cols[7])[m] == "true") == (t4_slack > 0))
            + _first_bad("scan t4 below 3", ns[~m], np.array(cols[6])[~m] == ""))
    for n in _spots(rng, ns):
        i = n - case.lo
        _, exact = oracle.perfecter(n)
        if not _near(float(cols[10][i]), exact, PRINTED_REL) or int(cols[1][i]) != oracle.upsilon_plain(n):
            bad.append(f"scan row n={n} disagrees with the exact spot check")
        t1_mp = float(oracle.slack_mp("T1_upper_upsilon", n)) + int(cols[1][i])
        if not _near(float(cols[4][i]), t1_mp, RHS_REL):
            bad.append(f"scan t1_rhs at n={n}: {cols[4][i]} != mpmath {t1_mp}")
    return bad


def check_perfecter(oracle: Oracle, case, stdout: str, rng: random.Random) -> list[str]:
    """Odd-exponent primes, log value and both bound exponents of n!."""
    n = case.hi
    odd, log_value = oracle.perfecter(n)
    lines = stdout.splitlines()
    m = re.match(r"  odd-exponent primes \((\d+)\): (.*)", lines[1] if len(lines) > 1 else "")
    if not (lines and lines[0] == f"perfecter({n}!):" and m):
        return [f"unparsable perfecter output {lines[:2]}"]
    bad = []
    listed = m.group(2).replace(" ...", "").split()
    if int(m.group(1)) != len(odd) or listed != [str(p) for p in odd[:30]]:
        bad.append(f"odd-exponent primes {m.group(1)}: {listed[:5]} != oracle {len(odd)}")
    values = dict(re.findall(r"  (log value =|lower bound exponent|upper bound exponent) (\S+)",
                             stdout))
    lower, upper = s32_exponents(float(n), math.log)
    for key, want in (("log value =", log_value), ("lower bound exponent", lower),
                      ("upper bound exponent", upper)):
        if key not in values or not _near(float(values[key]), want, PRINTED_REL):
            bad.append(f"{key} {values.get(key)} != oracle {want}")
    if not (lower < log_value < upper) or stdout.count(": true") != 2:
        bad.append("perfecter bound verdicts disagree with the oracle")
    for i in sorted(rng.sample(range(len(odd)), min(SPOT_POINTS, len(odd)))):
        p = int(odd[i])
        if not sympy.isprime(p) or legendre(n, p) % 2 != 1:
            bad.append(f"oracle odd-exponent prime {p} fails the spot check")
    return bad


def check_decompose(oracle: Oracle, case, stdout: str, rng: random.Random) -> list[str]:
    """Every (p, v) row of a CSV decomposition, its upsilon and mean."""
    n = case.hi
    lines = stdout.splitlines()
    if len(lines) < 4 or lines[0] != "p,v":
        return [f"unparsable decompose output {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:-2]]
    ps = oracle.primes[:int(oracle.pi(n))]
    v = oracle.valuations(n)
    if len(rows) != len(ps):
        return [f"decompose has {len(rows)} rows, expected {len(ps)}"]
    p_col, v_col = (np.array(c, dtype=np.int64) for c in zip(*rows))
    ups = int(v.sum())
    bad = _first_bad("decompose p", ps, p_col == ps) + _first_bad("decompose v", ps, v_col == v)
    if lines[-2] != f"# upsilon={ups}":
        bad.append(f"{lines[-2]!r} != upsilon {ups}")
    mean = lines[-1].removeprefix("# mean=")
    if not _near(float(mean), ups / len(ps), PRINTED_REL):
        bad.append(f"mean {mean} != oracle {ups / len(ps)}")
    if ups != oracle.upsilon_plain(n):
        bad.append("oracle upsilon disagrees with the plain-int Legendre sum")
    for i in rng.sample(range(len(ps)), min(SPOT_POINTS, len(ps))):
        p = int(p_col[i])
        if not sympy.isprime(p) or int(v_col[i]) != legendre(n, p):
            bad.append(f"decompose row p={p} fails the spot check")
    return bad


def check_case(oracle: Oracle, case, code: int, stdout: str, csv: bytes | None,
               rng: random.Random) -> list[str]:
    try:
        if case.kind == "verify":
            return check_verify(oracle, case, stdout, code, csv, rng)
        bad = [] if code == 0 else [f"exit code {code}"]
        if case.kind == "scan":
            return bad + check_scan(oracle, case, csv, rng)
        if case.kind == "perfecter":
            return bad + check_perfecter(oracle, case, stdout, rng)
        return bad + check_decompose(oracle, case, stdout, rng)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"output could not be checked: {exc!r}"]


def expected_points(oracle: Oracle, case) -> int:
    """n a case checks, or rows it writes (one per prime for decompose)."""
    if case.kind == "verify":
        return len(sample_points(case.lo, case.hi, case.log_samples))
    if case.kind == "decompose":
        return int(oracle.pi(case.hi))
    return case.hi - case.lo + 1


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    oracle = Oracle(spec["limit"])
    rng = random.Random(spec["seed"])
    failures, points = {}, {}
    for c in spec["cases"]:
        case = SimpleNamespace(**c)
        stdout = Path(case.stdout_path).read_bytes().decode(errors="replace")
        csv = Path(case.csv_path).read_bytes() if case.csv_path else None
        failures[case.key] = check_case(oracle, case, case.code, stdout, csv, rng)
        points[case.key] = expected_points(oracle, case)
    print(json.dumps({"failures": failures, "points": points, "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
