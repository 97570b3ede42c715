"""Acceptance suite: one test per numbered criterion.

Each test prints a `[criterion NN] PASS/FAIL` line (visible with
``pytest -s``) and then asserts.  Criterion 4's first sub-test exercises
the full claimed validity window of the exponent-sum upper bound, whose
right-hand side degenerates to -inf at n = 2; it asserts that this endpoint
is the one and only violation in the window, so the finding stays
reproduced rather than papered over.
"""

import math
import time

from factprimes import (bertrand_equivalence, check_dusart_pi,
                        check_dusart_theta, compute_constants,
                        factorial_valuation_oracle, full_decomposition,
                        integrate, lambert_w, legendre_valuation, omega,
                        perfecter_bounds, perfecter_factorial, theta_classed,
                        upsilon_value, verify_range)
from factprimes.bounds import (CLOSED_FORM, EXACT_EVAL, TABULATED, log_spaced,
                               rhs_value)
from factprimes.cli import main
from factprimes.special_functions import (QuadratureSpec,
                                          exp_integral,
                                          log_integral,
                                          log_integral_expansion)

_timings: dict[str, float] = {}


def _report(cid: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {cid:2d}] {status} {label}" + (f" :: {detail}" if detail else ""))


# --------------------------------------------------------------- criterion 1

def test_c01_oracle_equivalence_and_recurrence(table_small):
    """Exact agreement of the divide-and-floor exponent formula with the
    factor-every-k oracle for all n <= 2000, p <= n, and of the exponent-sum
    recurrence with trial-division factor counts for all n <= 1e4."""
    t0 = time.perf_counter()
    primes2000 = [int(p) for p in table_small.primes_up_to(2000)]

    mismatches = []
    for p in primes2000:
        acc = 0
        for k in range(p, 2001):
            if k % p == 0:
                j = k
                while j % p == 0:
                    acc += 1
                    j //= p
            if legendre_valuation(k, p).v != acc:
                mismatches.append((k, p))
    # the accumulator above reproduces the oracle's arithmetic; also call
    # the oracle operation itself at a spread of points
    for n in (2, 10, 100, 617, 2000):
        for p in primes2000:
            if p <= n:
                assert factorial_valuation_oracle(n, p) == \
                    legendre_valuation(n, p).v

    recurrence_bad = []
    prev = upsilon_value(table_small, 2)
    for n in range(3, 10_001):
        cur = upsilon_value(table_small, n)
        if cur - prev != omega(n):
            recurrence_bad.append(n)
        prev = cur

    elapsed = time.perf_counter() - t0
    ok = not mismatches and not recurrence_bad and elapsed < 30
    _report(1, "oracle equivalence + recurrence", ok,
            f"{len(primes2000)} primes x 2000 n, recurrence to 1e4, "
            f"{elapsed:.1f}s")
    assert not mismatches, mismatches[:5]
    assert not recurrence_bad, recurrence_bad[:5]
    assert elapsed < 30


# --------------------------------------------------------------- criterion 2

def test_c02_worksheet_parity(table_small):
    """The decomposition enumerates every prime up to n with its exact
    divide-and-floor exponent, reproducing the reference worksheet values."""
    profile = full_decomposition(table_small, 10)
    ok1 = profile.entries() == [(2, 8), (3, 4), (5, 2), (7, 1)]
    ups = {n: upsilon_value(table_small, n) for n in (2, 6, 10)}
    ok2 = ups == {2: 1, 6: 7, 10: 15}
    # per-entry structure: v is the truncated floor sum at depth m
    ok3 = True
    for p, v in profile:
        depth_sum, pk, m = 0, p, 0
        while pk <= 10:
            depth_sum += 10 // pk
            pk *= p
            m += 1
        ok3 &= (v == depth_sum and legendre_valuation(10, p).m == m)
    _report(2, "worksheet parity", ok1 and ok2 and ok3, f"upsilon {ups}")
    assert ok1 and ok2 and ok3


# --------------------------------------------------------------- criterion 3

def test_c03_constants_reproduction():
    """Every constant within 1e-6 of its tabulated decimal; the closed-form
    subset within 1e-10 of its defining expression."""
    t0 = time.perf_counter()
    table = compute_constants()
    names = [n for n in TABULATED if n != "eps"]
    bad_tab = [n for n in names
               if abs(table.entries[n].value - TABULATED[n]) > 1e-6]
    bad_exact = [n for n in CLOSED_FORM
                 if abs(table.entries[n].value - EXACT_EVAL[n]) > 1e-10]
    elapsed = time.perf_counter() - t0
    ok = not bad_tab and not bad_exact and elapsed < 5
    worst = max(abs(table.entries[n].value - TABULATED[n]) for n in names)
    _report(3, "constants reproduction", ok,
            f"worst |recomputed - tabulated| = {worst:.2e}, {elapsed:.2f}s")
    assert not bad_tab and not bad_exact
    assert elapsed < 5


# --------------------------------------------------------------- criterion 4

def test_c04_t1_full_claimed_window(table_big):
    """The exponent-sum upper bound over its full claimed window [2, 1e5].

    The paper states the bound for n >= 2, but at n = 2 the right-hand side
    contains (n-1) log log(n-1) = log log 1 = log 0 = -inf, so upsilon(2) = 1
    cannot lie below it.  The test asserts that finding exactly: n = 2 is
    checked as inside the window and is its only violation, with every
    n >= 3 holding (see also the companion test below).
    """
    t0 = time.perf_counter()
    _, summary = verify_range(table_big, "T1", 2, 100_000)
    _timings["c4"] = _timings.get("c4", 0.0) + time.perf_counter() - t0
    rhs_2 = rhs_value("T1", 2)
    ups_2 = upsilon_value(table_big, 2)
    ok = (summary.violations == (2,) and not summary.all_hold
          and summary.n_checked == summary.n_applicable == 99_999
          and summary.argmin_n == 2 and summary.min_slack == -math.inf
          and rhs_2 == -math.inf and ups_2 == 1)
    _report(4, "T1 n = 2 finding reproduced on [2, 1e5]", ok,
            f"violations at n in {summary.violations}; rhs(2) = {rhs_2}, "
            f"upsilon(2) = {ups_2}")
    # the cause: log log 1 = -inf, while upsilon(2) = 1
    assert rhs_2 == -math.inf
    assert ups_2 == 1
    # the verdict: n = 2 counted inside the window and its only violation
    assert summary.n_checked == summary.n_applicable == 99_999
    assert summary.violations == (2,), summary
    assert not summary.all_hold
    assert summary.argmin_n == 2
    assert summary.min_slack == -math.inf


def test_c04_t1_t4_exhaustive_and_log_spaced(table_big):
    t0 = time.perf_counter()
    details = []
    for tid, lo in (("T1", 3), ("T4", 3)):
        _, s_exh = verify_range(table_big, tid, lo, 100_000)
        _, s_log = verify_range(table_big, tid, lo, 10_000_000, log_samples=50)
        details.append(f"{tid}: min slack {s_exh.min_slack:.6g} at n="
                       f"{s_exh.argmin_n} (exhaustive), {s_log.min_slack:.6g} "
                       f"(log-spaced)")
        assert s_exh.all_hold and s_log.all_hold, tid
        assert s_exh.n_checked == 100_000 - lo + 1
    _timings["c4"] = _timings.get("c4", 0.0) + time.perf_counter() - t0
    _report(4, "T1/T4 on [3, 1e5] + 50 log-spaced to 1e7", True,
            "; ".join(details))


def test_c04_t2_t5_exhaustive_and_log_spaced(table_big):
    t0 = time.perf_counter()
    details = []
    for tid, lo in (("T2", 3), ("T5", 2)):
        _, s_exh = verify_range(table_big, tid, lo, 100_000)
        _, s_log = verify_range(table_big, tid, lo, 10_000_000, log_samples=50)
        details.append(f"{tid}: min slack {s_exh.min_slack:.6g} at n="
                       f"{s_exh.argmin_n}")
        assert s_exh.all_hold and s_log.all_hold, tid
    _timings["c4"] = _timings.get("c4", 0.0) + time.perf_counter() - t0
    _report(4, "T2/T5 on stated ranges + log-spaced to 1e7", True,
            "; ".join(details))


def test_c04_corollary_window(table_big):
    t0 = time.perf_counter()
    _, summary = verify_range(table_big, "C3", 12_602_987, 12_603_987)
    elapsed = time.perf_counter() - t0
    _timings["c4"] = _timings.get("c4", 0.0) + elapsed
    ok = summary.all_hold and summary.n_checked == 1001
    _report(4, "corollary exhaustive on [12602987, 12603987]", ok,
            f"min slack {summary.min_slack:.4f} at n={summary.argmin_n}, "
            f"{elapsed:.1f}s")
    assert ok


def test_c04_cli_exit_codes_and_budget(capsys):
    # one end-to-end CLI run over the corollary window, plus the budget line
    code = main(["verify", "C3", "--from", "12602987", "--to", "12603987",
                 "--exhaustive"])
    out = capsys.readouterr().out
    t_total = _timings.get("c4", 0.0)
    ok = code == 0 and "all hold" in out and t_total < 300
    _report(4, "CLI exit 0 + runtime budget", ok,
            f"verification subtotal {t_total:.0f}s (< 300s)")
    assert code == 0 and "all hold" in out
    assert t_total < 300


# --------------------------------------------------------------- criterion 5

def test_c05_mean_upper_small_window(table_small):
    _, summary = verify_range(table_small, "T2", 3, 598)
    ok = summary.all_hold and summary.n_checked == 596
    _report(5, "mean upper bound exhaustive on [3, 598]", ok,
            f"min slack {summary.min_slack:.4f} at n={summary.argmin_n}")
    assert ok


# --------------------------------------------------------------- criterion 6

def test_c06_dusart_spot_verification(table_big):
    points = log_spaced(2, 10_000_000, 200)
    worst = {"TB2": math.inf, "TB4": math.inf, "PI_LB": math.inf,
             "PI_UB": math.inf}
    for x in points:
        x = int(x)
        rep2, rep4 = check_dusart_theta(table_big, x)
        lb, ub = check_dusart_pi(table_big, x)
        assert rep2.holds and rep4.holds, x
        assert ub.holds, x
        if lb.applicable:
            assert lb.holds, x
            worst["PI_LB"] = min(worst["PI_LB"], lb.slack)
        worst["TB2"] = min(worst["TB2"], rep2.slack)
        worst["TB4"] = min(worst["TB4"], rep4.slack)
        worst["PI_UB"] = min(worst["PI_UB"], ub.slack)
    _report(6, "theta/pi explicit bounds at 200 log-spaced points", True,
            ", ".join(f"{k} min slack {v:.4g}" for k, v in worst.items()))


# --------------------------------------------------------------- criterion 7

def test_c07_perfecter_exactness(table_small):
    """Exact square products to n = 30, brute-force minimality to n = 12,
    the odd-class identity and two-sided bounds to n = 1e4, and the
    equivalence pair to n = 1e4."""
    # exact square property, big integers
    for n in range(1, 31):
        res = perfecter_factorial(table_small, n)
        assert res.exact_value is not None
        prod = res.exact_value * math.factorial(n)
        assert math.isqrt(prod) ** 2 == prod, n

    # minimality by scanning every candidate multiplier below the kernel
    for n in range(1, 13):
        kernel = perfecter_factorial(table_small, n).exact_value
        fact = math.factorial(n)
        for m in range(1, kernel):
            assert math.isqrt(m * fact) ** 2 != m * fact, (n, m)
        assert math.isqrt(kernel * fact) ** 2 == kernel * fact

    assert perfecter_factorial(table_small, 4).exact_value == 6
    assert perfecter_factorial(table_small, 5).exact_value == 30

    # odd-class identity and exponential bounds, exhaustively to 1e4
    for n in range(4, 10_001):
        res = perfecter_factorial(table_small, n)
        classed = theta_classed(table_small, n, 2)
        assert res.log_value == classed.values[1], n
        assert perfecter_bounds(table_small, n).holds, n

    # equivalence components agree everywhere
    for n in range(2, 10_001):
        chk = bertrand_equivalence(table_small, n)
        assert chk.perfecter_exceeds_one == chk.prime_in_upper_half, n
        if n >= 4:
            assert chk.singleton_match, n

    _report(7, "perfecter exactness + bounds + equivalence", True,
            "exact to 30, minimal to 12, identities exhaustive to 1e4")


# --------------------------------------------------------------- criterion 8

def test_c08_special_function_contracts():
    # Lambert W round-trips
    for x in (1e-3, 1.0, 10.0, 1e6):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)), x

    # exponential integral against an independent quadrature oracle
    spec = QuadratureSpec(abs_tol=1e-13)
    for z in (1.0, 2.0, 3.0):
        t_max = 1.0 + 60.0 / z
        oracle, _ = integrate(lambda t: math.exp(-t * z) / t, 1.0, t_max, spec)
        assert abs(exp_integral(1, z) - oracle) <= 1e-10, z

    # expansion identity closes through the exact remainder at (1e3, 3)
    value, _ = log_integral_expansion(1000.0, 3)
    remainder, _ = integrate(lambda x: math.log(x) ** -4, 2.0, 1000.0)
    li, _ = log_integral(1000.0)
    closure = abs(value + 6 * remainder - li)
    assert closure <= 1e-8

    # the five-term series crosses the integral just below 564
    for n, expected in ((564, True), (500, False)):
        li_n, _ = log_integral(n)
        lg = math.log(n)
        s5 = n * sum(math.factorial(k - 1) / lg**k for k in range(1, 6))
        assert (li_n > s5) is expected, n

    _report(8, "special-function contracts", True,
            f"expansion closure {closure:.2e}")


# --------------------------------------------------------------- criterion 9

def test_c09_residual_band_consistency(table_big):
    """(upsilon(n) - n log log n)/n stays between the residual bands implied
    by the verified lower and upper bounds at every tested n."""
    checked = 0
    for n in log_spaced(3, 10**6, 40):
        n = int(n)
        ups = upsilon_value(table_big, n)
        llg = math.log(math.log(n))
        residual = (ups - n * llg) / n
        upper_band = (rhs_value("T1", n) - n * llg) / n
        lower_band = (rhs_value("T4", n) - n * llg) / n
        assert lower_band < residual < upper_band, n
        checked += 1
    _report(9, "residual stays inside implied bands", True,
            f"{checked} log-spaced n in [3, 1e6]")


# -------------------------------------------------------------- criterion 10

def test_c10_scan_determinism(tmp_path, capsys):
    files = [tmp_path / name for name in ("r1.csv", "r2.csv", "j4.csv")]
    for path, jobs in zip(files, ("1", "1", "4")):
        code = main(["scan", "--from", "2", "--to", "400", "--out",
                     str(path), "--jobs", jobs])
        capsys.readouterr()
        assert code == 0
    blobs = [f.read_bytes() for f in files]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(10, "scan output byte-identical across runs and --jobs", ok,
            f"{len(blobs[0])} bytes")
    assert ok
