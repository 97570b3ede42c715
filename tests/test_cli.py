import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import factprimes
from factprimes import (bounds, build_table, cli, evaluate_theorem,
                        full_decomposition, perfecter_bounds,
                        perfecter_factorial, pi, primes, upsilon_value)
from factprimes import perfecter as perfecter_module
from factprimes import upsilon as upsilon_stats
from factprimes.bounds import rhs_value
from factprimes.cli import CSV_HEADER, SCAN_HEADER, fmt, main
from factprimes.upsilon import odd_exponent_primes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "decompose", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,v"
        assert lines[1:5] == ["2,8", "3,4", "5,2", "7,1"]
        assert "# upsilon=15" in lines
        assert "# mean=3.75" in lines

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 6
        assert obj["factors"] == [[2, 4], [3, 2], [5, 1]]
        assert obj["upsilon"] == 7

    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "decompose", "2")
        assert code == 0
        assert "2 ^ 1" in out
        assert "upsilon(2) = 1" in out

    def test_too_small(self, capsys):
        code, _, err = run(capsys, "decompose", "1")
        assert code == 2

    @pytest.mark.parametrize("command,n", [("decompose", "1"), ("perfecter", "0")])
    def test_n_is_checked_before_sieving(self, capsys, monkeypatch, command, n):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(primes, "build_table", refuse)
        code, out, err = run(capsys, command, n)
        least = 2 if command == "decompose" else 1
        assert (code, out, err) == (2, "", f"bad request: n must be >= {least}, got {n}\n")

    def test_over_sieve_cap(self, capsys):
        code, _, err = run(capsys, "decompose", "1000", "--max-sieve", "100")
        assert code == 3
        assert "cap" in err

    def test_bad_int_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "ten"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", [2, 17, 1009])
    @pytest.mark.parametrize("form", ["csv", "text", "json"])
    def test_rows_across_slices(self, capsys, monkeypatch, table_small, n, form):
        # 1, 7 and 169 primes: one short slice, one full slice, 24 full and one short
        monkeypatch.setattr(cli, "ROW_SLICE", 7)
        code, out, _ = run(capsys, "decompose", str(n), "--format", form)
        assert code == 0
        assert out == reference_decompose(table_small, n, form)

    @pytest.mark.parametrize("n", [2, 3, 1025, 9973])
    @pytest.mark.parametrize("form", ["csv", "text", "json"])
    def test_rows_across_value_blocks(self, capsys, monkeypatch, table_small, n, form):
        # 256 values a block: up to 39 blocks of rows, and at 1025 a last
        # block (1024, 1025] without a prime, after which the json list closes
        expected = reference_decompose(table_small, n, form)
        monkeypatch.setattr(primes, "_VALUE_BLOCK", 256)
        code, out, _ = run(capsys, "decompose", str(n), "--format", form)
        assert code == 0
        assert out == expected


def reference_decompose(table, n, form):
    """decompose output rendered entry by entry."""
    profile = full_decomposition(table, n)
    res = upsilon_stats(table, n)
    if form == "json":
        return json.dumps({"n": n, "factors": [[p, v] for p, v in profile],
                           "upsilon": res.upsilon, "mean": float(fmt(res.mean))},
                          separators=(",", ":")) + "\n"
    if form == "csv":
        return ("p,v\n" + "".join(f"{p},{v}\n" for p, v in profile)
                + f"# upsilon={res.upsilon}\n# mean={fmt(res.mean)}\n")
    width = len(str(profile.entries()[-1][0]))
    return (f"{n}! = product of:\n"
            + "".join(f"  {p:>{width}} ^ {v}\n" for p, v in profile)
            + f"upsilon({n}) = {res.upsilon}\n"
            + f"mean exponent = {res.mean_exact.numerator}/{res.mean_exact.denominator}"
            + f" = {fmt(res.mean)}\n")


def reference_report(table, theorem, points):
    """verify --out CSV rendered point by point from evaluate_theorem."""
    rows = [CSV_HEADER]
    for n in points:
        r = evaluate_theorem(table, theorem, int(n))
        rows.append(",".join([r.theorem_id] + [fmt(x) for x in (
            r.n, r.lhs, r.rhs, r.slack, r.holds, r.applicable, r.marginal)]))
    return "\n".join(rows) + "\n"


class TestVerify:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "verify", "T4", "--from", "3", "--to", "3",
                           "--exhaustive")
        assert code == 0
        assert "all hold" in out

    def test_t1_full_window_reports_endpoint(self, capsys):
        code, out, _ = run(capsys, "verify", "T1", "--from", "2", "--to", "500")
        assert code == 1
        assert "VIOLATIONS" in out and "n=2" in out

    def test_t1_from_3(self, capsys):
        code, out, _ = run(capsys, "verify", "T1", "--from", "3", "--to", "500")
        assert code == 0

    def test_log_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "T2", "--from", "3", "--to", "5000",
                           "--log-samples", "20")
        assert code == 0
        assert "log-spaced(20)" in out

    def test_more_log_samples_than_points_is_a_bad_request(self, capsys):
        # refused before numpy is asked for the points (1e20 of them)
        code, out, err = run(capsys, "verify", "T1", "--from", "3", "--to", "1000",
                             "--log-samples", "100000000000000000000")
        assert code == 2
        assert out == "" and "bad request" in err

    def test_report_file(self, capsys, tmp_path):
        out_file = tmp_path / "t4.csv"
        code, _, _ = run(capsys, "verify", "T4", "--from", "3", "--to", "50",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "theorem_id,n,lhs,rhs,slack,holds,applicable,marginal"
        assert len(lines) == 49
        assert lines[1].startswith("T4_lower_upsilon,3,")

    def test_jobs_agree_with_serial(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run(capsys, "verify", "T5", "--from", "2", "--to", "800",
                             "--out", str(f1))
        code2, out2, _ = run(capsys, "verify", "T5", "--from", "2", "--to", "800",
                             "--jobs", "4", "--out", str(f2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("command", [["verify", "T1"], ["scan", "--out", "scan.csv"]])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_bad_argument(self, capsys, tmp_path, monkeypatch,
                                              command, jobs):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--from", "3", "--to", "100", "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--jobs: must be at least 1" in captured.err
        assert not (tmp_path / "scan.csv").exists()

    def test_help_names_every_registered_id(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        words = capsys.readouterr().out.split()
        assert {b.alias or b.id for b in bounds.BOUNDS.values()} <= set(words)

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "verify", "T7", "--from", "2", "--to", "10")
        assert code == 2
        assert "unknown theorem" in err

    @pytest.mark.parametrize("theorem,n_from,n_to", [("PI_LB", 2, 598), ("C3", 3, 1000),
                                                     ("S32", 2, 3)])
    def test_range_below_the_window_has_no_verdict(self, capsys, theorem, n_from, n_to):
        code, out, _ = run(capsys, "verify", theorem, "--from", str(n_from), "--to", str(n_to))
        assert code == 0
        lines = out.splitlines()
        assert lines[1:] == ["no verdict: no point in the validity window"]
        assert "min slack" not in out

    def test_perfecter_range_below_the_window_writes_inapplicable_rows(
            self, capsys, tmp_path, table_small):
        # n = 2 and 3 are evaluated and reported outside the window, as
        # PI_LB's points below 599 are
        out_file = tmp_path / "rows.csv"
        code, out, err = run(capsys, "verify", "S32", "--from", "2", "--to", "3",
                             "--out", str(out_file))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "S32_perfecter [2..3] exhaustive: checked 2 (2 below the validity window n >= 4)",
            "no verdict: no point in the validity window"]
        text = out_file.read_text()
        assert text == reference_report(table_small, "S32", [2, 3])
        assert [row.split(",")[6] for row in text.splitlines()[1:]] == ["false", "false"]

    def test_empty_range(self, capsys):
        code, _, _ = run(capsys, "verify", "T1", "--from", "10", "--to", "5")
        assert code == 2

    @pytest.mark.parametrize("theorem", ["T1", "T2", "C3", "T4", "T5", "TB2",
                                         "TB4", "PI_LB", "PI_UB", "S32"])
    @pytest.mark.parametrize("mode", [[], ["--log-samples", "5"]])
    def test_n_below_2_is_a_bad_request(self, capsys, theorem, mode):
        code, out, err = run(capsys, "verify", theorem, "--from", "1", "--to", "100",
                             *mode)
        assert code == 2
        assert "bad request" in err and out == ""

    @pytest.mark.parametrize("theorem", ["T2", "T5"])
    def test_report_rows_match_pointwise(self, capsys, tmp_path, theorem):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", theorem, "--from", "2", "--to", "3000",
                         "--out", str(out_file))
        assert code == 0
        table = build_table(3000)
        rows = [CSV_HEADER]
        for n in range(2, 3001):
            r = evaluate_theorem(table, theorem, n)
            rows.append(",".join([r.theorem_id] + [fmt(x) for x in (
                r.n, r.lhs, r.rhs, r.slack, r.holds, r.applicable, r.marginal)]))
        assert out_file.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("theorem,n_from", [
        ("T1", 2), ("T2", 2), ("C3", 2), ("T4", 2), ("T5", 2), ("TB2", 2),
        ("TB4", 2), ("PI_LB", 2), ("PI_UB", 2), ("S32", 4)])
    def test_report_rows_across_slices(self, capsys, tmp_path, monkeypatch,
                                       table_small, theorem, n_from):
        # 7-row slices inside 16-point verdict slices of 40-point walk
        # windows: the three kinds of edge differ
        monkeypatch.setattr(cli, "ROW_SLICE", 7)
        monkeypatch.setattr(bounds, "walk_window", lambda n_to: 40)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: 16)
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", theorem, "--from", str(n_from),
                         "--to", "150", "--out", str(out_file))
        assert code == (1 if theorem == "T1" else 0)
        assert out_file.read_text() == reference_report(table_small, theorem,
                                                        range(n_from, 151))

    @pytest.mark.parametrize("theorem", ["T1", "T4"])
    def test_log_spaced_rows_across_slices(self, capsys, tmp_path, monkeypatch,
                                           table_small, theorem):
        monkeypatch.setattr(cli, "ROW_SLICE", 7)
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", theorem, "--from", "3", "--to", "10000",
                         "--log-samples", "30", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == reference_report(
            table_small, theorem, bounds.log_spaced(3, 10000, 30))

    def test_corollary_window_rows_across_slices(self, capsys, tmp_path, monkeypatch,
                                                 table_big):
        monkeypatch.setattr(cli, "ROW_SLICE", 7)
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", "C3", "--from", "12602987",
                         "--to", "12603006", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == reference_report(
            table_big, "C3", range(12_602_987, 12_603_007))

    def test_violation_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "T1", "--from", "2", "--to", "70000")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == "VIOLATIONS at 1 point(s): 2"
        assert lines[2] == "  n=2: lhs=1 rhs=-inf slack=-inf"


class TestConstants:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [l for l in lines[1:] if not l.startswith("max ")]
        assert len(rows) == 12
        assert "OK" in lines[-1]

    def test_tight_tolerance_on_closed_forms(self, capsys):
        code, out, _ = run(capsys, "constants", "--tol", "1e-12",
                           "--only", "c1,c5,c9,c10")
        assert code == 0

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "constants", "--only", "c99")
        assert code == 2

    @pytest.mark.parametrize("only", [",", "", " , ,"])
    def test_only_naming_nothing(self, capsys, only):
        code, out, err = run(capsys, "constants", "--only", only)
        assert code == 2
        assert out == "" and "names no constant" in err

    def test_malformed_tol(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--tol", "tiny"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    def test_tol_outside_its_domain(self, capsys, tol):
        code, out, err = run(capsys, "constants", f"--tol={tol}")
        assert code == 2
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize("tol", ["0", "inf"])
    def test_tol_edges_are_valid(self, capsys, tol):
        code, out, _ = run(capsys, "constants", "--tol", tol)
        ok = tol == "inf"  # the worst constant misses its 40-digit value a little
        assert code == (0 if ok else 1)
        assert out.splitlines()[-1].endswith("-> OK" if ok else "-> MISMATCH")


def reference_perfecter(table, n, exact_max_bits=perfecter_module.DEFAULT_EXACT_MAX_BITS):
    """perfecter output rendered from the array of the odd-exponent primes."""
    odd = odd_exponent_primes(table, n).tolist()
    log_value = math.fsum(np.log(np.array(odd, dtype=np.float64)).tolist())
    shown = " ".join(map(str, odd[:30])) + (" ..." if len(odd) > 30 else "")
    lines = [f"perfecter({n}!):", f"  odd-exponent primes ({len(odd)}): {shown or 'none'}",
             f"  log value = {fmt(log_value)}"]
    exact = math.prod(odd)
    if exact.bit_length() <= exact_max_bits:
        lines.append(f"  exact value = {exact}")
    else:
        lines.append(f"  exact value suppressed (over {exact_max_bits} bits; "
                     "raise --exact-max-bits)")
    if n >= 4:
        lower, upper = (float(v[0]) for v in
                        bounds.perfecter_exponents(np.array([n], dtype=np.float64)))
        lines.append(f"  lower bound exponent {fmt(lower)} < log value: {fmt(log_value > lower)}")
        lines.append(f"  upper bound exponent {fmt(upper)} > log value: {fmt(log_value < upper)}")
    return "\n".join(lines) + "\n"


class TestPerfecter:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "perfecter", "5")
        assert code == 0
        assert "2 3 5" in out
        assert "exact value = 30" in out
        assert "true" in out  # both bounds hold

    def test_one(self, capsys):
        code, out, _ = run(capsys, "perfecter", "1")
        assert code == 0
        assert "exact value = 1" in out

    def test_bit_cap_suppression(self, capsys):
        code, out, _ = run(capsys, "perfecter", "1000", "--exact-max-bits", "64")
        assert code == 0
        assert "suppressed" in out
        code, out, _ = run(capsys, "perfecter", "1000")
        assert code == 0
        assert "exact value = " in out

    def test_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "perfecter", "0")
        assert code == 2

    def test_kernel_above_the_int_string_limit(self, capsys):
        # the kernel of 60000! has about 18000 digits, above the 4300 that
        # str() converts by default; the limit stays as it was
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "perfecter", "60000", "--exact-max-bits", "100000")
        assert code == 0 and sys.get_int_max_str_digits() == limit
        (line,) = [x for x in out.splitlines() if x.startswith("  exact value = ")]
        digits = line.removeprefix("  exact value = ")
        assert len(digits) > 4300
        kernel = math.prod(odd_exponent_primes(build_table(60000), 60000).tolist())
        # Decimal reads and converts ints of any length
        assert Decimal(digits) == Decimal(kernel) and digits.isdigit()

    @pytest.mark.parametrize("n", [4, 5, 100, 10007])
    def test_perfecter_computed_once(self, capsys, monkeypatch, n):
        rep = perfecter_bounds(build_table(n), n)
        lower = float(bounds.perfecter_exponents(np.array([n], dtype=np.float64))[0][0])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return perfecter_factorial(*args, **kwargs)

        monkeypatch.setattr(perfecter_module, "perfecter_factorial", counted)
        code, out, _ = run(capsys, "perfecter", str(n))
        assert code == 0 and calls == [n]
        assert out.splitlines()[-2:] == [
            f"  lower bound exponent {fmt(lower)} < log value: {fmt(rep.lhs > lower)}",
            f"  upper bound exponent {fmt(rep.rhs)} > log value: {fmt(rep.lhs < rep.rhs)}"]

    @pytest.mark.parametrize("n,flag", [(1, []), (4, []), (1025, []), (3001, []),
                                        (3001, ["--exact-max-bits", "0"]),
                                        (100_000, []), (300_007, [])])
    def test_output_across_value_blocks(self, capsys, monkeypatch, table_big, n, flag):
        # 256 values a block: the head, the blocks below the cut and the
        # runs above it (from 65536 on) each span many blocks
        expected = reference_perfecter(table_big, n, *map(int, flag[1:]))
        monkeypatch.setattr(primes, "_VALUE_BLOCK", 256)
        code, out, _ = run(capsys, "perfecter", str(n), *flag)
        assert code == 0
        assert out == expected

    def test_negative_bit_cap_rejected(self, capsys):
        code, out, err = run(capsys, "perfecter", "100", "--exact-max-bits", "-5")
        assert code == 2
        assert out == "" and "exact_max_bits" in err


ALL_THEOREMS = ["T1", "T2", "C3", "T4", "T5", "TB2", "TB4", "PI_LB", "PI_UB", "S32"]


class TestWindowSizes:
    """What verify and scan print does not depend on the walk window or
    the verdict slice."""

    @pytest.mark.parametrize("theorem", ALL_THEOREMS)
    # the second range crosses 65536, where walk_window steps from 2^14 to 2^15
    @pytest.mark.parametrize("n_from,n_to", [(2, 1500), (65_300, 65_800)])
    def test_verify_output(self, capsys, tmp_path, monkeypatch, theorem, n_from, n_to):
        # None is the rule; slice_points follows a patched walk window
        rule, sizes = bounds.walk_window, bounds.slice_points
        out_file = tmp_path / "rows.csv"
        outputs = {}
        for walk, cut in itertools.product((7, 97, None), (5, 64, None)):
            monkeypatch.setattr(bounds, "walk_window",
                                rule if walk is None else lambda n_to, w=walk: w)
            monkeypatch.setattr(bounds, "slice_points",
                                sizes if cut is None else lambda n_to, c=cut: c)
            code, out, _ = run(capsys, "verify", theorem, "--from", str(n_from),
                               "--to", str(n_to), "--out", str(out_file))
            outputs[walk, cut] = (code, out, out_file.read_bytes())
        assert all(v == outputs[None, None] for v in outputs.values())

    def test_scan_rows(self, capsys, tmp_path):
        # every step-th row of the full scan, whether the step filters
        # walked windows or anchors each row (a whole walk window or more)
        def rows(step):
            out = tmp_path / f"scan{step}.csv"
            code, _, _ = run(capsys, "scan", "--from", "2", "--to", "20000",
                             "--step", str(step), "--out", str(out))
            assert code == 0
            return out.read_text().splitlines()
        header, *full = rows(1)
        for step in (7, 97, bounds.walk_window(20000), 19_000):
            assert rows(step) == [header] + full[::step], step


def reference_scan(table, n_from, n_to, step):
    """Scan rows rendered point by point from the pointwise functions."""
    lines = [SCAN_HEADER]
    for n in range(n_from, n_to + 1, step):
        ups = upsilon_value(table, n)
        pin = pi(table, n)
        mean = ups / pin
        t1 = rhs_value("T1", n)
        cells = [str(n), str(ups), str(pin), fmt(mean), fmt(t1), fmt(ups < t1)]
        if n >= 3:
            t4 = rhs_value("T4", n)
            cells += [fmt(t4), fmt(ups > t4)]
        else:
            cells += ["", ""]
        if n >= 12_602_987:
            c3 = rhs_value("C3", n)
            cells += [fmt(c3), fmt(mean < c3)]
        else:
            cells += ["", ""]
        cells.append(fmt(perfecter_factorial(table, n).log_value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestScan:
    def test_row_contents(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--from", "10", "--to", "100",
                         "--step", "10", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SCAN_HEADER
        assert len(lines) == 11
        row10 = lines[1].split(",")
        assert row10[0] == "10" and row10[1] == "15"
        assert row10[2] == "4" and row10[3] == "3.75"
        assert row10[5] == "true"  # T1 holds
        assert row10[8] == "" and row10[9] == ""  # corollary columns absent

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
        for path, jobs in ((a, "1"), (b, "1"), (c, "4")):
            code, _, _ = run(capsys, "scan", "--from", "2", "--to", "200",
                             "--out", str(path), "--jobs", jobs)
            assert code == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_unwritable_target(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "--from", "10", "--to", "20",
                           "--out", str(tmp_path / "no_dir" / "x.csv"))
        assert code == 3

    def test_unwritable_target_fails_before_sieving(self, capsys, tmp_path, monkeypatch):
        # scan and verify alike open --out before they build the table
        sieved = []
        monkeypatch.setattr(primes, "build_table", lambda *a, **k: sieved.append(a))
        for command in (["scan"], ["verify", "T2"]):
            code, _, _ = run(capsys, *command, "--from", "2", "--to", "3000000",
                             "--out", str(tmp_path / "no_dir" / "x.csv"))
            assert code == 3 and sieved == [], command

    @pytest.mark.parametrize("n_from,n_to,step", [(2, 3000, 1), (1000, 1500, 7)])
    def test_rows_match_pointwise(self, capsys, tmp_path, table_small, n_from, n_to, step):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(capsys, "scan", "--from", str(n_from), "--to", str(n_to),
                              "--step", str(step), "--out", str(out))
        assert code == 0
        assert out.read_text() == reference_scan(table_small, n_from, n_to, step)
        assert stdout == f"wrote {len(range(n_from, n_to + 1, step))} rows to {out}\n"

    @pytest.mark.parametrize("step", [7, 96, 97, 250])
    def test_rows_across_short_windows(self, capsys, tmp_path, table_small,
                                       monkeypatch, step):
        # steps below the walk window filter walked windows; steps of a
        # whole window or more anchor every row
        monkeypatch.setattr(bounds, "walk_window", lambda n_to: 97)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: 40)
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--from", "1001", "--to", "3000",
                         "--step", str(step), "--out", str(out))
        assert code == 0
        assert out.read_text() == reference_scan(table_small, 1001, 3000, step)

    @pytest.mark.parametrize("n_from,n_to", [(2, 40), (12_602_978, 12_602_996)])
    def test_rows_across_slices(self, capsys, tmp_path, table_small, table_big,
                                monkeypatch, n_from, n_to):
        # the T4 cells start at n = 3, the C3 cells at 12602987
        monkeypatch.setattr(cli, "ROW_SLICE", 7)
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--from", str(n_from), "--to", str(n_to),
                         "--out", str(out))
        assert code == 0
        table = table_small if n_to <= table_small.limit else table_big
        assert out.read_text() == reference_scan(table, n_from, n_to, 1)

    def test_corollary_columns(self, capsys, tmp_path, table_big):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--from", "12602980", "--to", "12603000",
                         "--step", "3", "--out", str(out))
        assert code == 0
        assert out.read_text() == reference_scan(table_big, 12_602_980, 12_603_000, 3)

    @pytest.mark.parametrize("step", [1, 3])
    def test_t4_cells_follow_the_registry(self, capsys, tmp_path, table_small,
                                          monkeypatch, step):
        t4 = bounds.BOUNDS["T4_lower_upsilon"]
        monkeypatch.setitem(bounds.BOUNDS, t4.id, t4._replace(start=17, sense="<"))
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--from", "2", "--to", "60",
                         "--step", str(step), "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(2, 61, step))
        for r in rows:
            n, ups = int(r[0]), int(r[1])
            if n < 17:
                assert r[6:8] == ["", ""], n
            else:
                rhs = rhs_value("T4", n)
                assert r[6:8] == [fmt(rhs), fmt(ups < rhs)], n

    def test_bad_range(self, capsys, tmp_path):
        out = tmp_path / "refused.csv"
        for argv, message in [
                (("--from", "1", "--to", "10"), "n must be >= 2, got 1"),
                (("--from", "10", "--to", "9"), "n_to=9 is below n_from=10"),
                (("--from", "2", "--to", "10", "--step", "0"), "step must be >= 1, got 0")]:
            code, _, err = run(capsys, "scan", *argv, "--out", str(out))
            assert (code, err) == (2, f"bad request: {message}\n"), argv
            assert not out.exists(), argv


class TestRangeErrors:
    """verify and scan run their ranges through one function: they refuse
    a bad range, and an --out they cannot write, with the same line and
    exit code."""

    @pytest.mark.parametrize("command", [["verify", "T1"], ["scan"]], ids=["verify", "scan"])
    @pytest.mark.parametrize("n_from,n_to,err", [
        ("10", "5", "bad request: n_to=5 is below n_from=10\n"),
        ("1", "5", "bad request: n must be >= 2, got 1\n")], ids=["empty", "below_2"])
    def test_bad_range(self, capsys, tmp_path, command, n_from, n_to, err):
        out = tmp_path / "x.csv"
        assert run(capsys, *command, "--from", n_from, "--to", n_to,
                   "--out", str(out)) == (2, "", err)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify", "T1"], ["scan"]], ids=["verify", "scan"])
    def test_unwritable_out(self, capsys, tmp_path, command):
        out = tmp_path / "no_dir" / "x.csv"
        code, stdout, err = run(capsys, *command, "--from", "2", "--to", "5",
                                "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1


class TestEnvironment:
    def test_env_cap_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("FACTPRIMES_MAX_SIEVE", "100")
        code, _, err = run(capsys, "decompose", "1000")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FACTPRIMES_MAX_SIEVE", "100")
        code, _, _ = run(capsys, "decompose", "1000", "--max-sieve", "2000")
        assert code == 0

    def test_garbage_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FACTPRIMES_MAX_SIEVE", "lots")
        code, _, err = run(capsys, "decompose", "1000")
        assert code == 2

    @pytest.mark.parametrize("cap", ["-1", "0", "1"])
    def test_cap_below_2_is_a_bad_argument(self, capsys, monkeypatch, tmp_path, cap):
        # flag and environment alike: exit 2 with the reason, not "resource limit"
        code, out, err = run(capsys, "decompose", "1000", "--max-sieve", cap)
        assert (code, out) == (2, "") and "--max-sieve must be >= 2" in err
        assert "resource limit" not in err
        monkeypatch.setenv("FACTPRIMES_MAX_SIEVE", cap)
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "10",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "") and "FACTPRIMES_MAX_SIEVE must be >= 2" in err
        assert not (tmp_path / "x.csv").exists()


class TestRowWriter:
    # NaN, the infinities, -0.0 and subnormals included
    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    def test_float_template_is_fmt(self, x):
        assert "%.12g" % x == fmt(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                   2.2250738585072014e-308, 1e16, 123456789012.5])
    def test_float_template_edges(self, x):
        assert "%.12g" % x == fmt(x)

    @given(st.integers())
    def test_int_template_is_fmt(self, n):
        assert "%d" % n == fmt(n)


def test_cli_import_loads_no_heavy_module():
    # every CLI run pays for its imports; these are test or oracle tools only
    heavy = ("sympy", "mpmath", "hypothesis", "scipy")
    probe = ("import sys, factprimes.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))")
    src = str(Path(factprimes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_verify_imports_no_fractions_decimal_or_json():
    # about 6 ms of every process: a Fraction is built only on exact paths,
    # and json is needed only by decompose --format json
    src = str(Path(factprimes.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "factprimes.cli",
                           "verify", "T1", "--from", "3", "--to", "1000"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "factprimes.bounds" in loaded
    assert loaded.isdisjoint({"fractions", "decimal", "json"})
