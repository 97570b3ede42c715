import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from factprimes import (DomainError, RangeSummary, default_constants,
                        error_terms, evaluate_theorem, kappa, log_integral, s1,
                        s2, theta, upsilon_value, verify_range)
from factprimes import bounds
from factprimes.bounds import (CLOSED_FORM, EXACT_EVAL, TABULATED,
                               log_spaced, resolve_theorem_id, rhs_value, sweep)
from factprimes.errors import OutOfRangeError, ResourceLimitError


@pytest.fixture(scope="module")
def constants():
    return default_constants()


class TestConstants:
    def test_all_within_tabulated_tolerance(self, constants):
        for entry in constants:
            assert abs(entry.value - TABULATED[entry.name]) <= 1e-6, entry.name

    def test_closed_forms_hit_their_expressions(self, constants):
        for name in CLOSED_FORM:
            entry = constants.entries[name]
            assert abs(entry.value - EXACT_EVAL[name]) <= 1e-10, name

    def test_exact_relations(self, constants):
        assert constants.c4 == pytest.approx(constants.c1 + constants.c3, abs=1e-12)
        assert constants.c8 == pytest.approx(
            constants.c5 + constants.c7 + constants.e3_min, abs=1e-12)

    def test_c9_c10_are_negated_rational_terms(self, constants):
        terms = error_terms(2)
        assert constants.c9 == -terms.r1
        assert constants.c10 == -terms.r2

    def test_e3_min_matches_printed_closed_form(self, constants):
        lg = math.log(29)
        printed_form = -29 * (131874 * lg**2 - 238693 * lg - 155428) / \
            (3292800 * lg**3)
        assert constants.e3_min == pytest.approx(printed_form, abs=1e-12)

    def test_quadrature_error_budget(self, constants):
        assert constants.entries["c2"].abs_err_estimate <= 1e-9
        assert constants.entries["c6"].abs_err_estimate <= 1e-9


class TestSums:
    def test_s1_examples(self, table_small):
        assert s1(table_small, 10) == 17.25
        assert s1(table_small, 2) == 1.0
        assert s1(table_small, 10, exact=True) == Fraction(69, 4)

    def test_s1_exact_cap(self, table_small):
        with pytest.raises(ResourceLimitError):
            s1(table_small, 2000, exact=True)

    def test_s2_examples(self, table_small):
        expected = 2 + math.log(4) / math.log(3)
        assert s2(table_small, 4) == pytest.approx(expected, abs=1e-12)
        assert s2(table_small, 2) == pytest.approx(1.0, abs=1e-14)

    def test_range_errors(self, table_small):
        with pytest.raises(OutOfRangeError):
            s1(table_small, table_small.limit + 1)

    def test_sandwich_chain_exhaustive(self, table_small):
        """s1 >= upsilon and s1 - pi - s2 <= upsilon for every n <= 1e4."""
        ps_all = table_small.primes.astype(np.float64)
        log_all = np.log(ps_all)
        from factprimes import valuation_vector
        for n in range(2, 10_001):
            idx = int(np.searchsorted(table_small.primes, n, side="right"))
            ups = int(valuation_vector(table_small, n).sum())
            s1_val = float(np.sum((n - 1.0) / (ps_all[:idx] - 1.0)))
            s2_val = math.log(n) * float(np.sum(1.0 / log_all[:idx]))
            assert s1_val >= ups - 1e-6, n
            assert s1_val - idx - s2_val <= ups + 1e-6, n


class TestErrorTerms:
    def test_e1_negative_up_to_1e4(self):
        for n in range(2, 10_001):
            assert error_terms(n).e1 < 0

    def test_consistency_at_lower_endpoint(self, constants):
        # the integral from 2 to 2 vanishes, so e1(2) = -c1 and e3(2) = -c5
        terms = error_terms(2)
        assert terms.e1 == pytest.approx(-constants.c1, abs=1e-9)
        assert terms.e3 == pytest.approx(-constants.c5, abs=1e-9)

    def test_e1_log_limit(self):
        # e1(n) * log n -> -1; frozen value at n = 1e12
        n = 1e12
        value = error_terms(n).e1 * math.log(n)
        assert value + 1 == pytest.approx(-0.0734801911, abs=1e-6)
        assert abs(value + 1) < 0.08

    def test_e2_negative_and_vanishing(self):
        assert error_terms(2).e2 == float("-inf")
        prev = None
        for n in (3, 10, 100, 10_000, 10**6):
            e2 = error_terms(n).e2
            assert e2 < 0
            if prev is not None:
                assert e2 > prev  # increases towards 0
            prev = e2
        assert abs(error_terms(10**6).e2) < 1e-3

    def test_e4_positive_decreasing(self):
        values = [error_terms(n).e4 for n in (2, 5, 29, 1000, 10**6)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_e3_minimum_bracketing(self):
        e28, e29, e30 = (error_terms(n).e3 for n in (28, 29, 30))
        assert e29 < e28 and e29 < e30

    def test_domain(self):
        with pytest.raises(DomainError):
            error_terms(1)


class TestKappa:
    def test_formula_point(self):
        # log n = 1 gives 5000/11381
        assert kappa(math.e) == pytest.approx(5000 / 11381, abs=1e-9)

    def test_at_10(self):
        lg = math.log(10)
        assert kappa(10) == pytest.approx(5000 * lg / (6381 + 5000 * lg))
        assert kappa(10) == pytest.approx(0.6433985370, abs=1e-9)

    def test_monotone_to_one(self):
        assert 0 < kappa(2) < kappa(10**3) < kappa(10**6) < 1


class TestEpsilonInequality:
    # the tabulated eps plus the log-integral stays below the four-term
    # series with the 51 n / log^5 n cushion at sampled n
    SAMPLE = [2, 5, 10, 50, 100, 564, 1000, 5000, 20_000, 10**5, 5 * 10**5, 10**6]

    def test_holds_at_samples(self, constants):
        eps = constants.eps
        margins = []
        for n in self.SAMPLE:
            li, _ = log_integral(n)
            lg = math.log(n)
            rhs = n * sum(math.factorial(k - 1) / lg**k for k in range(1, 5)) \
                + 51 * n / lg**5
            margins.append(rhs - li)
            assert eps + li < rhs, n
        # report the sampled infimum; it is not asserted to equal eps
        print(f"\nsampled inf of (rhs - integral) = {min(margins):.9f} "
              f"(tabulated eps = {eps})")

    def test_fails_exactly_on_12630_to_12646(self, constants):
        # the README finding, at 30 digits: the margin rhs - (li(n) - li(2))
        # - eps is negative at exactly these 17 integers of [12600, 12680]
        # (+4.47e-9 at 12629, -2.04e-8 at 12630, +1.73e-8 at 12647)
        with mpmath.workdps(30):
            eps = mpmath.mpf(constants.eps)

            def margin(n):
                lg = mpmath.log(n)
                rhs = (n * sum(mpmath.factorial(k - 1) / lg**k for k in range(1, 5))
                       + 51 * n / lg**5)
                return rhs - (mpmath.li(n) - mpmath.li(2)) - eps

            failing = [n for n in range(12_600, 12_681) if margin(n) < 0]
            assert failing == list(range(12_630, 12_647))
            assert 4e-9 < margin(12_629) < 5e-9
            assert -2.1e-8 < margin(12_630) < -2e-8

    def test_s2_lower_chain_from_564(self, table_small, constants):
        for n in (564, 1000, 5000, 10_000):
            lhs = s2(table_small, n)
            lg = math.log(n)
            rhs = theta(table_small, n) / lg + 2 * n / lg**2 + 6 * n / lg**3 \
                + 1607 * n / (100 * lg**4) + constants.c9 * lg
            assert lhs > rhs, n


class TestTheoremEvaluation:
    def test_t1_at_10(self, table_small):
        rep = evaluate_theorem(table_small, "T1", 10)
        assert rep.theorem_id == "T1_upper_upsilon"
        assert rep.lhs == 15 and rep.holds

    def test_t1_diverges_at_2(self, table_small):
        # the (n-1) log log(n-1) term is -inf at n = 2: the claimed n >= 2
        # window fails at its left endpoint and the verifier reports that
        rep = evaluate_theorem(table_small, "T1", 2)
        assert rep.rhs == float("-inf")
        assert not rep.holds and rep.applicable

    def test_t4_at_3(self, table_small):
        rep = evaluate_theorem(table_small, "T4", 3)
        assert rep.lhs == 2 and rep.rhs < -200 and rep.holds

    def test_c3_at_threshold(self, table_big):
        rep = evaluate_theorem(table_big, "C3", 12_602_987)
        assert rep.holds and rep.applicable
        assert rep.slack == pytest.approx(334.9, abs=0.5)

    def test_t5_at_2(self, table_small):
        rep = evaluate_theorem(table_small, "T5", 2)
        assert rep.applicable and rep.holds

    def test_probing_below_validity_is_flagged(self, table_small):
        rep = evaluate_theorem(table_small, "T4", 2)
        assert not rep.applicable

    def test_dusart_dispatch(self, table_small):
        assert evaluate_theorem(table_small, "TB2", 10).theorem_id == "TB2"
        assert evaluate_theorem(table_small, "PI_UB", 10).theorem_id == "PI_UB"

    def test_s32_dispatch(self, table_small):
        rep = evaluate_theorem(table_small, "S32", 100)
        assert rep.theorem_id == "S32_perfecter" and rep.holds

    def test_unknown_id(self, table_small):
        with pytest.raises(DomainError):
            evaluate_theorem(table_small, "T9", 10)

    def test_aliases(self):
        assert resolve_theorem_id("T1") == "T1_upper_upsilon"
        assert resolve_theorem_id("C3_upper_mean") == "C3_upper_mean"

    @pytest.mark.parametrize("tid", ["T1", "T2", "T4", "T5", "S32"])
    @pytest.mark.parametrize("n", [100.9, 2.5])
    def test_non_integral_n_on_factorial_kinds(self, table_small, tid, n):
        with pytest.raises(DomainError):
            evaluate_theorem(table_small, tid, n)
        assert evaluate_theorem(table_small, tid, 100.0) == evaluate_theorem(
            table_small, tid, 100)

    @pytest.mark.parametrize("tid", list(bounds.BOUNDS))
    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_non_finite_n(self, table_small, tid, n):
        with pytest.raises(DomainError):
            evaluate_theorem(table_small, tid, n)

    def test_real_n_on_theta_and_pi(self, table_small):
        # only floor(n) enters theta and pi; the rhs and the deviation take n itself
        rep = evaluate_theorem(table_small, "TB2", 2.5)
        assert rep.n == 2.5 and rep.lhs == abs(math.log(2) - 2.5)
        assert rep.rhs == rhs_value("TB2", 2.5)
        rep = evaluate_theorem(table_small, "PI_UB", 10.9)
        assert rep.lhs == 4 and rep.rhs == rhs_value("PI_UB", 10.9)


class TestVerifyRange:
    def test_t1_from_3(self, table_small):
        reports, summary = verify_range(table_small, "T1", 3, 2000)
        assert summary.all_hold
        assert summary.n_checked == 1998
        assert summary.min_slack > 0
        assert reports[0].n == 3

    def test_t1_from_2_finds_the_endpoint(self, table_small):
        _, summary = verify_range(table_small, "T1", 2, 2000)
        assert not summary.all_hold
        assert summary.violations == (2,)

    def test_t2_small_window(self, table_small):
        _, summary = verify_range(table_small, "T2", 3, 598)
        assert summary.all_hold

    def test_log_sampling_deterministic(self, table_small):
        pts = log_spaced(2, 10_000, 50)
        assert list(pts) == list(log_spaced(2, 10_000, 50))
        assert pts[0] == 2 and pts[-1] == 10_000
        _, summary = verify_range(table_small, "T4", 3, 10_000, log_samples=25)
        assert summary.all_hold and summary.sampling == "log-spaced(25)"

    def test_log_sampling_at_most_one_sample_per_point(self):
        assert list(log_spaced(3, 7, 5)) == [3, 4, 5, 6, 7]
        for k in (0, 6, 10**20):
            with pytest.raises(DomainError):
                log_spaced(3, 7, k)

    def test_exhaustive_matches_pointwise(self, table_small):
        reports, _ = verify_range(table_small, "T5", 2, 40)
        for rep in reports[:10]:
            single = evaluate_theorem(table_small, "T5", int(rep.n))
            assert single.lhs == rep.lhs and single.rhs == rep.rhs
            assert single.holds == rep.holds

    def test_pi_bounds_range(self, table_small):
        reports, summary = verify_range(table_small, "PI_LB", 2, 700)
        assert summary.all_hold  # points below 599 are reported, not counted
        assert summary.n_checked == 699
        assert summary.n_applicable == 102

    @pytest.mark.parametrize("ends", [(2.5, 10.5), (2, 10.5), (2.5, 10),
                                      (2, math.nan), (math.nan, 10), (2, math.inf)])
    @pytest.mark.parametrize("tid", ["T1", "TB2", "PI_LB"])
    def test_bad_ends(self, table_small, tid, ends):
        with pytest.raises(DomainError):
            verify_range(table_small, tid, *ends)
        assert verify_range(table_small, tid, 2.0, 10.0) == verify_range(table_small, tid, 2, 10)

    def test_upsilon_matches_scanner(self, table_small):
        reports, _ = verify_range(table_small, "T1", 3, 500)
        for rep in reports[::97]:
            assert rep.lhs == upsilon_value(table_small, int(rep.n))


class TestResidualBandConsistency:
    def test_residual_between_implied_bands(self, table_big):
        # (upsilon - n log log n) / n must sit between the bands implied by
        # the lower and upper exponent-sum bounds at every tested n
        for n in log_spaced(3, 10**6, 25):
            n = int(n)
            ups = upsilon_value(table_big, n)
            llg = math.log(math.log(n))
            residual = (ups - n * llg) / n
            upper_band = (rhs_value("T1", n) - n * llg) / n
            lower_band = (rhs_value("T4", n) - n * llg) / n
            assert lower_band < residual < upper_band, n


ALL_IDS = ["T1_upper_upsilon", "T2_upper_mean", "C3_upper_mean",
           "T4_lower_upsilon", "T5_lower_mean", "TB2", "TB4", "PI_LB",
           "PI_UB", "S32_perfecter"]


def reduce_pointwise(tid, n_from, n_to, sampling, reports):
    """Reference reduction: the summary as a loop over per-n reports."""
    applicable = [r for r in reports if r.applicable]
    violations = tuple(int(r.n) for r in applicable if not r.holds)
    if applicable:
        best = min(applicable, key=lambda r: r.slack)
        min_slack, argmin_n = best.slack, int(best.n)
    else:
        min_slack, argmin_n = math.inf, n_from
    return RangeSummary(
        theorem_id=tid, n_from=n_from, n_to=n_to, sampling=sampling,
        n_checked=len(reports), n_applicable=len(applicable),
        all_hold=not violations, min_slack=min_slack, argmin_n=argmin_n,
        violations=violations,
        marginal_count=sum(1 for r in applicable if r.marginal))


class TestSweepEngine:
    @pytest.mark.parametrize("tid", ALL_IDS)
    def test_window_edges_match_pointwise(self, tid, table_big, monkeypatch):
        # S32 costs one perfecter per point, so it spans its windows with a
        # shorter WINDOW; every other id runs the real one
        if tid == "S32_perfecter":
            monkeypatch.setattr(bounds, "WINDOW", 64)
        lo = 4 if tid == "S32_perfecter" else 3
        hi = lo + 3 * bounds.WINDOW + 17
        windows = list(sweep(table_big, tid, lo, hi))
        assert len(windows) == 4
        assert [int(w.n[0]) for w in windows] == [lo + k * bounds.WINDOW for k in range(4)]
        reports, _ = verify_range(table_big, tid, lo, hi)
        assert [int(r.n) for r in reports] == list(range(lo, hi + 1))
        edges = [lo, hi] + [lo + k * bounds.WINDOW + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        for n in edges:
            assert reports[n - lo] == evaluate_theorem(table_big, tid, n), n

    @pytest.mark.parametrize("n_from", [2, 3, 127, 12_602_987])
    def test_carried_pi_at_window_edges(self, n_from, table_big, monkeypatch):
        # pi(n) starts from the anchor's pi(n_from - 1) and grows by one
        # where Omega(n) == 1, across windows of 7
        monkeypatch.setattr(bounds, "WINDOW", 7)
        n_to = n_from + 10 * 7 + 3
        cols = list(bounds.columns(table_big, ("mean",), n_from, n_to))
        assert len(cols) == 11
        ns = np.concatenate([c.n for c in cols])
        assert ns.tolist() == list(range(n_from, n_to + 1))
        assert np.concatenate([c.pi for c in cols]).tolist() == table_big.count(ns).tolist()
        for step, samples in ((3, None), (7, None), (1, 20)):
            for c in bounds.columns(table_big, ("mean", "perfecter"), n_from, n_to,
                                    step=step, log_samples=samples):
                assert c.pi.tolist() == table_big.count(c.n).tolist(), (step, samples)
        # only the mean reads it
        assert all(c.pi is None for c in bounds.columns(table_big, ("upsilon",), n_from, n_to))

    @pytest.mark.parametrize("tid", ALL_IDS)
    @pytest.mark.parametrize("log_samples", [None, 40])
    def test_summary_matches_pointwise_reduction(self, tid, log_samples, table_small):
        lo, hi = (4 if tid == "S32_perfecter" else 2), 1500
        reports, summary = verify_range(table_small, tid, lo, hi, log_samples=log_samples)
        points = range(lo, hi + 1) if log_samples is None else log_spaced(lo, hi, log_samples)
        pointwise = [evaluate_theorem(table_small, tid, int(n)) for n in points]
        assert reports == pointwise
        assert summary == reduce_pointwise(tid, lo, hi, summary.sampling, pointwise)

    @pytest.mark.parametrize("tid", ALL_IDS)
    def test_rejects_n_below_2(self, tid, table_small):
        with pytest.raises(DomainError):
            sweep(table_small, tid, 1, 100)
        with pytest.raises(DomainError):
            sweep(table_small, tid, 1, 100, log_samples=5)
        with pytest.raises(DomainError):
            evaluate_theorem(table_small, tid, 1)

    def test_perfecter_bound_starts_at_4(self, table_small):
        for lo in (2, 3):
            with pytest.raises(DomainError):
                sweep(table_small, "S32", lo, 100)
            with pytest.raises(DomainError):
                evaluate_theorem(table_small, "S32", lo)

    def test_range_beyond_table(self, table_small):
        with pytest.raises(OutOfRangeError):
            sweep(table_small, "TB2", 2, table_small.limit + 1)

    @pytest.mark.parametrize("tid", ["T1", "T2", "C3", "T4", "T5", "TB2", "TB4",
                                     "PI_LB", "PI_UB", "S32"])
    def test_scalar_rhs_is_the_sweep_rhs(self, tid, table_small):
        (window,) = sweep(table_small, tid, 4 if tid == "S32" else 2, 5000)
        for i in (0, 1, 977, len(window.n) - 1):
            n = int(window.n[i])
            value = rhs_value(tid, n)
            assert type(value) is float
            assert value == window.rhs[i] == evaluate_theorem(table_small, tid, n).rhs
        for bad in (1, math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(DomainError):
                rhs_value(tid, bad)
