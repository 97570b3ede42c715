import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprimes import (DomainError, RangeSummary, default_constants,
                        error_terms, evaluate_theorem, kappa, log_integral, s1,
                        s2, theta, upsilon_value, verify_range)
from factprimes import bounds, cli
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

    def test_exact_eval_is_the_40_digit_value_rounded(self):
        # recomputed with mpmath, not with the package: quad for c2 and c6,
        # E_1 for c3 and c7, closed forms for the rest; eps is adopted
        with mpmath.workdps(40):
            one = mpmath.mpf(1)
            l2 = mpmath.log(2)
            c1 = (-5937 * l2**2 + 3965 * l2 + 1586) / (600 * l2**3)
            c5 = (8337 * l2**2 - 3965 * l2 - 1586) / (600 * l2**3)
            c2 = mpmath.quad(lambda x: (1200 * x**3 + 365 * x**2 + 9944 * x - 1993)
                             / (1200 * (x - 1)**4 * mpmath.log(x)), [2, mpmath.e + 1])
            c6 = mpmath.quad(lambda x: (1200 * x**3 - 7565 * x**2 - 2744 * x - 407)
                             / (1200 * (x - 1)**4 * mpmath.log(x)), [2, mpmath.e])
            ei1, ei2, ei3 = (mpmath.expint(1, z) for z in (1, 2, 3))
            c3 = 793 * one / 240 * ei1 + 2379 * one / 200 * ei2 + 793 * one / 100 * ei3 + c2
            c7 = c6 - (1513 * one / 240 * ei1 + 343 * one / 150 * ei2 + 407 * one / 1200 * ei3)
            l29 = mpmath.log(29)
            e3_min = -29 * (1200 * 29**2 * l29**2 - 2379 * 29**2 * l29 - 1586 * 29**2
                            + 1565 * 29 * l29**2 + 3172 * 29 * l29 + 3172 * 29
                            + 407 * l29**2 - 793 * l29 - 1586) / (1200 * 28**3 * l29**3)
            tail = 793 * 2 * one / (1200 * l2**3) + 793 * 2 * one / (400 * l2**4)
            c9 = 1607 * 2 * one / (2400 * l2) + 1607 * 2 * one / (2400 * l2**2) - tail
            c10 = 3193 * 2 * one / (2400 * l2) + 3193 * 2 * one / (2400 * l2**2) + tail
            values = {"c1": c1, "c2": c2, "c3": c3, "c4": c1 + c3, "c5": c5, "c6": c6,
                      "c7": c7, "c8": c5 + c7 + e3_min, "c9": c9, "c10": c10,
                      "e3_min": e3_min}
        assert set(values) == set(EXACT_EVAL) - {"eps"}
        for name, value in values.items():
            with mpmath.workprec(53):  # round to nearest binary64
                assert EXACT_EVAL[name] == float(+value), name

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

    @pytest.mark.parametrize("n", [1e20, 1e100, 5e102, 6e102, 1e200, 1e300,
                                   sys.float_info.max])
    def test_e1_e3_at_large_n(self, n):
        with mpmath.workdps(30):
            x = mpmath.mpf(n)
            lg = mpmath.log(x)
            a_over_n = (1200 * x**2 * lg**2 + 2379 * x**2 * lg + 1586 * x**2
                        - 6365 * x * lg**2 - 3172 * x * lg - 3172 * x
                        + 1993 * lg**2 + 793 * lg + 1586)
            c_over_n = (1200 * x**2 * lg**2 - 2379 * x**2 * lg - 1586 * x**2
                        + 1565 * x * lg**2 + 3172 * x * lg + 3172 * x
                        + 407 * lg**2 - 793 * lg - 1586)
            denom = 1200 * (x - 1)**3 * lg**3
            e1, e3 = float(-x * a_over_n / denom), float(-x * c_over_n / denom)
        terms = error_terms(n)
        assert terms.e1 == pytest.approx(e1, rel=1e-12)
        assert terms.e3 == pytest.approx(e3, rel=1e-12)

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

    @staticmethod
    def gap(n):
        """g(n) = rhs - (li(n) - li(2)), in mpmath at the working precision."""
        lg = mpmath.log(n)
        rhs = n * sum(mpmath.factorial(k - 1) / lg**k for k in range(1, 5)) + 51 * n / lg**5
        return rhs - (mpmath.li(n) - mpmath.li(2))

    def test_fails_exactly_on_12630_to_12646(self, constants):
        # the README finding, at 30 digits: the margin rhs - (li(n) - li(2))
        # - eps is negative at exactly these 17 integers of [12600, 12680]
        # (+4.47e-9 at 12629, -2.04e-8 at 12630, +1.73e-8 at 12647)
        with mpmath.workdps(30):
            eps = mpmath.mpf(constants.eps)

            def margin(n):
                return self.gap(n) - eps

            failing = [n for n in range(12_600, 12_681) if margin(n) < 0]
            assert failing == list(range(12_630, 12_647))
            assert 4e-9 < margin(12_629) < 5e-9
            assert -2.1e-8 < margin(12_630) < -2e-8

    def test_infimum_lies_below_eps(self, constants):
        # the infimum of g over the reals, where g' = 0 near 12637.76, at 30
        # digits: the tabulated eps exceeds it by 1.111e-7, which is why the
        # integers 12630..12646 fail
        with mpmath.workdps(30):
            def slope(n):  # g'(n): d/dn n / log^k n = 1 / log^k n - k / log^(k+1) n
                lg = mpmath.log(n)
                return (sum(mpmath.factorial(k - 1) / lg**k - mpmath.factorial(k) / lg**(k + 1)
                            for k in range(1, 5))
                        + 51 / lg**5 - 255 / lg**6 - 1 / lg)

            argmin = mpmath.findroot(slope, 12_637.76)
            g_min = self.gap(argmin)
            assert abs(argmin - mpmath.mpf("12637.7600965")) < 1e-7
            assert abs(g_min - mpmath.mpf("0.144266335895628")) < 1e-15
            assert self.gap(argmin - 1) > g_min < self.gap(argmin + 1)
            assert abs(mpmath.diff(self.gap, argmin)) < 1e-20
            assert 1.110e-7 < mpmath.mpf(constants.eps) - g_min < 1.112e-7

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


def mean_holds(sense, ups, pi, rhs):
    """bounds._mean_holds at one point, given the float mean and slack that
    evaluate computes there."""
    ups, pi, rhs = np.array([ups]), np.array([pi]), np.array([rhs])
    mean = ups / pi
    slack = rhs - mean if sense in ("<", "<=") else mean - rhs
    return bool(bounds._mean_holds(sense, ups, pi, mean, rhs, slack)[0])


class TestMeanVerdict:
    # upsilon/pi <sense> rhs is decided exactly against the binary64 rhs,
    # with no cushion on either side, as every other bound is

    def test_mean_equal_to_an_upper_rhs_fails(self):
        assert not mean_holds("<", 3, 2, 1.5)

    def test_mean_just_above_an_upper_rhs_fails(self):
        assert not mean_holds("<", 3_000_000_001, 2_000_000_000, 1.5)

    def test_mean_equal_to_a_lower_rhs_fails(self):
        assert not mean_holds(">", 3, 2, 1.5)

    def test_mean_just_below_a_lower_rhs_fails(self):
        assert not mean_holds(">", 2_999_999_999, 2_000_000_000, 1.5)

    def test_mean_one_ulp_inside_its_rhs_holds(self):
        assert mean_holds("<", 3, 2, math.nextafter(1.5, math.inf))
        assert mean_holds(">", 3, 2, math.nextafter(1.5, -math.inf))

    def test_a_mean_rounded_onto_its_rhs_is_decided_by_its_exact_value(self):
        # the float 4/3 lies below 4/3, so against it as rhs the exact mean
        # holds a lower bound and fails an upper one, where the float mean
        # equals the rhs
        rhs = 4 / 3
        assert Fraction(rhs) < Fraction(4, 3)
        assert mean_holds(">", 4, 3, rhs) and mean_holds(">=", 4, 3, rhs)
        assert not mean_holds("<", 4, 3, rhs) and not mean_holds("<=", 4, 3, rhs)

    @pytest.mark.parametrize("tid", ["T2", "T5"])
    def test_every_sweep_verdict_is_the_exact_comparison(self, tid, table_small):
        less = bounds.BOUNDS[resolve_theorem_id(tid)].upper
        windows = list(sweep(table_small, tid, 3, 10_000))
        cols = list(bounds.columns(table_small, ("mean",), 3, 10_000))
        rhs = np.concatenate([w.rhs for w in windows]).tolist()
        ups = np.concatenate([c.upsilon for c in cols]).tolist()
        pis = np.concatenate([c.pi for c in cols]).tolist()
        exact = [Fraction(u, p) < Fraction(r) if less else Fraction(u, p) > Fraction(r)
                 for u, p, r in zip(ups, pis, rhs)]
        assert np.concatenate([w.holds for w in windows]).tolist() == exact


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

    @given(st.integers(1, 10**12), st.integers(0, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_log_sampling_dedups_as_unique(self, n_from, span, data):
        n_to = n_from + span
        k = data.draw(st.integers(1, min(span + 1, 5000)), label="k")
        pts = np.geomspace(n_from, n_to, k).round().astype(np.int64)
        expected = np.unique(np.clip(pts, n_from, n_to))
        assert log_spaced(n_from, n_to, k).tolist() == expected.tolist()

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
        # walk windows of three slices and 17 points, so walk and slice
        # edges differ; S32 costs one perfecter per point, so it spans its
        # windows with 64-point slices, and every other id with those of
        # long runs
        size = 64 if tid == "S32_perfecter" else bounds.slice_points(10**8)
        walk = 3 * size + 17
        monkeypatch.setattr(bounds, "walk_window", lambda n_to: walk)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: size)
        lo = 4 if tid == "S32_perfecter" else 3
        hi = lo + 2 * walk + 17
        windows = list(sweep(table_big, tid, lo, hi))
        starts = [lo + k * walk + j * size for k in (0, 1) for j in range(4)] + [lo + 2 * walk]
        if bounds.BOUNDS[tid].lhs in ("theta", "pi"):
            # read from the table, not walked: slices only
            starts = list(range(lo, hi + 1, size))
        assert [int(w.n[0]) for w in windows] == starts
        reports, _ = verify_range(table_big, tid, lo, hi)
        assert [int(r.n) for r in reports] == list(range(lo, hi + 1))
        edges = [lo, hi] + [n + d for n in starts[1:] for d in (-1, 0, 1)]
        for n in edges:
            assert reports[n - lo] == evaluate_theorem(table_big, tid, n), n

    @pytest.mark.parametrize("n_from", [2, 3, 127, 12_602_987])
    def test_carried_pi_at_window_edges(self, n_from, table_big, monkeypatch):
        # pi(n) starts from the anchor's pi(n_from - 1) and grows by one
        # where Omega(n) == 1, across walk windows of 7 in slices of 5
        monkeypatch.setattr(bounds, "walk_window", lambda n_to: 7)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: 5)
        n_to = n_from + 10 * 7 + 3
        cols = list(bounds.columns(table_big, ("mean",), n_from, n_to))
        assert [len(c.n) for c in cols] == [5, 2] * 10 + [4]
        ns = np.concatenate([c.n for c in cols])
        assert ns.tolist() == list(range(n_from, n_to + 1))
        assert np.concatenate([c.pi for c in cols]).tolist() == table_big.count(ns).tolist()
        for step, samples in ((3, None), (7, None), (1, 20)):
            for c in bounds.columns(table_big, ("mean", "perfecter"), n_from, n_to,
                                    step=step, log_samples=samples):
                assert c.pi.tolist() == table_big.count(c.n).tolist(), (step, samples)
        # only the mean reads it
        assert all(c.pi is None for c in bounds.columns(table_big, ("upsilon",), n_from, n_to))

    @pytest.mark.parametrize("n_from,step", [(2, 1), (3, 1), (262_140, 1), (2, 7),
                                             (1001, 997), (2, 70_001)])
    def test_carried_theta_is_the_prefix(self, n_from, step, table_big, monkeypatch):
        # theta along runs of points, carried across 5000-point slices and
        # the value blocks of primes_in, is the whole-table prefix bit for
        # bit, as are scattered points (a step of a walk window or more)
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: 5000)
        cols = list(bounds.columns(table_big, ("theta",), n_from, 600_000, step=step))
        ns = np.concatenate([c.n for c in cols])
        assert ns.tolist() == list(range(n_from, 600_001, step))
        theta_n = np.concatenate([c.theta for c in cols])
        assert theta_n.tolist() == table_big.log_prefix[table_big.count(ns) - 1].tolist()

    @pytest.mark.parametrize("n_from,n_to,size", [
        (2, 3000, 777), (250_000, 280_000, 777), (12_580_000, 12_604_000, 777),
        (2, 600_000, 300_000)])
    def test_carried_pi_matches_pointwise(self, n_from, n_to, size, table_big, monkeypatch):
        # pi along a run, read once at n_from - 1 and carried across slices
        # (of 300000 points, also across the value blocks of primes_in),
        # is the table's count, and gives evaluate_theorem's reports
        monkeypatch.setattr(bounds, "slice_points", lambda n_to: size)
        cols = list(bounds.columns(table_big, ("pi",), n_from, n_to))
        assert all(c.pi is not None for c in cols)
        ns = np.concatenate([c.n for c in cols])
        assert ns.tolist() == list(range(n_from, n_to + 1))
        assert np.concatenate([c.pi for c in cols]).tolist() == table_big.count(ns).tolist()
        for tid in ("PI_LB", "PI_UB") if size < 1000 else ():
            reports, _ = verify_range(table_big, tid, n_from, n_to)
            for r in reports[::97] + reports[-3:]:
                assert r == evaluate_theorem(table_big, tid, int(r.n)), (tid, r.n)
        # wider steps count pi from the table in evaluate
        assert all(c.pi is None for c in bounds.columns(table_big, ("pi",), n_from, n_to,
                                                        step=7))

    @pytest.mark.parametrize("tid", ALL_IDS)
    @pytest.mark.parametrize("log_samples", [None, 40])
    def test_summary_matches_pointwise_reduction(self, tid, log_samples, table_small):
        lo, hi = (4 if tid == "S32_perfecter" else 2), 1500
        reports, summary = verify_range(table_small, tid, lo, hi, log_samples=log_samples)
        points = range(lo, hi + 1) if log_samples is None else log_spaced(lo, hi, log_samples)
        pointwise = [evaluate_theorem(table_small, tid, int(n)) for n in points]
        assert reports == pointwise
        assert summary == reduce_pointwise(tid, lo, hi, summary.sampling, pointwise)

    @pytest.mark.parametrize("log_samples", [None, 40])
    def test_summary_of_no_slice(self, log_samples):
        summary = bounds.summarize_reports("T1", 7, 90, log_samples, iter(()))
        assert summary == RangeSummary(
            "T1", 7, 90, "exhaustive" if log_samples is None else "log-spaced(40)",
            n_checked=0, n_applicable=0, all_hold=True, min_slack=math.inf,
            argmin_n=7, violations=(), marginal_count=0)

    @pytest.mark.parametrize("tid", ALL_IDS)
    def test_rejects_n_below_2(self, tid, table_small):
        with pytest.raises(DomainError):
            sweep(table_small, tid, 1, 100)
        with pytest.raises(DomainError):
            sweep(table_small, tid, 1, 100, log_samples=5)
        with pytest.raises(DomainError):
            evaluate_theorem(table_small, tid, 1)

    def test_perfecter_bound_starts_at_4(self, table_small):
        # n = 2 and 3 are evaluated, outside the window, like PI_LB below 599
        ws = list(sweep(table_small, "S32", 2, 100))
        assert ws[0].n[:3].tolist() == [2, 3, 4]
        assert ws[0].applicable[:3].tolist() == [False, False, True]
        for lo in (2, 3):
            assert not evaluate_theorem(table_small, "S32", lo).applicable
        with pytest.raises(DomainError):
            sweep(table_small, "S32", 1, 100)

    def test_perfecter_bound_at_2_is_finite_without_a_warning(self, table_small):
        # log(n/2) = 0 makes the lower exponent -inf; the warning is off, as
        # for log log 1 in T1 (the test configuration turns warnings into errors)
        rep = evaluate_theorem(table_small, "S32", 2)
        assert rep.lhs == math.log(2)
        assert math.isfinite(rep.rhs) and math.isfinite(rep.slack)

    def test_range_beyond_table(self, table_small):
        with pytest.raises(OutOfRangeError):
            sweep(table_small, "TB2", 2, table_small.limit + 1)

    @pytest.mark.parametrize("log_samples", [None, 5])
    def test_inverted_range_names_both_ends(self, table_small, log_samples):
        # refused before the table's limit is looked at
        for n_to in (5, table_small.limit + 1):
            with pytest.raises(DomainError, match=f"^n_to={n_to} is below n_from=10000000$"):
                sweep(table_small, "T1", 10**7, n_to, log_samples=log_samples)

    @pytest.mark.parametrize("tid", ["T1", "T2", "C3", "T4", "T5", "TB2", "TB4",
                                     "PI_LB", "PI_UB", "S32"])
    def test_scalar_rhs_is_the_sweep_rhs(self, tid, table_small):
        windows = list(sweep(table_small, tid, 4 if tid == "S32" else 2, 5000))
        ns, rhs = (np.concatenate([getattr(w, f) for w in windows]) for f in ("n", "rhs"))
        for i in (0, 1, 977, len(ns) - 1):
            n = int(ns[i])
            value = rhs_value(tid, n)
            assert type(value) is float
            assert value == rhs[i] == evaluate_theorem(table_small, tid, n).rhs
        for bad in (1, math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(DomainError):
                rhs_value(tid, bad)

    @pytest.mark.parametrize("tid", list(bounds.BOUNDS))
    def test_rhs_near_the_top_of_the_float_range(self, tid):
        # products such as 793 * n overflow from about 1e307: a DomainError,
        # never a nan, an inf or a RuntimeWarning
        assert math.isfinite(rhs_value(tid, 1e300))
        try:
            value = rhs_value(tid, sys.float_info.max)
        except DomainError:
            return
        assert math.isfinite(value)

    def test_rhs_overflow_is_a_domain_error(self):
        # nan, -inf and an overflowed TB2 before; T1 and T2 at n = 2 stay -inf
        for tid, n in (("T4", 1.7e308), ("T5", sys.float_info.max), ("TB2", 1e307)):
            with pytest.raises(DomainError):
                rhs_value(tid, n)
        assert rhs_value("T1", 2) == rhs_value("T2", 2) == -math.inf


class TestOneSourceOfConstants:
    """Every right-hand side reads bounds.default_constants(): a table
    patched in there moves every report, and a mutation check can change a
    constant the same way."""

    def test_lowered_c4_reaches_every_report(self, capsys, monkeypatch, table_small):
        n = 1000
        original = default_constants()
        entries = dict(original.entries, c4=original.entries["c4"]._replace(
            value=original.c4 - 200))
        lowered = bounds.ConstantsTable(entries)
        monkeypatch.setattr(bounds, "default_constants", lambda: lowered)
        rhs = float(bounds._rhs_t1(np.array([n], dtype=np.float64), lowered)[0])
        assert rhs < upsilon_value(table_small, n) < float(
            bounds._rhs_t1(np.array([n], dtype=np.float64), original)[0])

        assert rhs_value("T1", n) == rhs
        assert evaluate_theorem(table_small, "T1", n).rhs == rhs
        (window,) = sweep(table_small, "T1", n, n)
        assert window.rhs.tolist() == [rhs]
        reports, summary = verify_range(table_small, "T1", n, n)
        assert reports[0].rhs == rhs and summary.violations == (n,)
        assert cli.main(["verify", "T1", "--from", str(n), "--to", str(n)]) == 1
        assert f" rhs={cli.fmt(rhs)} " in capsys.readouterr().out


class TestVacuousLowerBounds:
    """T4 and T5 are vacuous wherever the verifier can reach: their
    right-hand sides are negative until log n is about 142,730."""

    @pytest.mark.parametrize("tid", ["T4", "T5"])
    def test_rhs_negative_up_to_1e300(self, tid):
        for n in np.geomspace(3, 1e300, 60).tolist():
            assert rhs_value(tid, n) < 0, n

    def test_sign_change_near_10_to_61986(self, constants):
        # with L = log n: T4's rhs / n and T5's rhs / (kappa L), both
        # log L + c8 plus terms that vanish as L grows
        with mpmath.workdps(30):
            c8, c10 = mpmath.mpf(constants.c8), mpmath.mpf(constants.c10)

            def t4(L):
                u = mpmath.exp(-L)  # 1 / n
                return ((1 - u) * mpmath.log(L) + c8 * (1 - u) - 1 / L
                        - mpmath.mpf(16381) / (5000 * L**2) - 6 / L**3
                        - mpmath.mpf(54281) / (800 * L**4) - c10 * L * u)

            def t5(L):
                u = mpmath.exp(-L)
                return ((1 - u) * mpmath.log(L) + c8 * (1 - u)
                        - mpmath.mpf(16381) / (5000 * L**2) - 6 / L**3
                        - mpmath.mpf(54281) / (800 * L**4) - c10 * L * u)

            for n in (1e3, 1e300):  # the same functions as the registry's rhs
                L = mpmath.log(n)
                kappa_l = 5000 * L / (6381 + 5000 * L) * L
                assert float(t4(L) * n) == pytest.approx(rhs_value("T4", n), rel=1e-12)
                assert float(t5(L) * kappa_l) == pytest.approx(rhs_value("T5", n), rel=1e-12)
            for f, near in ((t4, 142_729.8), (t5, 142_728.8)):
                root = mpmath.findroot(f, 140_000)
                assert abs(root - near) < 0.1
                assert f(root - 1) < 0 < f(root + 1)
                assert int(root / mpmath.log(10)) == 61986
