import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergft.errors import ConstraintError, DivergentError, NoConvergenceError, PoleError
from hypergft.families import Family, FamilyParams
from hypergft.numcore import PrecisionPolicy, pochhammer
from hypergft.series import (
    ConvergenceClass,
    EvalResult,
    PFQParams,
    _series_sum,
    chunked_rows,
    convergence_class,
    pfq_eval,
    two_f1_neg1,
    weighted_pochhammer_sum,
)


def rel_err(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


class TestConvergenceClass:
    def test_inside_disc(self):
        p = PFQParams((1.0, 1.0), (2.0,))
        assert convergence_class(p, 0.5) is ConvergenceClass.ABSOLUTELY_CONVERGENT

    def test_gauss_boundary_absolute(self):
        p = PFQParams((1.0, 1.0), (3.0,))
        assert convergence_class(p, 1.0) is ConvergenceClass.ABSOLUTELY_CONVERGENT

    def test_p_exceeds_q_plus_one(self):
        p = PFQParams((1.0, 1.0, 1.0), (2.0,))
        assert convergence_class(p, 0.1) is ConvergenceClass.DIVERGENT

    def test_terminating_always_converges(self):
        p = PFQParams((-3.0, 1.0, 1.0), (2.0,))
        assert convergence_class(p, 5.0) is ConvergenceClass.ABSOLUTELY_CONVERGENT

    def test_conditional_band(self):
        # s = c - a - b = -0.5 in (-1, 0]: conditional off z=1, divergent at z=1.
        p = PFQParams((1.0, 1.0), (1.5,))
        assert convergence_class(p, -1.0) is ConvergenceClass.CONDITIONALLY_CONVERGENT
        assert convergence_class(p, 1.0) is ConvergenceClass.DIVERGENT

    def test_divergent_band_on_circle(self):
        p = PFQParams((2.0, 2.0), (1.5,))
        assert convergence_class(p, -1.0) is ConvergenceClass.DIVERGENT

    def test_p_le_q_everywhere(self):
        p = PFQParams((1.5,), (2.0, 3.0))
        assert convergence_class(p, 100.0) is ConvergenceClass.ABSOLUTELY_CONVERGENT

    def test_outside_disc(self):
        p = PFQParams((1.0, 1.0), (3.0,))
        assert convergence_class(p, 1.0 + 1e-6) is ConvergenceClass.DIVERGENT


class TestPFQParams:
    @pytest.mark.parametrize("upper, lower, field", [
        ((1.0, 1.0), (math.nan,), "lower"),
        ((math.inf, 1.0), (2.0,), "upper"),
        ((1.0, complex(0.5, math.nan)), (2.0,), "upper"),
    ])
    def test_rejects_non_finite_parameters(self, upper, lower, field):
        with pytest.raises(ValueError, match=field):
            PFQParams(upper, lower)


class TestPFQEval:
    def test_zero_upper_parameter(self):
        res = pfq_eval(PFQParams((1.7, 0.0), (2.2,)), 0.5)
        assert res.value == 1.0 and res.tail_bound == 0.0

    def test_at_zero_is_exactly_one(self):
        res = pfq_eval(PFQParams((0.3, 4.5), (1.2,)), 0.0)
        assert res.value == 1.0 and res.tail_bound == 0.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        res = pfq_eval(PFQParams((1.0, 1.0), (2.0,)), 0.5)
        oracle = -math.log(0.5) / 0.5
        assert res.converged
        assert rel_err(res.value, oracle) < 1e-12

    def test_binomial_closed_form(self):
        # 1F0(a;;z) = (1-z)^(-a)
        res = pfq_eval(PFQParams((2.0,), ()), 0.25)
        assert rel_err(res.value, 16.0 / 9.0) < 1e-12

    def test_gauss_point_at_one(self):
        # 2F1(1,1;3;1): terms telescope, sum_{n} 2/((n+1)(n+2)) = 2.
        res = pfq_eval(PFQParams((1.0, 1.0), (3.0,)), 1.0)
        assert abs(res.value - 2.0) <= res.tail_bound  # honest certified tail
        relaxed = pfq_eval(PFQParams((1.0, 1.0), (3.0,)), 1.0, PrecisionPolicy(rel_tol=1e-4))
        assert relaxed.converged
        assert abs(relaxed.value - 2.0) <= relaxed.tail_bound

    def test_p_le_q_on_the_unit_circle(self):
        # The geometric envelope covers p <= q on |z| = 1 as well.
        res = pfq_eval(PFQParams((1.0,), (2.0,)), 1.0)
        assert res.converged and rel_err(res.value, math.e - 1.0) < 1e-14

    def test_complex_p_le_q_on_the_unit_circle(self, weighted_reference):
        params, z = PFQParams((0.5 + 1.0j,), (2.0 - 0.5j,)), cmath.exp(2.1j)
        res = pfq_eval(params, z)
        ref = weighted_reference(params.upper, params.lower, z, 0)
        assert res.converged and abs(res.value - ref) <= res.tail_bound + 1e-15 * abs(ref)

    def test_just_inside_the_unit_circle_is_summed_there(self):
        # Within 1e-14 of the circle but inside it, z itself is summed: moving it
        # to z/|z| = 1 shifts this 2F1 by 3e-12 of its value, 19 times its bound.
        mpmath = pytest.importorskip("mpmath")
        z = 1.0 - 9e-15
        res = pfq_eval(PFQParams((50.0, 50.0), (108.5,)), z)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(50, 50, 108.5, mpmath.mpf(z)))
        assert res.converged and abs(res.value - ref) <= res.tail_bound

    def test_divergent_raises(self):
        with pytest.raises(DivergentError):
            pfq_eval(PFQParams((1.0, 1.0, 1.0), (2.0,)), 0.1)
        with pytest.raises(DivergentError):
            pfq_eval(PFQParams((1.0, 1.0), (3.0,)), 2.0)

    def test_conditional_rejected(self):
        with pytest.raises(NoConvergenceError):
            pfq_eval(PFQParams((1.0, 1.0), (1.5,)), -1.0)

    def test_lower_pole_rejected_at_construction(self):
        with pytest.raises(PoleError):
            PFQParams((1.0,), (-2.0,))

    def test_terms_match_pochhammer_quotients(self):
        # The one-step ratio recurrence reproduces each direct
        # Pochhammer-quotient term for the first 30 terms.
        rng = random.Random(99)
        for _ in range(20):
            upper = (rng.uniform(0.1, 3), rng.uniform(0.1, 3))
            lower = (rng.uniform(0.5, 4),)
            z = rng.uniform(-0.6, 0.6)
            t = 1.0
            for n in range(30):
                direct = (z ** n) / math.factorial(n)
                for u in upper:
                    direct *= pochhammer(u, n)
                for l in lower:
                    direct /= pochhammer(l, n)
                assert abs(t - direct) <= 1e-13 * max(1.0, abs(direct))
                ratio = z / ((n + 1))
                for u in upper:
                    ratio *= u + n
                for l in lower:
                    ratio /= l + n
                t *= ratio

    def test_tail_bound_is_honest(self):
        # Compare a loose-policy value against a tight-policy reference.
        params = PFQParams((0.7, 2.3), (1.9,))
        loose = pfq_eval(params, 0.9, PrecisionPolicy(rel_tol=1e-6))
        tight = pfq_eval(params, 0.9, PrecisionPolicy(rel_tol=1e-14))
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-15

    def test_contiguous_derivative_check(self):
        # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), finite differences at z=0.3.
        a, b, c = 0.7, 1.4, 2.6
        h = 1e-6
        up = pfq_eval(PFQParams((a, b), (c,)), 0.3 + h).value
        dn = pfq_eval(PFQParams((a, b), (c,)), 0.3 - h).value
        fd = (up - dn) / (2 * h)
        rhs = (a * b / c) * pfq_eval(PFQParams((a + 1, b + 1), (c + 1,)), 0.3).value
        assert abs(fd - rhs) < 1e-5 * max(1.0, abs(rhs))

    def test_raabe_path_against_gauss(self):
        # z = 1 evaluations agree with the gamma closed form within their
        # certified tails.
        rng = random.Random(17)
        for _ in range(25):
            a = rng.uniform(0.05, 2.0)
            b = rng.uniform(0.05, 2.0)
            c = a + b + rng.uniform(1.0, 4.0)
            res = pfq_eval(PFQParams((a, b), (c,)), 1.0)
            oracle = math.exp(
                math.lgamma(c) + math.lgamma(c - a - b) - math.lgamma(c - a) - math.lgamma(c - b)
            )
            assert abs(res.value - oracle) <= res.tail_bound + 1e-11 * abs(oracle)


class TestTwoF1Neg1:
    def test_zero_a(self):
        assert two_f1_neg1(0.0, 2.3, 4.5).value == 1.0

    def test_upper_equals_lower(self):
        # 2F1(1,b;b;-1) = (1-z)^{-1} at z=-1 = 1/2.
        res = two_f1_neg1(1.0, 2.7, 2.7)
        assert rel_err(res.value, 0.5) < 1e-13

    def test_log_two(self):
        res = two_f1_neg1(1.0, 1.0, 2.0)
        assert rel_err(res.value, math.log(2.0)) < 1e-12

    def test_terminating_polynomial_exact(self):
        # 2F1(-3, b; c; -1) summed directly.
        b, c = 1.7, 4.1
        res = two_f1_neg1(-3.0, b, c)
        direct = 0.0
        for j in range(4):
            direct += (
                pochhammer(-3.0, j) * pochhammer(b, j) / pochhammer(c, j) / math.factorial(j)
            ) * (-1.0) ** j
        assert res.tail_bound == 0.0
        assert rel_err(res.value, direct) < 1e-14

    def test_near_integer_a_is_summed_in_full(self):
        # a within POLE_TOL of -3 is not -3: the half-argument route sums it in full.
        # Summed as a polynomial at -1, this missed by 5.8e-10 with a bound of 0.
        mpmath = pytest.importorskip("mpmath")
        a, b, c = -3 + 1e-13, 40.0, 1.5
        res = two_f1_neg1(a, b, c)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(mpmath.mpf(a), b, c, -1))
        assert res.converged and res.terms_used > 4
        assert abs(res.value - ref) <= res.tail_bound + 1e-14 * abs(ref)

    def test_large_parameters_fast(self):
        # The half-argument route stays quick when b, c are large.
        res = two_f1_neg1(0.4, 2001.0, 2003.5)
        assert res.converged and res.terms_used < 5000

    def test_pole_in_c(self):
        with pytest.raises(PoleError):
            two_f1_neg1(0.5, 1.0, -1.0)

    @pytest.mark.parametrize("a, b, c", [(120.3, 5.5, 6.0), (200.1, 0.5, 1.5)])
    def test_half_argument_scale_is_exact(self, a, b, c):
        # 2^(-a) to 2 ulps; exp(-a ln 2) is off by about |a| ulps, which no bound counts.
        mpmath = pytest.importorskip("mpmath")
        half = _series_sum((a, c - b), (c,), 0.5, PrecisionPolicy())
        ratio = two_f1_neg1(a, b, c).value / half.value
        with mpmath.workdps(30):
            ref = float(mpmath.power(2, -mpmath.mpf(a)))
        assert ratio.imag == 0.0 and abs(ratio.real - ref) <= 2 * math.ulp(ref)


class TestEngineExits:
    """The three ways the chunked summation engine stops, on the pFq caller."""

    SHORT = PrecisionPolicy(max_terms=64)

    def test_budget_exhausted_keeps_certified_bound(self):
        params = PFQParams((1.5, 2.0), (3.0,))
        res = pfq_eval(params, 0.99, self.SHORT)
        ref = pfq_eval(params, 0.99)
        assert not res.converged and res.terms_used == 64
        assert math.isfinite(res.tail_bound)
        assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound

    def test_no_certificate_raises(self):
        # The Raabe rule certifies nothing before the index passes every
        # parameter, and the 64-term budget ends before it passes -100.5.
        with pytest.raises(NoConvergenceError):
            pfq_eval(PFQParams((-100.5, 1.0), (3.0,)), 1.0, self.SHORT)

    def test_terminating_is_exact(self):
        # 2F1(-3, 2; 5; 7/10) summed in exact rationals.
        z = Fraction(7, 10)
        exact = sum(
            Fraction(math.prod(range(-3, -3 + j)) * math.prod(range(2, 2 + j)))
            / (math.prod(range(5, 5 + j)) * math.factorial(j)) * z ** j
            for j in range(4)
        )
        res = pfq_eval(PFQParams((-3.0, 2.0), (5.0,)), 0.7)
        assert res.converged and res.tail_bound == 0.0 and res.terms_used == 4
        assert rel_err(res.value, float(exact)) < 1e-15

    def test_near_integer_upper_is_summed_in_full(self):
        # An upper parameter within POLE_TOL of -3 is not -3: only an exact nonpositive
        # integer ends the sum.  Cut after its fourth term, this sum missed by 0.44.
        mpmath = pytest.importorskip("mpmath")
        a = -3 + 5e-13
        res = pfq_eval(PFQParams((a,), (1.0,)), 40.0)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp1f1(mpmath.mpf(a), 1, 40))
        assert res.converged and res.terms_used > 4
        assert abs(res.value - ref) <= res.tail_bound + 1e-14 * abs(ref)

    def test_near_integer_upper_does_not_end_a_divergent_series(self):
        # 3F0 with an upper parameter near -2 diverges: it is not a polynomial.
        params = PFQParams((-2 + 1e-13, 1.0, 1.0), ())
        assert convergence_class(params, 0.5) is ConvergenceClass.DIVERGENT
        with pytest.raises(DivergentError):
            pfq_eval(params, 0.5)

    def test_terminal_index_past_the_budget_is_closed_by_the_tail(self):
        # 1F0(-200000;; 1e-7) ends at index 200000, past the 100000-term budget:
        # the geometric tail certifies it after one chunk.
        mpmath = pytest.importorskip("mpmath")
        res = pfq_eval(PFQParams((-200000.0, 1.0), (1.0,)), 1e-7)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(-200000, 1, 1, mpmath.mpf(1e-7)))
        assert res.converged and res.terms_used == 64 and res.tail_bound > 0.0
        assert abs(res.value - ref) <= res.tail_bound + 1e-15 * abs(ref)

    def test_terminal_index_at_the_budget_edge(self):
        # Terms 0..20 fit a 21-term budget: summed exactly.  A 20-term budget
        # cannot reach index 20, so the tail closes the sum.
        params = PFQParams((-20.0, 1.0), (1.0,))
        exact = pfq_eval(params, 0.1, PrecisionPolicy(max_terms=21))
        assert exact.tail_bound == 0.0 and exact.terms_used == 21 and exact.converged
        assert rel_err(exact.value, 0.9**20) < 1e-14
        cut = pfq_eval(params, 0.1, PrecisionPolicy(max_terms=20))
        assert 0.0 < cut.tail_bound and cut.terms_used == 20 and cut.converged
        assert abs(cut.value - 0.9**20) <= cut.tail_bound + 1e-15

    def test_terminal_index_past_the_budget_above_q_plus_1_raises(self):
        # 3F0 terms past index n grow like n: no envelope certifies their tail.
        with pytest.raises(NoConvergenceError):
            pfq_eval(PFQParams((-50.0, 1.0, 1.0), ()), 1e-3, PrecisionPolicy(max_terms=20))

    def test_rows_with_a_terminal_index_past_the_budget(self):
        # Row 0 (terms 0.5^n up to index 3) ends exactly; row 1 ends at index
        # 10^6, past the budget, so its geometric tail closes it.
        r, terminal = np.array([0.5, 0.5]), np.array([3.0, 1e6])

        def chunk_terms(ns, live):
            return r[live, None] ** ns * (ns <= terminal[live, None]), 0.0

        def certify_tail(n, terms, totals, live):
            return totals, r[live] ** n / (1.0 - r[live])

        value, bound, used, converged = chunked_rows(
            chunk_terms, certify_tail, PrecisionPolicy(max_terms=1000), 2, terminal)
        assert value[0] == 1.875 and bound[0] == 0.0 and used[0] == 4
        assert converged.all() and 0.0 < bound[1] <= 1e-12 * 2.0
        assert abs(value[1] - 2.0) <= bound[1] + 1e-15

    def test_plain_python_numbers(self):
        for res in (
            pfq_eval(PFQParams((1.5, 2.0), (3.0,)), 0.5),
            pfq_eval(PFQParams((1.0, 1.0), (3.0,)), 1.0),
            pfq_eval(PFQParams((-3.0, 2.0), (5.0,)), 0.7),
            two_f1_neg1(0.5, 1.0, 2.5),
        ):
            assert type(res.value) is complex and type(res.tail_bound) is float
            assert type(res.converged) is bool


class TestRaabeEngineExits:
    """Budget exits of the Raabe rule on |z| = 1, cut at every few terms."""

    @pytest.mark.parametrize("d", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("a, b, c, z", [
        (0.7, 1.2, 7.4, 1.0),
        (0.3 + 0.4j, 0.7 - 0.2j, 6.5 - 0.3j, 1.0),
        (0.7, 1.2, 7.4, cmath.exp(0.7j)),
        # sigma_lo without Q(n) misses the tail up to 500-fold here
        (5.3, 7.1, 16.9, 1.0),
        # |u+m| taken as m + Re u misses it by 9% here
        (0.5 + 3.0j, 1.0 - 2.0j, 8.0 + 1.0j, 1.0),
    ], ids=["real", "complex", "circle", "large", "imaginary"])
    def test_every_budget_exit_is_within_its_bound(self, a, b, c, z, d, weighted_reference):
        ref = weighted_reference((a, b), (c,), z, d)
        exits = 0
        for max_terms in range(2, 2000, 3):
            try:
                res = _series_sum((a, b), (c,), z, PrecisionPolicy(max_terms=max_terms), d)
            except NoConvergenceError:  # no certificate before n passes the parameters
                continue
            if res.converged:
                break
            exits += 1
            assert abs(res.value - ref) <= res.tail_bound, (max_terms, res, ref)
        assert exits >= 30


def fp3(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT3)


def fp4(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT4)


class TestWeightedPochhammerSum:
    def test_tiny_a_collapses_to_one(self):
        res = weighted_pochhammer_sum(fp3(1e-9, 1.0, 4.0), "one")
        assert abs(res.value - 1.0) < 1e-7

    def test_weight_ordering(self):
        rng = random.Random(5)
        for _ in range(10):
            a = rng.uniform(0.05, 1.0)
            b = rng.uniform(0.1, 2.0)
            c = a + b + rng.uniform(3.2, 6.0)
            fam = fp3(a, b, c) if rng.random() < 0.5 else fp4(a, b, c)
            vals = {
                w: weighted_pochhammer_sum(fam, w).value.real
                for w in ("inv", "one", "linear", "square")
            }
            assert vals["square"] >= vals["linear"] >= vals["one"] >= vals["inv"]

    def test_constraint_errors(self):
        with pytest.raises(ConstraintError):
            weighted_pochhammer_sum(fp3(1.0, 2.0, 3.5), "linear")  # needs c > a+b+1
        with pytest.raises(ConstraintError):
            weighted_pochhammer_sum(fp4(1.0, 1.0, 4.5), "cube")  # needs c > a+b+3
        with pytest.raises(ConstraintError):
            weighted_pochhammer_sum(fp3(2.0, 1.0, 3.5), "inv")  # needs c > a+2

    def test_inv_weight_value(self):
        # sum_n T_n/(n+1) computed independently in log space.
        fam = fp3(0.5, 1.0, 6.0)
        res = weighted_pochhammer_sum(fam, "inv")
        direct = 0.0
        for n in range(4000):
            lg = -math.lgamma(n + 2)  # 1/(1)_n and the extra 1/(n+1)
            for u in fam.upper_params():
                lg += math.lgamma(u.real + n) - math.lgamma(u.real)
            for l in fam.lower_params():
                lg -= math.lgamma(l.real + n) - math.lgamma(l.real)
            direct += math.exp(lg)
        assert abs(res.value - direct) < 1e-8 * abs(direct) + res.tail_bound


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.6, max_value=4.0),
    st.floats(min_value=-0.85, max_value=0.85),
)
@settings(max_examples=60, deadline=None)
def test_pfq_tail_bound_property(a, b, c, z):
    """Certified tails really do bound the defect against a tighter evaluation."""
    params = PFQParams((a, b), (c,))
    res = pfq_eval(params, z, PrecisionPolicy(rel_tol=1e-8))
    ref = pfq_eval(params, z, PrecisionPolicy(rel_tol=1e-14))
    assert isinstance(res, EvalResult)
    assert abs(res.value - ref.value) <= res.tail_bound + 1e-12 * abs(ref.value)
