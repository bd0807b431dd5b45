import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergft import closedforms, series
from hypergft.errors import ConstraintError, DivergentError, NoConvergenceError, PoleError
from hypergft.families import Family, FamilyParams, weighted_sum_region
from hypergft.numcore import DEFAULT_POLICY, PrecisionPolicy, pochhammer
from hypergft.series import (
    ConvergenceClass,
    EvalResult,
    PFQParams,
    _series_sum,
    chunked_rows,
    chunked_sum,
    convergence_class,
    pfq_eval,
    term_ratios,
    two_f1_neg1,
    weighted_pochhammer_sum,
)


def _weighted_sum(upper, lower, z, policy, d):
    """``_series_sum`` of sum_n (n+1)^d prod(upper)_n / prod(lower)_n / n! z^n: as
    (2)_n/(1)_n = n + 1, the weight is d more parameter pairs (2; 1), or one (1; 2)
    for d = -1, appended as ``weighted_pochhammer_sum`` appends them."""
    upper = tuple(upper) + (2.0,) * d + (1.0,) * -d
    lower = tuple(lower) + (1.0,) * d + (2.0,) * -d
    return _series_sum(upper, lower, z, policy)


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

    @pytest.mark.parametrize("z", [0.5, -2.0, 2 + 1j])
    def test_zero_f_zero_is_exp(self, z):
        # no parameters at all: the geometric envelope pairs only the 1 of n!
        res = pfq_eval(PFQParams((), ()), z)
        assert res.converged
        assert abs(res.value - cmath.exp(z)) <= res.tail_bound + 4 * U * math.exp(abs(z))

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

    @pytest.mark.filterwarnings("error")
    def test_terminal_index_past_the_budget_above_q_plus_1_raises_at_entry(self):
        # Summed to the budget, these 3F0 terms overflow with RuntimeWarnings
        # before the missing tail certificate raises.
        with pytest.raises(NoConvergenceError, match="grow past the budget"):
            pfq_eval(PFQParams((-200000.0, 1.0, 1.0), ()), 1e-7)

    @pytest.mark.filterwarnings("error")
    def test_raabe_index_that_cannot_pass_a_parameter_raises_at_entry(self):
        # 2F1(-200000, 1; 3; 1) ends at index 200000, past the budget, and its Raabe
        # tail needs n - 200000 > 0.  Summed to the budget, its terms overflowed with
        # RuntimeWarnings before the missing certificate raised.
        with pytest.raises(NoConvergenceError, match="cannot pass the parameter -200000"):
            pfq_eval(PFQParams((-200000.0, 1.0), (3.0,)), 1.0)
        # a budget whose last index passes the parameter is summed
        res = pfq_eval(PFQParams((-100.5, 1.0), (3.0,)), 1.0, PrecisionPolicy(max_terms=101))
        assert res.terms_used == 101
        with pytest.raises(NoConvergenceError, match="cannot pass"):
            pfq_eval(PFQParams((-100.5, 1.0), (3.0,)), 1.0, PrecisionPolicy(max_terms=100))

    def test_rows_with_a_terminal_index_past_the_budget(self):
        # Row 0 (terms 0.5^n up to index 3) ends exactly; row 1 ends at index
        # 10^6, past the budget, so its geometric tail closes it.
        r, terminal = np.array([0.5, 0.5]), np.array([3.0, 1e6])

        def chunk_terms(ns, live):
            return r[live, None] ** ns * (ns <= terminal[live, None]), 0.0

        def certify_tail(n, terms, live):
            return r[live] ** n / (1.0 - r[live])

        value, bound, used, converged = chunked_rows(
            chunk_terms, certify_tail, PrecisionPolicy(max_terms=1000), 2, terminal)
        assert value[0] == 1.875 and bound[0] == 0.0 and used[0] == 4
        assert converged.all() and 0.0 < bound[1] <= 1e-12 * 2.0
        assert abs(value[1] - 2.0) <= bound[1] + 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("upper, lower, z, nan", [
        ((1.0,), (1.0,), 710.0, False),  # e^710 overflows float64
        ((0.5,), (1.5,), -800.0, True),  # terms past 1e308 of both signs
        ((-200.0,), (), 1e10, True),  # the terminal path: (1 - 1e10)^200
    ], ids=["inf", "nan", "terminal-nan"])
    def test_overflowed_total_is_not_converged(self, upper, lower, z, nan):
        # once |total| is inf or nan, no bound holds: the sum ends there
        res = pfq_eval(PFQParams(upper, lower), z)
        assert not res.converged and res.tail_bound == math.inf
        assert res.terms_used < DEFAULT_POLICY.max_terms
        assert cmath.isnan(res.value) if nan else math.isinf(res.value.real)

    def test_rows_without_a_terminal_index_are_rows_whose_index_is_inf(self):
        rng = np.random.default_rng(29)
        r = rng.uniform(-0.95, 0.95, 16)

        def chunk_terms(ns, live):
            return r[live, None] ** ns, 1e-20 * np.abs(r[live])

        def certify_tail(n, terms, live):
            return np.abs(r[live]) ** n / (1.0 - np.abs(r[live]))

        plain = chunked_rows(chunk_terms, certify_tail, PrecisionPolicy(), 16)
        ends = chunked_rows(chunk_terms, certify_tail, PrecisionPolicy(), 16, np.full(16, np.inf))
        assert plain[2].min() < plain[2].max()  # the rows stop one by one
        for x, y in zip(plain, ends):
            assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_a_single_series_index_past_the_budget_is_no_index(self):
        # with no terminal index, with inf, and with one past the budget, the
        # geometric tail closes the sum, bit for bit the same
        r = np.random.default_rng(31).uniform(-0.95, 0.95)
        policy = PrecisionPolicy(max_terms=1000)

        def chunk_terms(ns):
            return r**ns

        def certify_tail(n, total):
            more = lambda ratio: math.log(ratio) / -math.log(abs(r)) + 1.0
            return complex(total), abs(r) ** n / (1.0 - abs(r)), more

        runs = [chunked_sum(chunk_terms, certify_tail, policy, *t) for t in ((), (math.inf,), (10**6,))]
        assert runs[0].converged and runs[0].terms_used < 1000
        assert abs(runs[0].value - 1.0 / (1.0 - r)) <= runs[0].tail_bound + 1e-15
        assert repr(runs[1]) == repr(runs[0]) and repr(runs[2]) == repr(runs[0])

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
    """Budget exits of the Raabe rule on |z| = 1, cut at every budget."""

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
        for max_terms in range(2, 2000):
            try:
                res = _weighted_sum((a, b), (c,), z, PrecisionPolicy(max_terms=max_terms), d)
            except NoConvergenceError:  # no certificate before n passes the parameters
                continue
            if res.converged:
                break
            exits += 1
            assert abs(res.value - ref) <= res.tail_bound, (max_terms, res, ref)
        # the fourth-order bracket closes the real sums at d = -1 and 0 within 20 terms
        short = (a, b, c, z) == (0.7, 1.2, 7.4, 1.0) and d <= 0
        assert exits >= (12 if short else 30)


def _gauss(mpmath, a, b, c):
    """2F1(a, b; c; 1) by Gauss's theorem."""
    return mpmath.gamma(c) * mpmath.gamma(c - a - b) / (mpmath.gamma(c - a) * mpmath.gamma(c - b))


def _gauss_weighted(mpmath, a, b, c, d):
    """sum_n (n+1)^d (a)_n (b)_n / ((c)_n n!) by Gauss's theorem, as in ``weighted_reference``."""
    if d == -1:
        return (c - 1) / ((a - 1) * (b - 1)) * (_gauss(mpmath, a - 1, b - 1, c - 1) - 1)
    falling = {0: (1,), 1: (1, 1), 2: (1, 3, 1), 3: (1, 7, 6, 1)}[d]
    return mpmath.fsum(
        e * mpmath.rf(a, j) * mpmath.rf(b, j) / mpmath.rf(c, j) * _gauss(mpmath, a + j, b + j, c + j)
        for j, e in enumerate(falling)
    )


def _shpot(mpmath, a, b, c):
    """3F2(a, b, c; b+1, c+1; 1) = bc/(c-b) Gamma(1-a) (Gamma(b)/Gamma(1+b-a) - Gamma(c)/Gamma(1+c-a)),
    from (a)_n/n! times the partial fractions of bc/((b+n)(c+n))."""
    g = mpmath.gamma
    return b * c / (c - b) * g(1 - a) * (g(b) / g(1 + b - a) - g(c) / g(1 + c - a))


def _ladder_integral(mpmath, a, b, c, k):
    """sum_n (a)_n (b)_{kn} / ((c)_{kn} n!), the ladder pFq at z = 1, as
    int_0^1 t^(b-1) (1-t)^(s-1) (1 + t + ... + t^(k-1))^(-a) dt / B(b, c-b), s = c - a - b
    (from (b)_{kn}/(c)_{kn} = B(b+kn, c-b)/B(b, c-b) and sum_n (a)_n x^n/n! = (1-x)^(-a)).
    Split at 1/2, with t = w^(1/b) on the left and 1 - t = v^(1/s) on the right, so that
    neither endpoint power is singular: mpmath.hyper does not converge at small s."""
    s = c - a - b
    rung = lambda t: mpmath.fsum(t**j for j in range(k)) ** -a
    half = mpmath.mpf(0.5)
    left = mpmath.quad(lambda w: (1 - w ** (1 / b)) ** (s - 1) * rung(w ** (1 / b)), [0, half**b]) / b
    right = mpmath.quad(lambda v: (1 - v ** (1 / s)) ** (b - 1) * rung(1 - v ** (1 / s)), [0, half**s]) / s
    return (left + right) / mpmath.beta(b, c - b)


def _real_draws(rng, count, d=0, excess=(0.75, 5.0)):
    """(a, b, c) with c - a - b - max(d, 0) in excess, a possibly negative, c > 0.2."""
    out = []
    while len(out) < count:
        a, b = rng.uniform(-2.5, 3.0), rng.uniform(0.05, 3.0)
        c = a + b + max(d, 0) + rng.uniform(*excess)
        if c > 0.2:
            out.append((a, b, c))
    return out


class TestTelescopedTail:
    """Real series at z = 1 close on the fourth-order telescoped bracket, whose
    width falls like t_N/N^3: value +- bound must cover a 30-digit reference."""

    @staticmethod
    def covers(res, ref):
        assert res.converged, res
        assert abs(res.value.imag) == 0.0
        assert abs(res.value.real - ref) <= res.tail_bound, (res, float(ref))

    def test_gauss(self):
        mpmath = pytest.importorskip("mpmath")
        draws = _real_draws(random.Random(24), 30)
        assert any(a < 0 for a, _, _ in draws)
        with mpmath.workdps(30):
            for a, b, c in draws:
                res = pfq_eval(PFQParams((a, b), (c,)), 1.0)
                self.covers(res, _gauss(mpmath, *map(mpmath.mpf, (a, b, c))))

    @pytest.mark.parametrize("d", [-1, 0, 1, 2, 3])
    def test_weighted_gauss(self, d):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for a, b, c in _real_draws(random.Random(100 + d), 8, d=d):
                res = _weighted_sum((a, b), (c,), 1.0, PrecisionPolicy(), d)
                self.covers(res, _gauss_weighted(mpmath, *map(mpmath.mpf, (a, b, c)), d))

    def test_shpot(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(7)
        # b and c on a 2^-40 grid, so b + 1.0 and c + 1.0 are exact
        grid = lambda x: round(x * 2.0**40) / 2.0**40
        with mpmath.workdps(30):
            for _ in range(20):
                a, b = rng.uniform(-1.5, 0.95), grid(rng.uniform(0.1, 4.0))
                c = grid(max(b + rng.choice((-1, 1)) * rng.uniform(0.05, 2.0), 0.07))
                res = pfq_eval(PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0)
                self.covers(res, _shpot(mpmath, *map(mpmath.mpf, (a, b, c))))

    @pytest.mark.parametrize("family, draws", [(Family.SPLIT3, 4), (Family.SPLIT4, 3)])
    def test_ladder(self, family, draws):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(3 + draws)
        k = 3 if family is Family.SPLIT3 else 4
        with mpmath.workdps(30):
            for _ in range(draws):
                a = rng.uniform(0.05, 1.5 if k == 3 else 0.45)
                b = rng.uniform(0.1, 4.0 if k == 3 else 3.0)
                fp = FamilyParams(a, b, a + b + rng.uniform(0.75 if k == 3 else 1.25, 5.0), family)
                up, lo = fp.upper_params(), fp.lower_params()
                res = pfq_eval(PFQParams(up, lo), 1.0)
                ref = mpmath.hyper([u.real for u in up], [l.real for l in lo], 1)
                self.covers(res, ref)

    @pytest.mark.parametrize("weight", ["inv", "linear"])
    def test_weighted_ladder(self, weight, weighted_reference):
        # inv in the part-4 region c > max(a + k - 1, a + b - 1), linear in c > a + b + 1
        fp = fp3(1.7, 4.1, 6.9) if weight == "inv" else fp3(0.3, 1.2, 4.4)
        res = weighted_pochhammer_sum(fp, weight)
        d = {"inv": -1, "linear": 1}[weight]
        ref = weighted_reference(fp.upper_params(), fp.lower_params(), 1.0, d)
        assert res.converged
        assert abs(res.value - ref) <= res.tail_bound, (res, ref)

    SMALL = (0.1, 0.75)  # c - a - b - max(d, 0), below the range of _real_draws
    # A regression guard, not a target: a small excess leaves a large n_(D-1) in n(m), and
    # these draws take up to 5,594 terms (d = 3), past the 1,024 a fourth-order bracket was
    # sized for at the larger excess of _real_draws.
    SMALL_TERMS = 8192

    @pytest.mark.parametrize("d", [-1, 0, 1, 2, 3])
    def test_small_excess_weighted_gauss(self, d):
        # the second-order bracket ran most of these out of the 100,000-term budget
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for a, b, c in _real_draws(random.Random(200 + d), 6, d=d, excess=self.SMALL):
                res = _weighted_sum((a, b), (c,), 1.0, PrecisionPolicy(), d)
                self.covers(res, _gauss_weighted(mpmath, *map(mpmath.mpf, (a, b, c)), d))
                assert res.terms_used < self.SMALL_TERMS, (a, b, c, res)

    def test_small_excess_shpot(self):
        # excess (b+1) + (c+1) - (a+b+c) = 2 - a in SMALL
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(27)
        grid = lambda x: round(x * 2.0**40) / 2.0**40  # b + 1.0 and c + 1.0 exact
        with mpmath.workdps(30):
            for _ in range(8):
                a, b = 2.0 - rng.uniform(*self.SMALL), grid(rng.uniform(0.1, 4.0))
                c = grid(max(b + rng.choice((-1, 1)) * rng.uniform(0.05, 2.0), 0.07))
                res = pfq_eval(PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0)
                self.covers(res, _shpot(mpmath, *map(mpmath.mpf, (a, b, c))))
                assert res.terms_used < self.SMALL_TERMS, (a, b, c, res)

    def test_small_excess_ladder(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(31)
        with mpmath.workdps(30):
            for _ in range(6):
                a, b = rng.uniform(0.05, 1.5), rng.uniform(0.1, 4.0)
                fp = FamilyParams(a, b, a + b + rng.uniform(*self.SMALL), Family.SPLIT3)
                res = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0)
                self.covers(res, _ladder_integral(mpmath, *map(mpmath.mpf, (a, b, fp.c)), 3))
                assert res.terms_used < self.SMALL_TERMS, (a, b, fp.c, res)

    def test_small_excess_cube_weight(self):
        # excess 0.86 with a < 0: 100,000 terms, converged=False and bound 1.24e-12
        # under the second-order bracket
        mpmath = pytest.importorskip("mpmath")
        a, b, c = -1.3788394819984173, 2.8347701105384044, 5.314535439158883
        res = _weighted_sum((a, b), (c,), 1.0, PrecisionPolicy(), 3)
        assert res.terms_used <= 4096
        with mpmath.workdps(30):
            self.covers(res, _gauss_weighted(mpmath, *map(mpmath.mpf, (a, b, c)), 3))

    @pytest.mark.parametrize("a, b, c, d", [
        (-0.07858719486327459, 0.8701547489929575, 2.9032865307586984, 2),  # excess 0.112
        (-2.367092116947486, 2.0726010967168382, 1.0718491496149096, 1),  # value -0.00257
    ])
    def test_budget_exit_at_the_bracket_floor(self, a, b, c, d):
        # the bracket's rounding floor keeps these open to the budget, where a width of
        # 1.9e-13 (4.1e-15) sat below the head sum's rounding, 5.3e-13 (7.0e-14): the
        # first-order pair is returned there instead
        mpmath = pytest.importorskip("mpmath")
        res = _weighted_sum((a, b), (c,), 1.0, PrecisionPolicy(), d)
        with mpmath.workdps(30):
            ref = _gauss_weighted(mpmath, *map(mpmath.mpf, (a, b, c)), d)
        assert abs(res.value.real - ref) <= res.tail_bound, (res, float(ref))

    @pytest.mark.parametrize("a, b, c", [
        (2.553659, 2.599753, 6.27737),
        (2.730352, 2.779518, 6.548411),
    ])
    def test_slowest_gauss_sums_of_series_eval(self, a, b, c):
        # the two slowest seed-1 series-eval inputs: 32,172 and 48,547 terms under the
        # second-order bracket
        mpmath = pytest.importorskip("mpmath")
        res = pfq_eval(PFQParams((a, b), (c,)), 1.0)
        assert res.terms_used <= 512
        with mpmath.workdps(30):
            self.covers(res, _gauss(mpmath, *map(mpmath.mpf, (a, b, c))))

    @pytest.mark.parametrize("upper, lower", [
        # ladder-4f3-at-1 at (a, b, c) = (1.021953, 1.434531, 3.757656)
        ((1.021953, 0.478177, 0.8115103333333333, 1.1448436666666668),
         (1.252552, 1.5858853333333332, 1.9192186666666665)),
        ((1.953672, 0.386484), (3.588073,)),  # gauss-at-1
        ((0.471641, 3.526719, 3.937031), (4.526719, 4.937031)),  # shpot-at-1
    ], ids=["ladder-4f3", "gauss", "shpot"])
    def test_sums_that_ran_out_of_budget_now_close(self, upper, lower):
        # Each stopped at 100,000 terms with converged=False under the
        # first-order bracket, short of rel_tol = 1e-12.
        mpmath = pytest.importorskip("mpmath")
        res = pfq_eval(PFQParams(upper, lower), 1.0)
        assert res.converged and res.terms_used < 10_000
        with mpmath.workdps(40):
            if len(upper) == 3:  # b + 1.0 and c + 1.0 are exact here
                assert lower == (upper[1] + 1.0, upper[2] + 1.0)
                ref = _shpot(mpmath, *map(mpmath.mpf, upper))
            else:
                ref = mpmath.hyper(upper, lower, 1)
        assert abs(res.value.real - ref) <= res.tail_bound


U = 2.0**-53


def _moduli_sum(upper, lower, z, d, n):
    """sum_{m<n} |t_m| of sum (m+1)^d prod(upper)_m / prod(lower)_m / m! z^m: the scale
    of the rounding of its first n terms, which no bound counts yet (ROADMAP item 1)."""
    ms = np.arange(n - 1)
    ratios = np.abs(term_ratios(upper, lower, z, ms)) * ((ms + 2.0) / (ms + 1.0)) ** d
    return 1.0 + np.cumprod(ratios).sum()


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The sizes of the chunks of every ``chunked_sum`` call, one list per call."""
    calls = []

    def spy(chunk_terms, *args, **kwargs):
        sizes = []
        calls.append(sizes)

        def recorded(ns):
            sizes.append(len(ns))
            return chunk_terms(ns)

        return chunked_sum(recorded, *args, **kwargs)

    monkeypatch.setattr(series, "chunked_sum", spy)
    return calls


class TestSizedChunks:
    """After the first 64 terms each chunk has as many terms as the failing tail
    certificate predicts, at most 4096, instead of the next step of the ramp
    64, 256, 1024, 4096."""

    @pytest.mark.parametrize("upper, lower, z", [
        ((1.5, 2.0), (3.0,), 0.9),
        ((2.5,), (1.5,), -20.0),
    ], ids=["2f1", "1f1"])
    def test_geometric_sum_finishes_in_its_second_chunk(self, upper, lower, z, chunk_sizes):
        res = pfq_eval(PFQParams(upper, lower), z)
        assert res.converged
        [sizes] = chunk_sizes
        assert sizes[0] == 64 and len(sizes) == 2 and sizes[1] < 256, sizes

    def test_shpot_stops_short_of_the_ramp(self, chunk_sizes):
        # the ramp ran 64 + 256 + 1024 + 4096 = 5440 terms here
        a, b, c = 0.47, 2.1, 3.4
        res = pfq_eval(PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0)
        assert res.converged and res.terms_used < 5440
        assert len(chunk_sizes[0]) == 2
        closed = closedforms.shpot_srivastava_3f2(a, b, c)
        assert abs(res.value - closed.value) <= res.tail_bound + closed.tail_bound

    def test_chunks_are_capped(self, chunk_sizes):
        # excess 2.4 with complex parameters: the first-order bound asks for far more
        res = pfq_eval(PFQParams((0.5 + 0.3j, 1.2), (4.1,)), 1.0, PrecisionPolicy(max_terms=20_000))
        assert not res.converged and res.terms_used == 20_000
        assert chunk_sizes == [[64] + [4096] * 4 + [3552]]

    PATHS = ["geometric-real", "geometric-negative", "geometric-complex", "geometric-weighted",
             "raabe-complex", "raabe-circle"] + [f"telescoped-d{d}" for d in range(-1, 4)]

    @staticmethod
    def _draws(path, rng):
        """(upper, lower, z, d) draws of one certifier path."""
        u = rng.uniform
        cx = lambda lo, hi: cmath.rect(u(lo, hi), u(-math.pi, math.pi))
        for _ in range(12):
            if path == "geometric-real":
                yield (u(0.1, 3.0), u(0.1, 3.0)), (u(0.5, 5.0),), u(0.5, 0.97), 0
            elif path == "geometric-negative":
                yield (u(0.1, 2.0), u(0.1, 2.0)), (u(1.0, 5.0),), u(-0.95, -0.3), 0
            elif path == "geometric-complex":
                c = complex(u(0.5, 5.0), u(-2.0, 2.0))
                yield (cx(0.2, 3.0), cx(0.2, 3.0)), (c,), cx(0.5, 0.95), 0
            elif path == "geometric-weighted":  # the weight's ratios are in the envelope too
                yield (u(0.1, 2.0), u(0.1, 2.0)), (u(1.0, 5.0),), u(0.5, 0.95), rng.randint(-1, 3)
            elif path == "raabe-complex":  # excess 5-8: the first-order bound closes these
                a, b = complex(u(0.1, 2.0), u(-1.0, 1.0)), u(0.1, 2.0)
                yield (a, b), (a + b + complex(u(5.0, 8.0), u(-1.0, 1.0)),), 1.0, 0
            elif path == "raabe-circle":
                a, b = u(0.1, 2.0), u(0.1, 2.0)
                yield (a, b), (a + b + u(5.0, 8.0),), cmath.exp(1j * u(0.3, math.pi)), 0
            else:
                d = int(path[len("telescoped-d"):])
                [(a, b, c)] = _real_draws(rng, 1, d=d)
                yield (a, b), (c,), 1.0, d

    @pytest.mark.parametrize("path", PATHS)
    def test_each_certifier_path_covers_the_reference(self, path, weighted_reference):
        for upper, lower, z, d in self._draws(path, random.Random(f"sized/{path}")):
            res = _weighted_sum(upper, lower, z, PrecisionPolicy(), d)
            ref = weighted_reference(upper, lower, z, d)
            # converged or not: a d = 3 draw runs out of budget, its bound still honest
            size = _moduli_sum(upper, lower, z, d, res.terms_used)
            assert abs(res.value - ref) <= res.tail_bound + 64 * U * size, (upper, lower, z, d, res)


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

    @pytest.mark.parametrize("weight", ["inv", "one", "linear", "square", "cube"])
    def test_weight_is_parameter_pairs(self, weight):
        # bit for bit the pFq of the appended pairs (2; 1), or (1; 2) for inv, at z = 1
        d = series._WEIGHT_POWERS[weight]
        rng = random.Random(f"pairs/{weight}")
        for family in (Family.SPLIT3, Family.SPLIT4):
            for _ in range(4):
                a, b = rng.uniform(0.05, 0.9), rng.uniform(0.1, 3.0)
                c = a + b + max(d, family.value - 1) + rng.uniform(0.2, 4.0)
                fp = FamilyParams(a, b, c, family)
                assert weighted_sum_region(a, b, c, fp.order, d) is None
                upper = fp.upper_params() + (2.0,) * d + (1.0,) * -d
                lower = fp.lower_params() + (1.0,) * d + (2.0,) * -d
                assert weighted_pochhammer_sum(fp, weight) == pfq_eval(PFQParams(upper, lower), 1.0)

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
