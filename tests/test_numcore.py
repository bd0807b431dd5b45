import cmath
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergft.errors import ConstraintError, PoleError, ZeroError
from hypergft.numcore import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    gamma_ratio,
    gamma_ratio_with_error,
    is_nonpositive_integer,
    log_gamma,
    pochhammer,
    pochhammer_split_residual,
)


def rel_err(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


class TestPrecisionPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.rel_tol == 1e-12
        assert DEFAULT_POLICY.abs_tol == 1e-300
        assert DEFAULT_POLICY.max_terms == 100_000

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(rel_tol=0.0)
        with pytest.raises(ValueError):
            PrecisionPolicy(max_terms=0)

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", math.inf), ("rel_tol", math.nan), ("rel_tol", -1e-12),
        ("abs_tol", -1.0), ("abs_tol", math.nan), ("abs_tol", math.inf),
        ("max_terms", 70.5), ("max_terms", math.nan), ("max_terms", math.inf), ("max_terms", True),
    ])
    def test_rejects_non_finite_or_negative_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            PrecisionPolicy(**{field: value})

    def test_zero_abs_tol_is_allowed(self):
        assert PrecisionPolicy(abs_tol=0.0).abs_tol == 0.0


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi), checked against the reflection formula below too.
        assert rel_err(log_gamma(0.5), math.log(math.sqrt(math.pi))) < 1e-13

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13j):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_matches_stdlib_on_real_axis(self):
        for x in [0.1, 0.5, 1.0, 2.5, 10.0, 123.456, 1e4, 1e6]:
            assert abs(log_gamma(x) - math.lgamma(x)) < 1e-12 * max(1.0, abs(math.lgamma(x)))

    def test_negative_real_value(self):
        # Gamma(-0.5) = -2 sqrt(pi); the continuation carries -i pi on the
        # upper side of the cut.
        v = log_gamma(-0.5)
        assert rel_err(cmath.exp(v), -2.0 * math.sqrt(math.pi)) < 1e-12

    def test_conjugate_symmetry(self):
        rng = random.Random(42)
        for _ in range(100):
            z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 8))
            lo, hi = log_gamma(z.conjugate()), log_gamma(z)
            assert abs(lo - hi.conjugate()) <= 1e-12 * max(1.0, abs(hi))

    def test_reflection_oracle(self):
        # exp(logG(z) + logG(1-z)) must equal pi / sin(pi z); exponentiation
        # makes the check branch-insensitive.
        rng = random.Random(7)
        for _ in range(200):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if is_nonpositive_integer(z) or is_nonpositive_integer(1 - z):
                continue
            if abs(math.sin(math.pi * z.real)) < 1e-3 and abs(z.imag) < 1e-3:
                continue
            lhs = cmath.exp(log_gamma(z) + log_gamma(1 - z))
            rhs = cmath.pi / cmath.sin(cmath.pi * z)
            assert rel_err(lhs, rhs) < 1e-10

    def test_recurrence_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            z = complex(rng.uniform(0.1, 50), rng.uniform(-20, 20))
            lhs = cmath.exp(log_gamma(z + 1) - log_gamma(z))
            assert rel_err(lhs, z) < 1e-12


class TestGammaRatio:
    def test_simple_integer_ratio(self):
        assert rel_err(gamma_ratio([3.0], [2.0]), 2.0) < 1e-14

    def test_identity(self):
        for c in (0.7, 13.5, 2 + 3j):
            assert rel_err(gamma_ratio([c], [c]), 1.0) < 1e-14

    def test_half_integer(self):
        # Gamma(1.5) = sqrt(pi)/2, so Gamma(2)Gamma(1)/Gamma(1.5)^2 = 4/pi.
        got = gamma_ratio([2.0, 1.0], [1.5, 1.5])
        assert rel_err(got, 4.0 / math.pi) < 1e-13

    def test_overflow_safe(self):
        # Individual factors overflow a double, the ratio does not.
        got = gamma_ratio([1e4, 1e4], [1e4 - 2.5, 1e4 + 2.5])
        # Gamma(x)^2 / (Gamma(x-a)Gamma(x+a)) -> 1 as x grows, slowly from below.
        assert 0.9 < abs(got) < 1.1

    def test_beyond_float_range_is_a_constraint_error(self):
        # log of the ratio is about 724 > log(max float) = 709.8.
        with pytest.raises(ConstraintError, match=r"Gamma\(175\) Gamma\(174\) / \(Gamma\(0.5\) Gamma\(174.5\)\)"):
            gamma_ratio([175.0, 174.0], [0.5, 174.5])
        with pytest.raises(ConstraintError, match=r"Gamma\(400\+1j\)"):
            gamma_ratio([400 + 1j], [1.0])

    def test_error_bound_covers_large_arguments(self):
        # Near 600 each log-gamma value is off by about 1e-13, which exp turns
        # into a relative error of the ratio beyond GAMMA_EVAL_REL alone.
        mpmath = pytest.importorskip("mpmath")
        for c in (100.0, 150.0, 170.0):
            got, rel = gamma_ratio_with_error([c, c - 1.0], [0.5, c - 0.5])
            with mpmath.workdps(30):
                ref = mpmath.gamma(c) * mpmath.gamma(c - 1) / (mpmath.gamma(0.5) * mpmath.gamma(c - 0.5))
            assert got == gamma_ratio([c, c - 1.0], [0.5, c - 0.5])
            assert rel_err(got, float(ref)) <= rel, c

    def test_error_bound_covers_complex_arguments(self):
        # Off the real axis the Lanczos sum cancels: Gamma(0.52+13.81i) was off
        # by 1.02e-13 relative against a 7.7e-14 claim under the real allowance.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(14)
        for _ in range(4000):
            z = complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
            got, rel = gamma_ratio_with_error([z], [])
            with mpmath.workdps(30):
                ref = complex(mpmath.exp(mpmath.loggamma(mpmath.mpc(z.real, z.imag))))
            assert rel_err(got, ref) <= rel, z

    def test_error_bound_covers_arguments_near_the_poles(self):
        # The reflection's log-sine reduces z to w = z - round(Re z) exactly: from
        # e^(2 pi i z) of the unreduced z, the rounding of pi z grew by 1/dist(z, Z),
        # and the worst of these 992 points, half of them real, missed by 2e7 times
        # its bound.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(14)
        for k in range(31):
            for j in range(32):
                d = 10.0 ** rng.uniform(-9.0, -2.0)
                phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                z = complex(-k + (rng.choice((-d, d)) if j % 2 else d * phase))
                got, rel = gamma_ratio_with_error([z], [])
                with mpmath.workdps(40):
                    ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
                assert rel_err(got, ref) <= rel, z

    def test_numerator_pole(self):
        with pytest.raises(PoleError):
            gamma_ratio([-3.0], [1.0])

    def test_denominator_pole(self):
        with pytest.raises(ZeroError):
            gamma_ratio([1.0], [-2.0])

    def test_shift_oracle(self):
        # Gamma(z+1)/Gamma(z) = z for sampled z off the poles.
        rng = random.Random(5)
        for _ in range(100):
            z = complex(rng.uniform(0.05, 30), rng.uniform(-10, 10))
            assert rel_err(gamma_ratio([z + 1], [z]), z) < 1e-12


class TestPochhammer:
    def test_small_integers(self):
        assert pochhammer(3.0, 4) == pytest.approx(360.0, rel=1e-14)

    def test_zero_order(self):
        assert pochhammer(2.7 + 1.1j, 0) == 1.0

    def test_half(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-14)

    def test_zero_base(self):
        assert pochhammer(0.0, 3) == 0.0
        assert pochhammer(0.0, 0) == 1.0

    def test_interior_zero_long(self):
        assert pochhammer(-10.0, 100) == 0.0

    def test_negative_integer_no_interior_zero(self):
        # (-200)_{100} has no zero factor; all factors negative or ..., exact product.
        got = pochhammer(-200.0, 3)
        assert got == pytest.approx((-200.0) * (-199.0) * (-198.0), rel=1e-14)

    def test_long_products_match_mpmath(self):
        # n roundings of a complex product: within 4 n ulps of the 40-digit value,
        # or ConstraintError where that value leaves the float range.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(3)
        with mpmath.workdps(40):
            for _ in range(300):
                a = complex(rng.uniform(0.1, 10), rng.uniform(-5, 5))
                n = rng.randint(65, 170)
                exact = mpmath.rf(mpmath.mpc(a.real, a.imag), n)
                if abs(exact) > sys.float_info.max:
                    with pytest.raises(ConstraintError):
                        pochhammer(a, n)
                    continue
                err = abs(mpmath.mpc(pochhammer(a, n)) - exact) / abs(exact)
                assert err <= 4 * n * 2.0**-53, (a, n)

    def test_overflow_is_a_constraint_error(self):
        with pytest.raises(ConstraintError, match="overflows the float range"):
            pochhammer(0.5, 300)
        with pytest.raises(ConstraintError):
            pochhammer(100.0, 200)

    def test_interior_zero_ahead_of_overflow(self):
        # 300! alone leaves the float range; the zero factor at j = 300 wins.
        assert pochhammer(-300.0, 400) == 0.0

    @given(
        st.complex_numbers(min_magnitude=0.01, max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_addition_identity(self, a, m, n):
        # (a)_{m+n} = (a)_m (a+m)_n
        lhs = pochhammer(a, m + n)
        rhs = pochhammer(a, m) * pochhammer(a + m, n)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1.0)


class TestSplitResidual:
    def test_exact_small_cases(self):
        # (1)_3 = 6 = 27 * (1/3)(2/3)(1) and (2)_2 = 6 = 4 * 1 * 1.5
        assert pochhammer_split_residual(1.0, 3, 1) < 1e-14
        assert pochhammer_split_residual(2.0, 2, 1) < 1e-14

    def test_complex_case(self):
        assert pochhammer_split_residual(0.3 + 0.7j, 4, 6) < 1e-11

    def test_overflow_raises(self):
        # (1e7)_48 and the right side both exceed the float range.
        with pytest.raises(ConstraintError):
            pochhammer_split_residual(1e7, 3, 16)

    def test_seeded_sweep(self):
        rng = random.Random(1234)
        worst = 0.0
        for _ in range(1000):
            a = cmath.rect(rng.uniform(0.05, 10.0), rng.uniform(-math.pi, math.pi))
            k = rng.randint(1, 5)
            n = rng.randint(0, 30)
            worst = max(worst, pochhammer_split_residual(a, k, n))
        assert worst <= 1e-10

