import math
import random

import numpy as np
import pytest

from hypergft.certifier import (
    Certificate,
    Verdict,
    certify_function_class,
    certify_operator_mapping,
    hadamard_convolve,
    hypergeometric_coefficients,
)
from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.errors import HypothesisError, NormalizationError
from hypergft.families import Family, FamilyParams
from hypergft.numcore import pochhammer
from hypergft.oracle import (
    GridSpec,
    _weights,
    coefficient_condition_check,
    disc_sample_check,
    worst_case_coefficients,
)

STAR1 = ClassSpec(ClassKind.STARLIKE, 1.0)
CONV1 = ClassSpec(ClassKind.CONVEX, 1.0)
UCV = ClassSpec(ClassKind.UCV)
SP = ClassSpec(ClassKind.SP)
RBETA0 = SourceClass(SourceKind.RBETA, 0.0)
FULLS = SourceClass(SourceKind.FULL_S)


def fp3(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT3)


def fp4(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT4)


class TestHypergeometricCoefficients:
    def test_first_coefficient_is_one(self):
        f = hypergeometric_coefficients(fp3(0.5, 1.0, 4.0), 10)
        assert f[0] == 1.0

    def test_flat_family(self):
        # a = 1 and b = c make every ratio cancel: A_n = 1 for all n.
        f = hypergeometric_coefficients(fp3(1.0, 2.0, 2.0), 12)
        for n in range(1, 13):
            assert abs(f[n - 1] - 1.0) < 1e-13

    def test_matches_pochhammer_formula(self):
        fp = fp3(0.5, 1.0, 4.0)
        f = hypergeometric_coefficients(fp, 6)
        for n in range(2, 7):
            direct = 1.0
            for u in fp.upper_params():
                direct *= pochhammer(u, n - 1)
            for l in fp.lower_params():
                direct /= pochhammer(l, n - 1)
            direct /= math.factorial(n - 1)
            assert abs(f[n - 1] - direct) <= 1e-13 * max(1.0, abs(direct))


class TestHadamard:
    def test_identity_element(self):
        f = np.array((1.0, 0.5, 0.25))
        ones = np.array((1.0, 1.0, 1.0))
        assert np.array_equal(hadamard_convolve(f, ones), f)

    def test_componentwise(self):
        out = hadamard_convolve(np.array((1.0, 1.0)), np.array((1.0, 3.0)))
        assert np.array_equal(out, np.array((1.0, 3.0)))

    def test_truncates_to_shorter(self):
        out = hadamard_convolve(np.array((1.0, 2.0, 3.0)), np.array((1.0, 5.0)))
        assert len(out) == 2

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            hadamard_convolve(np.array((2.0, 1.0)), np.array((1.0, 1.0)))


class TestFunctionClassCertificates:
    def test_wide_region_certifies(self):
        cert = certify_function_class(fp3(0.1, 0.1, 20.0), STAR1)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.margin > 0
        # soundness: the certified function's coefficients obey the class test
        f = hypergeometric_coefficients(fp3(0.1, 0.1, 20.0), 500)
        assert coefficient_condition_check(f, STAR1).passed

    def test_hypothesis_boundary(self):
        with pytest.raises(HypothesisError):
            certify_function_class(fp3(0.5, 0.5, 2.0), STAR1)  # c == |a|+|b|+1

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            ClassSpec(ClassKind.STARLIKE, 1.5)

    def test_all_kinds_run(self):
        fp = fp4(0.1, 0.2, 18.0)
        for spec in (STAR1, CONV1, UCV, SP):
            cert = certify_function_class(fp, spec)
            assert cert.verdict is Verdict.CERTIFIED

    def test_complex_parameters_use_moduli(self):
        cert_complex = certify_function_class(fp3(0.1j, -0.1, 20.0), STAR1)
        cert_real = certify_function_class(fp3(0.1, 0.1, 20.0), STAR1)
        assert cert_complex.lhs == pytest.approx(cert_real.lhs, rel=1e-12)

    def test_not_certified_region_exists(self):
        # Just above the hypothesis boundary the inequality genuinely fails.
        cert = certify_function_class(fp3(2.0, 3.0, 6.2), STAR1)
        assert cert.verdict is Verdict.NOT_CERTIFIED


class TestNonFiniteParameters:
    @pytest.mark.parametrize("a, b, c, field", [
        (0.5, math.nan, 5.0, "b"),
        (complex(math.inf, 0.0), 0.5, 5.0, "a"),
        (0.5, 0.5, math.inf, "c"),
        (0.5, 0.5, math.nan, "c"),
    ])
    def test_family_params_reject_them(self, a, b, c, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            fp3(a, b, c)


class TestComplexC:
    @pytest.mark.parametrize("c", [6.0 + 1.0j, np.complex128(6.0 + 1.0j)])
    def test_family_params_reject_a_complex_c(self, c):
        # the coefficient recurrence reads the lower ladder (c+j)/k as real
        with pytest.raises(ValueError, match="^c must be real"):
            fp3(0.5, 0.5, c)


class TestOperatorMappingCertificates:
    def test_rbeta_starlike_certifies(self):
        cert = certify_operator_mapping(fp3(0.1, 0.1, 25.0), RBETA0, STAR1)
        assert cert.verdict is Verdict.CERTIFIED

    def test_rbeta_excluded_modulus(self):
        with pytest.raises(HypothesisError):
            certify_operator_mapping(fp3(0.5, 2.0, 25.0), RBETA0, STAR1)  # |b| = 2

    def test_fulls_convex_certifies(self):
        cert = certify_operator_mapping(fp4(0.1, 0.1, 30.0), FULLS, CONV1)
        assert cert.verdict is Verdict.CERTIFIED

    def test_fulls_ucv_has_no_theorem(self):
        with pytest.raises(ValueError):
            certify_operator_mapping(fp3(0.1, 0.1, 30.0), FULLS, UCV)

    @pytest.mark.parametrize("maker", [fp3, fp4], ids=["split3", "split4"])
    @pytest.mark.parametrize("spec", [STAR1, CONV1, UCV, SP], ids=lambda s: s.kind.value)
    def test_function_source_is_the_function_certificate(self, maker, spec):
        # z/(1-z) is the Hadamard identity: the operator's image is the function.
        fp = maker(0.3, 0.7, 14.0)
        cert = certify_operator_mapping(fp, SourceClass(SourceKind.FUNCTION), spec)
        assert cert == certify_function_class(fp, spec)
        assert cert.theorem_tag == f"split{fp.order}.function.{spec.kind.value}"

    def test_corollary_relaxes_region_for_lambda_one(self):
        # Quartic family at lambda = 1: region only needs c > |a| + |b|.
        fp = fp4(1.0, 0.5, 4.0)  # |a| = 1 would violate the general hypothesis
        cert = certify_operator_mapping(fp, RBETA0, STAR1)
        assert cert.theorem_tag.endswith("lambda1")
        # The cubic family keeps the stricter hypothesis at lambda = 1.
        with pytest.raises(HypothesisError):
            certify_operator_mapping(fp3(1.0, 0.5, 4.0), RBETA0, STAR1)

    def test_rbeta_sp_with_affine_term(self):
        cert = certify_operator_mapping(fp3(0.2, 5.0, 30.0), RBETA0, SP)
        assert cert.verdict is Verdict.CERTIFIED

    @pytest.mark.parametrize(
        "fp",
        [fp3(1.5, 3.2, 4.2), fp4(1.5, 5.2, 6.2)],
        ids=["split3", "split4"],
    )
    @pytest.mark.parametrize(
        "spec", [SP, ClassSpec(ClassKind.STARLIKE, 0.5)], ids=["sp", "starlike"]
    )
    def test_rbeta_part4_below_a_plus_b_is_not_certified(self, fp, spec):
        # The part-4 region admits |a| + |b| - 1 < c <= |a| + |b|, where
        # sum T_n diverges: the criterion fails without any block evaluated.
        cert = certify_operator_mapping(fp, SourceClass(SourceKind.RBETA, 0.5), spec)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert cert.lhs == math.inf
        assert cert.margin == -math.inf

    def test_beta_raises_rhs(self):
        lo = certify_operator_mapping(fp3(0.1, 0.1, 25.0), SourceClass(SourceKind.RBETA, 0.0), CONV1)
        hi = certify_operator_mapping(fp3(0.1, 0.1, 25.0), SourceClass(SourceKind.RBETA, 0.8), CONV1)
        assert hi.rhs > lo.rhs
        assert hi.margin > lo.margin


class TestCoefficientOracleAgreement:
    """Every certificate's lhs is the weighted coefficient sum itself: the
    coefficient oracle's sum from n = 2, over the source's 2(1 - beta) for
    R(beta), plus the n = 1 term theta."""

    N = 500
    CRITERIA = (
        [(SourceKind.FUNCTION, kind) for kind in ClassKind]
        + [(SourceKind.RBETA, kind) for kind in ClassKind]
        + [(SourceKind.FULL_S, kind) for kind in ClassKind if kind is not ClassKind.UCV]
    )

    @staticmethod
    def _points(family, count):
        """c >= |a| + |b| + 9 clears every criterion's floor (D + s <= 3) by 6;
        a != 1 and b off 1..k keep the part-4 criteria defined."""
        rng = random.Random(f"oracle-lhs/{family.name}")
        k = family.order
        out = []
        while len(out) < count:
            a, b = rng.uniform(0.2, 2.0), rng.uniform(0.3, 4.5)
            if abs(a - 1) < 0.1 or min(abs(b - m) for m in range(1, k + 1)) < 0.1:
                continue
            c = a + b + 9 + rng.uniform(0.0, 4.0)
            out.append((a, b, c, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.9)))
        return out

    @pytest.mark.parametrize("family", [Family.SPLIT3, Family.SPLIT4])
    def test_lhs_is_the_coefficient_sum(self, family):
        N = self.N
        for a, b, c, lam, beta in self._points(family, 2):
            fp = FamilyParams(a, b, c, family)
            for source_kind, kind in self.CRITERIA:
                spec = ClassSpec(kind, lam if kind in (ClassKind.STARLIKE, ClassKind.CONVEX) else None)
                source = SourceClass(source_kind, beta if source_kind is SourceKind.RBETA else None)
                cert = certify_operator_mapping(fp, source, spec)
                target = hadamard_convolve(
                    hypergeometric_coefficients(fp, N), worst_case_coefficients(source, N)
                )
                scale = source.scale
                report = coefficient_condition_check(target, spec)
                expected = report.worst_value / scale + spec.threshold
                # The oracle stops at n = N and extrapolates the rest.  Its
                # terms t_n = w(n)|A_n| decay like n^-p with p >= 7 here, so
                # both the dropped tail (about t_N N / (p - 1)) and the
                # extrapolation (about t_N N / p) lie in [0, N t_N].
                last = float(_weights(spec, np.array([float(N)]))[0]) * abs(target[-1])
                tol = (
                    N * last / scale
                    + cert.lhs_tail_bound
                    + N * np.finfo(float).eps * abs(expected)
                )
                assert abs(cert.lhs - expected) <= tol, (
                    cert.theorem_tag, (a, b, c, lam, beta), cert.lhs, expected, tol
                )


class TestSoundness:
    GRID = GridSpec(n_radii=24, n_angles=64)

    def test_certified_operator_images_pass_oracles(self):
        rng = random.Random(404)
        cases = [
            (fp3, RBETA0, STAR1),
            (fp3, RBETA0, UCV),
            (fp4, RBETA0, CONV1),
            (fp4, FULLS, SP),
            (fp3, FULLS, STAR1),
        ]
        for maker, source, spec in cases:
            for _ in range(5):
                a = rng.uniform(0.05, 0.4)
                b = rng.uniform(0.1, 0.8)
                c = rng.uniform(14.0, 30.0)
                fam = maker(a, b, c)
                cert = certify_operator_mapping(fam, source, spec)
                if cert.verdict is not Verdict.CERTIFIED:
                    continue
                image = hadamard_convolve(
                    hypergeometric_coefficients(fam, 200),
                    worst_case_coefficients(source, 200),
                )
                assert coefficient_condition_check(image, spec).passed
                assert disc_sample_check(image, spec, self.GRID).passed

    def test_monotone_in_c(self):
        vals = []
        for c in [4.0, 6.0, 9.0, 14.0, 22.0, 35.0]:
            cert = certify_function_class(fp3(0.5, 0.5, c), STAR1)
            vals.append(cert.lhs)
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_certificates_are_deterministic(self):
        a = certify_function_class(fp4(0.3, 0.7, 12.0), CONV1)
        b = certify_function_class(fp4(0.3, 0.7, 12.0), CONV1)
        assert a == b


class TestVerdictLogic:
    def test_inconclusive_band(self):
        # Build straddling values directly through the dataclass contract.
        from hypergft.certifier import _decide

        assert _decide(1.0, 2.0, 0.5) is Verdict.CERTIFIED
        assert _decide(2.4, 2.0, 0.1) is Verdict.NOT_CERTIFIED
        assert _decide(2.05, 2.0, 0.2) is Verdict.INCONCLUSIVE

    def test_lhs_below_its_first_term_is_inconclusive(self, monkeypatch):
        # every term of the left side is >= 0 and its first is theta = lambda: an
        # evaluation whose lhs + bound falls below theta is wrong, never certified
        import hypergft.certifier as certifier
        from hypergft.series import EvalResult

        wrong = EvalResult(-2.44 + 0.0j, 0.109, 1, True)
        monkeypatch.setattr(certifier, "block_combination", lambda *args: wrong)
        spec = ClassSpec(ClassKind.STARLIKE, 0.005)
        cert = certify_operator_mapping(fp4(0.5, 2.0000003, 8.527), RBETA0, spec)
        assert cert.lhs == -2.44 and cert.verdict is Verdict.INCONCLUSIVE
