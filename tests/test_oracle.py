import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.errors import InsufficientOrderError, NormalizationError
from hypergft.closedforms import LEMMAS
from hypergft.families import Family, FamilyParams
from hypergft.numcore import PrecisionPolicy
from hypergft.oracle import (
    IDENTITIES,
    GridSpec,
    IdentityPoint,
    coefficient_condition_check,
    disc_sample_check,
    identity_residual,
    worst_case_coefficients,
)
from hypergft.powerseries import PowerSeries

STAR1 = ClassSpec(ClassKind.STARLIKE, 1.0)
CONV1 = ClassSpec(ClassKind.CONVEX, 1.0)
UCV = ClassSpec(ClassKind.UCV)
SP = ClassSpec(ClassKind.SP)

SMALL_GRID = GridSpec(n_radii=24, n_angles=48)


def series(*coeffs):
    return PowerSeries(tuple(coeffs))


def random_small_series(rng, order=12, budget=0.8):
    """Coefficients small enough that the starlike coefficient test passes,
    with decaying weighted terms so the tail estimate stays bounded."""
    takes = sorted((rng.uniform(0, budget / order) for _ in range(order - 1)), reverse=True)
    coeffs = [1.0]
    for n, take in zip(range(2, order + 1), takes):
        coeffs.append(take / n * rng.choice((1, -1)))
    return PowerSeries(tuple(coeffs))


class TestClassSpec:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            ClassSpec(ClassKind.STARLIKE, 1.5)
        with pytest.raises(ValueError):
            ClassSpec(ClassKind.STARLIKE)
        with pytest.raises(ValueError):
            ClassSpec(ClassKind.UCV, 0.5)  # lambda-free class

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            SourceClass(SourceKind.RBETA, 1.2)
        with pytest.raises(ValueError):
            SourceClass(SourceKind.RBETA, -0.1)
        with pytest.raises(ValueError):
            SourceClass(SourceKind.FULL_S, 0.3)


class TestCoefficientCheck:
    def test_identity_map_passes(self):
        f = series(1.0)
        for spec in (STAR1, CONV1, UCV, SP):
            rep = coefficient_condition_check(f, spec)
            assert rep.passed and rep.worst_value == 0.0

    def test_starlike_boundary_case(self):
        lam = 0.6
        f = series(1.0, lam / (1 + lam))
        rep = coefficient_condition_check(f, ClassSpec(ClassKind.STARLIKE, lam))
        assert rep.passed
        assert abs(rep.worst_value - lam) < 1e-14

    def test_koebe_fails(self):
        koebe = series(*[float(n) for n in range(1, 51)])
        for spec in (STAR1, CONV1, UCV, SP):
            assert not coefficient_condition_check(koebe, spec).passed

    def test_insufficient_order(self):
        # Equal nonzero tail terms: ratio 1, sum still under threshold.
        f = series(1.0, 1e-9 / (2 + 0.0), 1e-9 / (3 + 0.0))
        # pick coefficients so the weighted terms match exactly
        w2, w3 = 2.0, 3.0  # starlike lam=1 weights n
        f = series(1.0, 1e-9 / w2, 1e-9 / w3)
        with pytest.raises(InsufficientOrderError):
            coefficient_condition_check(f, STAR1)

    def test_normalization_required(self):
        with pytest.raises(NormalizationError):
            coefficient_condition_check(series(2.0, 0.1), STAR1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_mass(self, seed):
        # Adding coefficient mass never flips failed -> passed.
        rng = random.Random(seed)
        coeffs = [1.0] + [rng.uniform(0, 0.2) for _ in range(6)]
        base = PowerSeries(tuple(coeffs))
        bumped = PowerSeries(tuple(coeffs[:3] + [coeffs[3] + 0.3] + coeffs[4:]))
        try:
            rep_base = coefficient_condition_check(base, STAR1)
            rep_bumped = coefficient_condition_check(bumped, STAR1)
        except InsufficientOrderError:
            return
        if not rep_base.passed:
            assert not rep_bumped.passed


class TestDiscSample:
    def test_identity_map_zero_margin(self):
        f = series(1.0)
        for spec in (STAR1, CONV1, UCV, SP):
            rep = disc_sample_check(f, spec, SMALL_GRID)
            assert rep.passed
            assert abs(rep.worst_value) < 1e-12

    def test_half_plane_map_fails_starlike(self):
        # z/(1-z) truncated: z f'/f - 1 = z/(1-z), which hits 9 at z = 0.9.
        f = series(*([1.0] * 200))
        rep = disc_sample_check(f, STAR1)
        assert not rep.passed
        assert rep.worst_value >= 9.0
        assert rep.truncation_warning

    def test_koebe_fails_ucv(self):
        koebe = series(*[float(n) for n in range(1, 201)])
        rep = disc_sample_check(koebe, UCV)
        assert not rep.passed
        assert rep.worst_value > 1.0
        assert rep.truncation_warning

    def test_small_perturbation_passes(self):
        lam = 0.7
        eps = lam / (1 + lam) * 0.999
        rep = disc_sample_check(series(1.0, eps), ClassSpec(ClassKind.STARLIKE, lam), SMALL_GRID)
        assert rep.passed

    def test_ucv_sp_duality(self):
        # f passes ucv sampling iff z f' passes sp sampling, with equal defect.
        rng = random.Random(7)
        for _ in range(25):
            f = random_small_series(rng)
            zfp = PowerSeries(
                tuple(c * (i + 1) for i, c in enumerate(f.coefficients))
            )
            rep_u = disc_sample_check(f, UCV, SMALL_GRID)
            rep_s = disc_sample_check(zfp, SP, SMALL_GRID)
            assert rep_u.passed == rep_s.passed
            assert abs(rep_u.worst_value - rep_s.worst_value) < 1e-9

    def test_coefficient_pass_implies_sample_pass(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_small_series(rng)
            if coefficient_condition_check(f, STAR1).passed:
                assert disc_sample_check(f, STAR1, SMALL_GRID).passed

    def test_deterministic_worst_location(self):
        f = series(*([1.0] * 60))
        r1 = disc_sample_check(f, STAR1)
        r2 = disc_sample_check(f, STAR1)
        assert r1 == r2


class TestWorstCase:
    def test_rbeta_values(self):
        f = worst_case_coefficients(SourceClass(SourceKind.RBETA, 0.0), 5)
        assert f.coefficient(2) == 1.0
        f = worst_case_coefficients(SourceClass(SourceKind.RBETA, 0.5), 5)
        assert f.coefficient(4) == 0.25

    def test_univalent_values(self):
        f = worst_case_coefficients(SourceClass(SourceKind.FULL_S), 6)
        assert f.coefficient(5) == 5.0
        assert f.coefficient(1) == 1.0

    def test_function_source_rejected(self):
        with pytest.raises(ValueError):
            worst_case_coefficients(SourceClass(SourceKind.FUNCTION), 5)


class TestIdentityResidual:
    def test_gauss_point(self):
        fp = FamilyParams(1.0, 1.0, 3.0, Family.SPLIT3)
        assert identity_residual("gauss", fp) < 1e-10

    def test_pochhammer_split(self):
        fp = FamilyParams(0.3 + 0.7j, 2.0, 5.0, Family.SPLIT4)
        assert identity_residual("pochhammer-split", fp, n=6) < 1e-11

    def test_lemma_part1_small_a(self):
        fp = FamilyParams(1e-8, 1.0, 4.0, Family.SPLIT3)
        assert identity_residual("lemma-sec2-part1", fp) < 1e-7

    def test_five_f4(self):
        fp = FamilyParams(0.5, 1.0, 4.0, Family.SPLIT4)
        assert identity_residual("5f4-at-1", fp) < 1e-8

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            identity_residual("nope", FamilyParams(1.0, 1.0, 3.0))


class TestIdentityRegistry:
    def test_lemma_entries_follow_their_section(self):
        for tag, lemma in LEMMAS.items():
            assert IDENTITIES[tag].family is lemma.section.family

    def test_samplers_are_seeded(self):
        for identity in IDENTITIES.values():
            one, two = random.Random(5), random.Random(5)
            assert [identity.sample(one) for _ in range(3)] == [identity.sample(two) for _ in range(3)]

    def test_residual_is_identity_residual_at_the_same_point(self):
        fp = FamilyParams(0.4, 1.5, 7.0, Family.SPLIT3)
        policy = PrecisionPolicy(rel_tol=1e-12, max_terms=400_000)
        residual = IDENTITIES["lemma-sec2-part2"].residual(IdentityPoint(0.4, 1.5, 7.0, 3), policy)
        assert residual == identity_residual("lemma-sec2-part2", fp)

    def test_malformed_lemma_tag_is_unknown(self):
        with pytest.raises(ValueError):
            identity_residual("lemma-sec2-part9", FamilyParams(1.0, 1.0, 3.0))
