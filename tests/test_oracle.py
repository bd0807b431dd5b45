import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergft import closedforms, oracle
from hypergft.certifier import (
    Verdict,
    certify_operator_mapping,
    hadamard_convolve,
    hypergeometric_coefficients,
)
from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.errors import (
    DivisionNearZeroError,
    InsufficientOrderError,
    NoConvergenceError,
    NormalizationError,
)
from hypergft.closedforms import LEMMAS
from hypergft.families import Family, FamilyParams
from hypergft.numcore import DEFAULT_POLICY, PrecisionPolicy
from hypergft.oracle import (
    DEFAULT_GRID,
    IDENTITIES,
    GridSpec,
    IdentityPoint,
    coefficient_condition_check,
    disc_sample_check,
    identity_residual,
    worst_case_coefficients,
)
from hypergft.series import PFQParams, pfq_eval, weighted_pochhammer_sum

STAR1 = ClassSpec(ClassKind.STARLIKE, 1.0)
CONV1 = ClassSpec(ClassKind.CONVEX, 1.0)
UCV = ClassSpec(ClassKind.UCV)
SP = ClassSpec(ClassKind.SP)

SMALL_GRID = GridSpec(n_radii=24, n_angles=48)


def series(*coeffs):
    return np.array(coeffs)


def random_small_series(rng, order=12, budget=0.8):
    """Coefficients small enough that the starlike coefficient test passes,
    with decaying weighted terms so the tail estimate stays bounded."""
    takes = sorted((rng.uniform(0, budget / order) for _ in range(order - 1)), reverse=True)
    coeffs = [1.0]
    for n, take in zip(range(2, order + 1), takes):
        coeffs.append(take / n * rng.choice((1, -1)))
    return np.array(coeffs)


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


class TestGridSpec:
    @pytest.mark.parametrize("fields", [
        {"n_radii": 0}, {"n_angles": 0}, {"n_angles": -4}, {"n_radii": 2.5}, {"n_angles": True},
        {"r_max": 0.0}, {"r_max": 1.0}, {"r_max": 1.5}, {"r_max": float("nan")},
        {"disclaimer_tol": -1e-8}, {"disclaimer_tol": float("inf")}, {"disclaimer_tol": float("nan")},
    ], ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()))
    def test_rejects_a_malformed_grid(self, fields):
        with pytest.raises(ValueError):
            GridSpec(**fields)

    def test_smallest_grid_samples_one_point(self):
        rep = disc_sample_check(series(1.0, 0.1), STAR1, GridSpec(n_radii=1, n_angles=1))
        assert (rep.budget, rep.skipped) == (1, 0)
        assert rep.worst_location == 0.999

    def test_grid_arrays_are_built_once_and_read_only(self):
        arrays = oracle._grid_arrays(GridSpec())
        assert arrays is oracle._grid_arrays(DEFAULT_GRID)
        assert not any(x.flags.writeable for x in arrays)


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

    def test_one_positive_term_has_no_tail(self):
        # a_4 is the only nonzero coefficient past a_1: no ratio to extrapolate
        rep = coefficient_condition_check(np.array([1.0, 0.0, 0.0, 0.01]), STAR1)
        assert rep.passed and rep.worst_value == pytest.approx(0.04)

    def test_normalization_required(self):
        with pytest.raises(NormalizationError):
            coefficient_condition_check(series(2.0, 0.1), STAR1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_mass(self, seed):
        # Adding coefficient mass never flips failed -> passed.
        rng = random.Random(seed)
        coeffs = [1.0] + [rng.uniform(0, 0.2) for _ in range(6)]
        base = np.array(coeffs)
        bumped = np.array(coeffs[:3] + [coeffs[3] + 0.3] + coeffs[4:])
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

    @staticmethod
    def _check_lift_duality(lifted, plain):
        # f passes lifted-class sampling iff z f' passes the plain class, with equal defect.
        rng = random.Random(7)
        for _ in range(25):
            f = random_small_series(rng)
            zfp = np.array(
                tuple(c * (i + 1) for i, c in enumerate(f))
            )
            rep_u = disc_sample_check(f, lifted, SMALL_GRID)
            rep_s = disc_sample_check(zfp, plain, SMALL_GRID)
            assert rep_u.passed == rep_s.passed
            assert abs(rep_u.worst_value - rep_s.worst_value) < 1e-9

    def test_ucv_sp_duality(self):
        self._check_lift_duality(UCV, SP)

    def test_convex_starlike_duality(self):
        self._check_lift_duality(CONV1, STAR1)

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

    def test_real_coefficients_report_the_upper_half_plane(self):
        # The defect is equal at z and conj(z) up to rounding, which alone
        # would pick 0.8024-0.5951i here.
        report = disc_sample_check(series(1.0, -0.3, -0.2, 0.1), STAR1)
        assert abs(report.worst_location - (0.8024043239491644 + 0.5951036051879408j)) < 1e-12

    def test_complex_coefficients_keep_the_lower_half_plane(self):
        # No conjugate symmetry: the worst point -0.999i is not reflected.
        report = disc_sample_check(series(1.0, -0.15j, 0.05), STAR1)
        assert abs(report.worst_location - (-0.999j)) < 1e-12


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Reference sum_k coeffs[k] z^k: one array update per coefficient."""
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _horner_on_grid(polys, grid):
    """What the oracle's grid evaluation computes, by Horner at the grid points."""
    z = grid.radii()[:, None] * np.exp(1j * grid.angles()[None, :])
    return np.stack([_horner(p, z) for p in polys])


def _full_grid_horner_report(f, spec, grid=DEFAULT_GRID):
    """The disc report by Horner at all n_angles angles of every radius.

    Real coefficients make the defect symmetric under z -> conj(z): each
    angle then takes the larger defect of itself and its mirror image, so
    the first worst point in row-major order has Im z >= 0.
    """
    a = np.asarray(f)
    mags = np.abs(a)
    n_eff = int(np.nonzero(mags > 1e-18 * max(1.0, mags.max()))[0][-1]) + 1
    ns = np.arange(1, n_eff + 1, dtype=float)
    g = a[:n_eff] * ns if spec.lifted else a[:n_eff]
    g_over_z, g_prime = _horner_on_grid(np.stack((g, g * ns)).astype(complex), grid)
    valid = np.abs(g_over_z) > DEFAULT_POLICY.abs_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        u = g_prime / g_over_z - 1.0
    defect = np.where(valid, np.abs(u) - u.real if spec.parabolic else np.abs(u), -np.inf)
    if not a.imag.any():
        k = np.arange(grid.n_angles)
        defect = np.maximum(defect, defect[:, -k % grid.n_angles])
    flat = int(np.argmax(defect))
    z = grid.radii()[:, None] * np.exp(1j * grid.angles()[None, :])
    worst = float(defect.flat[flat])
    return oracle.OracleReport(
        oracle.CheckKind.DISC_SAMPLE, worst <= spec.threshold, worst, complex(z.flat[flat]),
        valid.size, skipped=int((~valid).sum()),
        truncation_warning=bool(grid.r_max * (len(a) + 1) * abs(a[-1]) > grid.disclaimer_tol),
    )


def _seeded_coefficients(seed, N):
    """a_1 = 1, then moduli n^s rho^n (s in [-2, 1], rho in [0.97, 1]) with
    random phases, or real signs on even seeds."""
    rng = np.random.default_rng(seed)
    ns = np.arange(1, N + 1, dtype=float)
    mods = ns ** rng.uniform(-2.0, 1.0) * rng.uniform(0.97, 1.0) ** ns
    if seed % 2:
        phases = np.exp(2j * np.pi * rng.random(N))
    else:
        phases = rng.choice((-1.0, 1.0), N).astype(complex)
    coeffs = mods * phases
    coeffs[0] = 1.0
    return coeffs


class TestGridEvaluation:
    """The folded-FFT grid evaluation against Horner at the grid points."""

    @pytest.mark.parametrize("grid", [SMALL_GRID, GridSpec(n_radii=24, n_angles=64), DEFAULT_GRID],
                             ids=lambda g: f"{g.n_radii}x{g.n_angles}")
    @pytest.mark.parametrize("N", [1, 2, 47, 48, 49, 64, 256, 500, 1000])
    def test_matches_horner(self, N, grid):
        r = grid.radii()[:, None]
        for seed in (2 * N, 2 * N + 1):
            a = _seeded_coefficients(seed, N)
            ns = np.arange(1, N + 1, dtype=float)
            for lifted in (False, True):
                g = a * ns if lifted else a
                polys = np.stack((g, g * ns))  # g(z)/z and g'(z)
                fast = oracle._on_grid(polys, grid)
                ref = _horner_on_grid(polys, grid)
                for p, got, want in zip(polys, fast, ref):
                    scale = _horner(np.abs(p), r)  # sum |c_k| r^k per radius
                    assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("M", [48, 47, 256])
    @pytest.mark.parametrize("N", [1, 47, 48, 49, 500])
    def test_real_polys_match_horner_on_the_half_grid(self, N, M):
        grid = GridSpec(n_radii=24, n_angles=M)
        r = grid.radii()[:, None]
        ns = np.arange(1, N + 1, dtype=float)
        a = _seeded_coefficients(2 * N, N).real
        polys = np.stack((a, a * ns))
        fast = oracle._on_grid(polys, grid)
        assert fast.shape == (2, 24, M // 2 + 1)  # the angles in [0, pi]
        ref = _horner_on_grid(polys, grid)[..., : M // 2 + 1]
        for p, got, want in zip(polys, fast, ref):
            assert np.all(np.abs(got - want) <= 1e-13 * _horner(np.abs(p), r))

    @pytest.mark.parametrize("M", [48, 47])
    def test_skipped_points_count_on_the_full_grid(self, M, monkeypatch):
        # Zeros of g(z)/z on the real axis (columns 0 and M/2) stand for one
        # grid point, an off-axis zero for itself and its mirror image.
        grid = GridSpec(n_radii=24, n_angles=M)
        on_grid = oracle._on_grid

        def zeros_at(cols):
            def patched(polys, grid):
                out = on_grid(polys, grid)
                assert out.shape[-1] == M // 2 + 1
                out[0, 3, cols] = 0.0
                return out
            return patched

        f = series(1.0, -0.3, -0.2, 0.1)
        axis = [0, M // 2] if M % 2 == 0 else [0]
        for cols, skipped in ((axis, len(axis)), ([5], 2), (axis + [5, 9], len(axis) + 4)):
            monkeypatch.setattr(oracle, "_on_grid", zeros_at(cols))
            rep = disc_sample_check(f, STAR1, grid)
            assert (rep.budget, rep.skipped) == (24 * M, skipped)
        monkeypatch.setattr(oracle, "_on_grid", lambda polys, grid: 0.0 * on_grid(polys, grid))
        with pytest.raises(DivisionNearZeroError):
            disc_sample_check(f, STAR1, grid)

    @staticmethod
    def _certified_targets():
        """One seeded certified target of order 500 per ladder, source and
        class (S has no ucv criterion), as (target, spec)."""
        rng = random.Random(1212)
        out = []
        for fam in (Family.SPLIT3, Family.SPLIT4):
            for src in ("function", "rbeta", "s"):
                for kind in ClassKind:
                    if src == "s" and kind is ClassKind.UCV:
                        continue  # no criterion maps S into ucv
                    for _ in range(20):
                        lam = rng.uniform(0.2, 1.0) if kind in (ClassKind.STARLIKE, ClassKind.CONVEX) else None
                        a, b = rng.uniform(0.05, 0.6), rng.uniform(0.1, 1.2)
                        fp = FamilyParams(a, b, a + b + 4.2 + rng.uniform(0.3, 20.0), fam)
                        spec = ClassSpec(kind, lam)
                        beta = rng.uniform(0.0, 0.9)
                        source = SourceClass(SourceKind(src), beta if src == "rbeta" else None)
                        cert = certify_operator_mapping(fp, source, spec)
                        if cert.verdict is Verdict.CERTIFIED:
                            target = hadamard_convolve(
                                hypergeometric_coefficients(fp, 500), worst_case_coefficients(source, 500)
                            )
                            out.append((target, spec))
                            break
        return out

    @staticmethod
    def _assert_same_report(got, want):
        assert (got.passed, got.skipped, got.budget) == (want.passed, want.skipped, want.budget)
        assert got.truncation_warning == want.truncation_warning
        assert abs(got.worst_value - want.worst_value) <= 1e-12 * max(1.0, abs(want.worst_value))
        assert got.worst_location == want.worst_location

    def test_reports_match_a_horner_evaluated_report(self):
        targets = self._certified_targets()
        assert len(targets) == 22  # every combination found one
        for f, spec in targets:
            # Real coefficients: the half grid against the full one.
            assert not np.any(f.imag)
            got = disc_sample_check(f, spec)
            self._assert_same_report(got, _full_grid_horner_report(f, spec))
            assert got.worst_location.imag >= 0.0

    @pytest.mark.parametrize("spec", [STAR1, CONV1, UCV, SP])
    def test_complex_reports_match_a_horner_evaluated_report(self, spec):
        fp = FamilyParams(0.1 + 0.05j, 0.1 - 0.2j, 20.0, Family.SPLIT3)
        f = hypergeometric_coefficients(fp, 200)
        assert np.any(f.imag)
        self._assert_same_report(disc_sample_check(f, spec), _full_grid_horner_report(f, spec))


class TestWorstCase:
    def test_rbeta_values(self):
        f = worst_case_coefficients(SourceClass(SourceKind.RBETA, 0.0), 5)
        assert f[1] == 1.0
        f = worst_case_coefficients(SourceClass(SourceKind.RBETA, 0.5), 5)
        assert f[3] == 0.25

    def test_univalent_values(self):
        f = worst_case_coefficients(SourceClass(SourceKind.FULL_S), 6)
        assert f[4] == 5.0
        assert f[0] == 1.0

    @pytest.mark.parametrize("N", [1, 2, 500])
    def test_function_source_is_the_hadamard_identity(self, N):
        # z/(1-z): every coefficient 1, so convolving with it changes no bit.
        ones = worst_case_coefficients(SourceClass(SourceKind.FUNCTION), N)
        assert ones.tolist() == [1.0] * N
        f = hypergeometric_coefficients(FamilyParams(0.3, 0.7, 9.0, Family.SPLIT4), N)
        g = hadamard_convolve(f, ones)
        assert g.dtype == f.dtype and g.tobytes() == f.tobytes()

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            worst_case_coefficients(SourceClass(SourceKind.FULL_S), 0)


class TestCoefficientArrays:
    """The Hadamard product and both oracles read the caller's array a_1..a_N
    without writing to it."""

    @staticmethod
    def _read_only(coeffs, dtype):
        f = np.array(coeffs, dtype=dtype)
        f.flags.writeable = False
        return f

    @pytest.mark.parametrize("spec", [STAR1, CONV1, UCV, SP])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_read_only_input_stays_bit_identical(self, spec, dtype):
        f = self._read_only([1.0, 0.1, -0.03, 0.004], dtype)
        g = self._read_only([1.0, 0.5, 0.25, 0.125, 0.0625], dtype)
        before = f.tobytes(), g.tobytes()
        product = hadamard_convolve(f, g)
        coefficient_condition_check(f, spec)
        disc_sample_check(f, spec, SMALL_GRID)
        assert (f.tobytes(), g.tobytes()) == before
        assert np.array_equal(product, [1.0, 0.05, -0.0075, 0.0005])

    @pytest.mark.parametrize("check", [
        lambda f: hadamard_convolve(f, np.ones(3)),
        lambda f: hadamard_convolve(np.ones(3), f),
        lambda f: coefficient_condition_check(f, STAR1),
        lambda f: disc_sample_check(f, STAR1, SMALL_GRID),
    ], ids=["hadamard-left", "hadamard-right", "coeff-sum", "disc-sample"])
    def test_empty_array_is_a_value_error(self, check):
        with pytest.raises(ValueError, match="non-empty"):
            check(np.array([]))

    @pytest.mark.parametrize("check", [
        lambda f: hadamard_convolve(f, np.ones(3)),
        lambda f: hadamard_convolve(np.ones(3), f),
        lambda f: coefficient_condition_check(f, SP),
        lambda f: disc_sample_check(f, SP, SMALL_GRID),
    ], ids=["hadamard-left", "hadamard-right", "coeff-sum", "disc-sample"])
    @pytest.mark.parametrize("coeffs", [
        [1.0, 0.5, np.inf], [1.0, np.nan, 0.0], [np.nan, 0.5, 0.0],
        [1.0, 1e-3, complex(np.nan, 0.0)], [1.0, complex(0.0, -np.inf), 0.0],
    ], ids=["inf", "nan", "nan-a1", "complex-nan", "complex-inf"])
    def test_non_finite_coefficient_is_a_value_error(self, coeffs, check):
        # an inf once set the disc oracle's trim threshold to inf and a nan compared
        # false, so the trim dropped both and a_1 alone passed
        with pytest.raises(ValueError, match="non-finite coefficient"):
            check(np.array(coeffs))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_hadamard_names_the_unnormalized_operand(self, side):
        ok, bad = np.ones(3), np.array([2.0, 1.0, 1.0])
        f, g = (bad, ok) if side == "left" else (ok, bad)
        with pytest.raises(NormalizationError, match=f"{side} series"):
            hadamard_convolve(f, g)


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

    @pytest.mark.parametrize("tag, a, b, c", [
        ("gauss", 1.5, 1.5, 3.3), ("lemma-sec2-part1", 0.5, 1.0, 2.8), ("euler-2f1", 0.5, 1.0, 2.8),
    ])
    def test_unconverged_side_raises(self, tag, a, b, c):
        # 64 terms leave the direct series at z = 1 (gauss, the lemma) and at
        # z = 0.99 (euler-2f1) unconverged
        fp = FamilyParams(a, b, c, Family.SPLIT3)
        with pytest.raises(NoConvergenceError):
            identity_residual(tag, fp, z=0.99, policy=PrecisionPolicy(max_terms=64))


class TestIdentityRegistry:
    def test_lemma_entries_follow_their_section(self):
        for tag, lemma in LEMMAS.items():
            assert IDENTITIES[tag].family is lemma.section.family

    def test_samplers_are_seeded(self):
        for identity in IDENTITIES.values():
            one, two = random.Random(5), random.Random(5)
            assert [identity.sample(one) for _ in range(3)] == [identity.sample(two) for _ in range(3)]

    def test_euler_4f3_draws_keep_c_over_three_above_a(self):
        # The 4f3 kernel pairs a with c/3, so c/3 <= a would leave its region.
        rng = random.Random(11)
        for _ in range(200):
            p = IDENTITIES["euler-4f3"].sample(rng)
            assert p.c / 3 > p.a > 0

    def test_shpot_sampler_redraws_c_near_b(self):
        # seed 12 draws c = 2.699 first, within 0.05 of b = 2.664: the 3F2's closed form
        # cancels as c -> b, so the sampler draws c again
        p = IDENTITIES["shpot-srivastava"].sample(random.Random(12))
        assert abs(p.c - p.b) >= 0.05 and 0.1 <= p.c <= 4.0

    def test_residual_is_identity_residual_at_the_same_point(self):
        fp = FamilyParams(0.4, 1.5, 7.0, Family.SPLIT3)
        residual = IDENTITIES["lemma-sec2-part2"].residual(IdentityPoint(0.4, 1.5, 7.0, 3), DEFAULT_POLICY)
        assert residual == identity_residual("lemma-sec2-part2", fp)

    @pytest.mark.parametrize("tag", ["4f3-at-1", "5f4-at-1"])
    def test_unit_weight_sum_is_the_ladder_pfq_at_one(self, tag):
        # the residual's direct side of W_0, bit for bit the pFq series at z = 1
        rng = random.Random(tag)
        for _ in range(20):
            p = IDENTITIES[tag].sample(rng)
            fp = FamilyParams(p.a, p.b, p.c, Family(p.k))
            series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0)
            assert weighted_pochhammer_sum(fp, "one") == series

    @pytest.mark.parametrize("tag, name", [
        ("4f3-at-1", "four_f3_at_1"), ("5f4-at-1", "five_f4_at_1"),
        ("lemma-sec3-part2", "lemma_closed_form"),
    ])
    def test_closed_form_is_looked_up_per_call(self, tag, name, monkeypatch):
        # a wrapper set on closedforms after import, as perfbench's spans are, sees the call
        calls = []
        original = getattr(closedforms, name)
        monkeypatch.setattr(closedforms, name, lambda *args: calls.append(args) or original(*args))
        identity = IDENTITIES[tag]
        identity.residual(identity.sample(random.Random(3)), DEFAULT_POLICY)
        assert len(calls) == 1

    def test_malformed_lemma_tag_is_unknown(self):
        with pytest.raises(ValueError):
            identity_residual("lemma-sec2-part9", FamilyParams(1.0, 1.0, 3.0))
