"""Certificate left sides against a 30-digit reference.

Every criterion of the certifier's table is a combination
pref * sum(coeff * G_m) + affine of the shifted blocks.  The weighted-sum
relations of the closedforms docstring invert to

    pref * G_m   = sum_n n (n-1) ... (n-m+1) T_n       (m = 0, 1, 2, 3)
    pref * G_-1  = sum_n T_n / (n+1) + corr,

with T_n = (a)_n (b)_{kn} / ((c)_{kn} n!) at the moduli.  Each weighted sum
is computed here in mpmath from the Euler integral
Gamma(c)/(Gamma(b)Gamma(c-b)) int_0^1 t^(b-1) (1-t)^(c-b-1) g(t^k) dt, where
g(x) = sum_n w(n) (a)_n x^n / n! has a closed form; one point is also checked
against mpmath's own pFq.  A certificate must satisfy
|lhs - ref| <= lhs_tail_bound.
"""
import random

import pytest

from hypergft.certifier import (
    Verdict,
    certify_function_class,
    certify_operator_mapping,
    hypergeometric_coefficients,
)
from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.closedforms import LemmaId, Section, five_f4_at_1, ladder_sum_block, lemma_closed_form
from hypergft.families import Family, FamilyParams
from hypergft.oracle import coefficient_condition_check, disc_sample_check

mpmath = pytest.importorskip("mpmath")

DIGITS = 30
STAR, CONV, UCV, SP = ClassKind.STARLIKE, ClassKind.CONVEX, ClassKind.UCV, ClassKind.SP
FUNCTION, RBETA, FULL_S = SourceKind.FUNCTION, SourceKind.RBETA, SourceKind.FULL_S


def weighted_sum(a, b, c, k, m):
    """sum_n n(n-1)...(n-m+1) T_n for m >= 0, sum_n T_n/(n+1) for m = -1.

    Raises ValueError where the integral below diverges at t = 1: its
    integrand is about (1-t)^(c-a-b-m-1) there, or (1-t)^(c-b-1) for m = -1
    and a < 1, where g stays finite.
    """
    if not c - a - b - m > 0 or (m == -1 and a < 1 and not c > b):
        raise ValueError(f"the Euler integral of weight {m} diverges at (a, b, c) = {(a, b, c)}")
    mpf = mpmath.mpf
    a, b, c = mpf(a), mpf(b), mpf(c)

    def g(x, one_minus_x):
        if m >= 0:  # x^m d^m/dx^m (1-x)^(-a)
            return mpmath.rf(a, m) * x ** m * one_minus_x ** (-a - m)
        if x == 0:
            return mpf(1)
        # log1p keeps g(x) -> 1 where 1 - x rounds to 1 (t^k tiny, as for b < 1).
        log = mpmath.log1p(-x) if x < 0.5 else mpmath.log(one_minus_x)
        return -mpmath.expm1((1 - a) * log) / ((1 - a) * x)

    # t = v^(1/b) near 0 and 1 - t = w^(1/s) near 1 take the endpoint powers
    # out of the integrand; s is its exponent at t = 1.
    s = c - a - b - m

    def left(v):
        t = v ** (1 / b)
        x = t ** k
        return (1 - t) ** (c - b - 1) * g(x, 1 - x) / b

    def right(w):  # 1 - t^k = u (1 + t + ... + t^(k-1)) stays exact near t = 1
        u = w ** (1 / s)
        t = 1 - u
        return t ** (b - 1) * u ** (c - b - s) * g(t ** k, u * sum(t ** j for j in range(k))) / s

    pref = mpmath.gamma(c) / (mpmath.gamma(b) * mpmath.gamma(c - b))
    return pref * (mpmath.quad(left, [0, mpf(0.5) ** b]) + mpmath.quad(right, [0, mpf(0.5) ** s]))


@pytest.mark.parametrize("a, b, c, m", [
    (0.484, 5.798, 5.584, -1),  # inside the part-4 region, but c < b with a < 1
    (0.6, 1.7, 2.2, 0),  # c = a + b - 0.1
    (0.6, 1.7, 4.2, 2),  # c = a + b + 1.9
])
def test_weighted_sum_rejects_a_divergent_integral(a, b, c, m):
    with pytest.raises(ValueError, match="diverges"):
        weighted_sum(a, b, c, 4, m)


def blocks(a, b, c, k):
    """pref * G_m for m = -1..3 at one point."""
    with mpmath.workdps(DIGITS):
        corr = mpmath.rf(c - k, k) / ((a - 1) * mpmath.rf(b - k, k))
        out = {m: weighted_sum(a, b, c, k, m) for m in range(4)}
        out[-1] = weighted_sum(a, b, c, k, -1) + corr
        return out, corr


def left_side(family, source, kind, lam, corr):
    """(coefficient per shift, affine term) of the certifier's table."""
    if source is FUNCTION:
        return {
            STAR: {1: 1, 0: lam},
            CONV: {2: 1, 1: lam + 2, 0: lam},
            UCV: {2: 2, 1: 5, 0: 1},
            SP: {1: 2, 0: 1},
        }[kind], 0
    if source is RBETA:
        if kind is STAR:
            if family is Family.SPLIT4 and lam == 1.0:
                return {0: 1}, 0
            return {-1: lam - 1, 0: 1}, -(lam - 1) * corr
        if kind is SP:
            return {0: 2, -1: -1}, corr
        return {CONV: {1: 1, 0: lam}, UCV: {1: 2, 0: 1}}[kind], 0
    return {
        STAR: {2: 1, 1: lam + 2, 0: lam},
        CONV: {3: 1, 2: lam + 5, 1: 3 * lam + 4, 0: lam},
        SP: {2: 2, 1: 5, 0: 1},
    }[kind], 0


def certify(fp, source, kind, lam, beta):
    spec = ClassSpec(kind, lam if kind in (STAR, CONV) else None)
    return certify_operator_mapping(fp, SourceClass(source, beta if source is RBETA else None), spec)


CRITERIA = [(FUNCTION, kind) for kind in (STAR, CONV, UCV, SP)] + [
    (RBETA, kind) for kind in (STAR, CONV, UCV, SP)
] + [(FULL_S, kind) for kind in (STAR, CONV, SP)]


def _points(family, seed, count):
    """Points where every weighted sum of the table converges (c > a + b + 3)
    and the part-4 hypothesis holds (a != 1, b not in 1..k)."""
    rng = random.Random(seed)
    k = family.order
    out = []
    while len(out) < count:
        a, b = rng.uniform(0.2, 2.5), rng.uniform(0.3, 4.5)
        if abs(a - 1) < 0.1 or min(abs(b - m) for m in range(1, k + 1)) < 0.1:
            continue
        c = a + b + 3 + rng.uniform(0.6, 6.0)
        out.append((a, b, c, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.9)))
    return out


def _check(family, a, b, c, lam, beta, criteria):
    ref_blocks, corr = blocks(a, b, c, family.order)
    fp = FamilyParams(a, b, c, family)
    misses = []
    for source, kind in criteria:
        cert = certify(fp, source, kind, lam, beta)
        combo, affine = left_side(family, source, kind, lam, corr)
        with mpmath.workdps(DIGITS):
            ref = sum(coeff * ref_blocks[m] for m, coeff in combo.items()) + affine
        if not abs(cert.lhs - float(ref)) <= cert.lhs_tail_bound:
            misses.append((cert.theorem_tag, cert.lhs, float(ref), cert.lhs_tail_bound))
    assert not misses, f"(a, b, c, lam, beta) = {(a, b, c, lam, beta)}: {misses}"


def test_quadrature_reference_matches_mpmath_pfq():
    a, b, c, k = 0.6, 1.7, 11.3, 4
    with mpmath.workdps(DIGITS):
        upper = [mpmath.mpf(a)] + [(mpmath.mpf(b) + j) / k for j in range(k)]
        lower = [(mpmath.mpf(c) + j) / k for j in range(k)]
        direct = mpmath.hyper(upper, lower, 1)
        assert abs(weighted_sum(a, b, c, k, 0) - direct) <= mpmath.mpf(10) ** (5 - DIGITS) * direct


@pytest.mark.parametrize("family", [Family.SPLIT3, Family.SPLIT4])
def test_every_criterion_within_its_bound(family):
    for a, b, c, lam, beta in _points(family, f"criteria/{family.name}", 5):
        _check(family, a, b, c, lam, beta, CRITERIA)
    # rbeta -> starlike at lambda = 1: the quartic corollary, and a zero
    # G_-1 coefficient for the cubic ladder.
    for a, b, c, _lam, beta in _points(family, f"lambda1/{family.name}", 2):
        _check(family, a, b, c, 1.0, beta, [(RBETA, STAR)])


def test_cancelling_rbeta_sp_within_its_bound():
    # pref (2 G_0 - G_-1) + corr is about 1 while pref G_m is in the thousands,
    # so the gamma allowance must scale with the blocks, not with the result.
    rng = random.Random("rbeta-sp/split4")
    for _ in range(12):
        a, b = rng.uniform(1.3, 2.0), rng.uniform(4.6, 6.0)
        _check(Family.SPLIT4, a, b, a + b + rng.uniform(8.0, 16.0), None, 0.5, [(RBETA, SP)])


# W_d of lemma part p (W_0 for the closed form at z = 1) as sum(coeff * pref G_m).
_LEMMA_BLOCKS = {
    0: {0: 1},
    1: {1: 1, 0: 1},
    2: {2: 1, 1: 3, 0: 1},
    3: {3: 1, 2: 6, 1: 7, 0: 1},
    -1: {-1: 1},
}


def _near_floor(seed, d, part4, count):
    """Split4 points with c - a - b - d in (0.05, 0.5), off the part-4 poles;
    with part4 also inside the part-4 region c > a + 3.  For d = -1 the
    Euler integral of sum T_n/(n+1) needs c > b as well (for a < 1 its
    integrand is about (1-t)^(c-b-1) at t = 1)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = rng.uniform(0.2, 2.5), rng.uniform(0.3, 6.0)
        c = a + b + d + rng.uniform(0.05, 0.5)
        if abs(a - 1) < 0.1 or min(abs(b - m) for m in range(1, 5)) < 0.1:
            continue
        if (part4 and c <= a + 3.05) or (d == -1 and c <= b):
            continue
        out.append((a, b, c, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.9)))
    return out


def _reference(a, b, c, combo, affine):
    """sum(coeff * pref G_m) + affine(corr) at 30 digits, computing only the
    blocks in combo (the others diverge this close to the floor)."""
    with mpmath.workdps(DIGITS):
        corr = mpmath.rf(c - 4, 4) / ((a - 1) * mpmath.rf(b - 4, 4))
        total = affine(corr)
        for m, coeff in combo.items():
            total += coeff * (weighted_sum(a, b, c, 4, m) + (corr if m == -1 else 0))
        return total


@pytest.mark.parametrize("part", [0, 1, 2, 3, 4])
def test_quartic_closed_forms_near_the_floor(part):
    # part 0 is five_f4_at_1 (W_0); parts 1-4 are the sec3 lemmas.
    d = (0, 1, 2, 3, -1)[part]
    for a, b, c, _lam, _beta in _near_floor(f"floor/part{part}", d, d == -1, 3):
        fp = FamilyParams(a, b, c, Family.SPLIT4)
        res = five_f4_at_1(fp) if part == 0 else lemma_closed_form(LemmaId(Section.SEC3, part), fp)
        ref = _reference(a, b, c, _LEMMA_BLOCKS[d], lambda corr: -corr if d == -1 else 0)
        assert res.converged, (part, (a, b, c))
        assert abs(res.value - complex(ref)) <= res.tail_bound, (part, (a, b, c), res, ref)


@pytest.mark.parametrize("source,kind", CRITERIA)
def test_every_quartic_criterion_near_the_floor(source, kind):
    # d is the highest power of the criterion, max(m) over its blocks G_m.
    keys = left_side(Family.SPLIT4, source, kind, 0.5, 0)[0]
    d, part4 = max(keys), -1 in keys
    for a, b, c, lam, beta in _near_floor(f"floor/{source.value}/{kind.value}", d, part4, 2):
        cert = certify(FamilyParams(a, b, c, Family.SPLIT4), source, kind, lam, beta)
        combo, _ = left_side(Family.SPLIT4, source, kind, lam, 0)
        ref = _reference(a, b, c, combo, lambda corr: left_side(Family.SPLIT4, source, kind, lam, corr)[1])
        assert all(ladder_sum_block(4, a, b, c, m).converged for m in combo), (a, b, c)
        assert abs(cert.lhs - float(ref)) <= cert.lhs_tail_bound, (
            cert.theorem_tag, (a, b, c, lam, beta), cert.lhs, float(ref), cert.lhs_tail_bound
        )


def test_near_floor_starlike_point_is_certified_and_passes_both_oracles():
    # function -> starlike with c - a - b - 1 = 0.098, below where a t^2
    # expansion of (1+t^2)^(-a) decays (c > 2a + b + 1 for G_1).
    fp = FamilyParams(0.391667, 0.383333, 1.872727, Family.SPLIT4)
    spec = ClassSpec(STAR, 0.381818)
    assert certify_function_class(fp, spec).verdict is Verdict.CERTIFIED
    f = hypergeometric_coefficients(fp, 500)
    assert coefficient_condition_check(f, spec).passed
    assert disc_sample_check(f, spec).passed



@pytest.mark.parametrize("family, kind, cs", [
    (Family.SPLIT3, STAR, (140.0, 150.0, 160.0, 170.0)),
    (Family.SPLIT4, CONV, (160.0, 170.0)),
])
def test_large_c_matches_the_reference(family, kind, cs):
    # With the seed Gamma(b)/Gamma(c-a) inside its running product, the outer
    # expansion left the float range from these c on (NoConvergenceError).
    # The bound counts the rounding of log-gamma values near 600, 2.5e-13 of
    # the lhs here.
    combo, _ = left_side(family, FUNCTION, kind, 1.0, 0)
    for c in cs:
        cert = certify(FamilyParams(0.5, 0.5, c, family), FUNCTION, kind, 1.0, None)
        ref_blocks, _ = blocks(0.5, 0.5, c, family.order)
        with mpmath.workdps(DIGITS):
            ref = float(sum(coeff * ref_blocks[m] for m, coeff in combo.items()))
        assert cert.verdict is Verdict.CERTIFIED, c
        assert abs(cert.lhs - ref) <= cert.lhs_tail_bound, (c, cert.lhs, ref, cert.lhs_tail_bound)
