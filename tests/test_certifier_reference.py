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

from hypergft.certifier import certify_function_class, certify_operator_mapping
from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.families import Family, FamilyParams

mpmath = pytest.importorskip("mpmath")

DIGITS = 30
STAR, CONV, UCV, SP = ClassKind.STARLIKE, ClassKind.CONVEX, ClassKind.UCV, ClassKind.SP
FUNCTION, RBETA, FULL_S = SourceKind.FUNCTION, SourceKind.RBETA, SourceKind.FULL_S


def weighted_sum(a, b, c, k, m):
    """sum_n n(n-1)...(n-m+1) T_n for m >= 0, sum_n T_n/(n+1) for m = -1."""
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
    if source is FUNCTION:
        return certify_function_class(fp, spec)
    source = SourceClass(source, beta if source is RBETA else None)
    return certify_operator_mapping(fp, source, spec)


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
