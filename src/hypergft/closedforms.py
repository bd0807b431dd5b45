"""Closed-form summation identities with certified evaluation.

The split-ladder functions at unit argument all reduce to one outer
expansion derived from the Euler integral: with k the split order and
prefactor Gamma(c) Gamma(c-a-b) / (Gamma(b) Gamma(c-b)),

    kF(k-1)(a, b/k ladder; c/k ladder; 1)
        = pref * sum_j binom(-a, j) [Gamma(b+2j)/Gamma(c-a+2j)]
                 * 2F1(a + s*j, b+2j; c-a+2j; -1),

where s = 1 for the cubic ladder (the factor (1+t+t^2)^{-a} is expanded in
powers of t^2/(1+t)) and s = 0 for the quartic one ((1+t^2)^{-a} in powers
of t^2).  The frequently seen variant of the cubic formula with terminating
2F1(-j, b+j; c-a+j; -1) factors is the term-by-term integration of a
binomial series outside its disc of convergence: its terms grow like 2^j
and the expansion diverges, so the convergent regrouping above is what this
module evaluates (see the repository typo ledger).

The weighted ladder sums W_d = sum_n (n+1)^d T_n of the lemmas are linear
combinations of the same expansion at shifted parameters: with G_m =
(a)_m / (c-a-b-m)_m * S(a+m, b+km, c+km),

    W_0  = pref * G_0
    W_1  = pref * (G_1 + G_0)
    W_2  = pref * (G_2 + 3 G_1 + G_0)
    W_3  = pref * (G_3 + 6 G_2 + 7 G_1 + G_0)
    W_-1 = pref * (c-a-b)/(a-1) * S(a-1, b-k, c-k) - (c-k)_k / ((a-1)(b-k)_k),

the affine term sitting outside the prefactor product (``_PART_COEFFS``
holds the G-basis of each power d, ``part4_affine`` the affine term).

``block_combination`` is the one place a sum of weighted powers
sum_d coeff_d W_d and its bound are assembled, for the closed forms at
z = 1 (W_0), the lemmas (W_1, W_2, W_3, W_-1) and every certificate (two
adjacent powers); its gamma allowance scales with the blocks a cancelling
combination subtracts, not with the (possibly much smaller) result.

The outer expansion S is summed by the package's one engine,
``series.chunked_sum``, with the inner 2F1(-1) tails of each chunk added to
the bound; ``split_outer_sum`` passes the order's tail certifier.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConstraintError, NoConvergenceError, PoleError
from .families import Family, FamilyParams
from .numcore import (
    DEFAULT_POLICY,
    GAMMA_EVAL_REL,
    POLE_TOL,
    PrecisionPolicy,
    gamma_ratio,
    is_nonpositive_integer,
    log_gamma,
    nonpositive_integer_value,
    pochhammer,
)
from .quadrature import DEFAULT_BUDGET, adaptive_quad
from .series import _RAABE_WINDOW, EvalResult, PFQParams, chunked_sum, pfq_eval, raabe_gammas

_INNER_STOP_REL = 1e-17
_INNER_MAX_ITERS = 4096


class Section(enum.Enum):
    """Which ladder family a lemma belongs to."""

    SEC2 = "sec2"  # cubic ladder, order 3
    SEC3 = "sec3"  # quartic ladder, order 4

    @property
    def family(self) -> Family:
        return Family.SPLIT3 if self is Section.SEC2 else Family.SPLIT4


@dataclass(frozen=True)
class LemmaId:
    section: Section
    part: int

    def __post_init__(self) -> None:
        if self.part not in (1, 2, 3, 4):
            raise ValueError("lemma part must be 1..4")

    @property
    def weight(self) -> str:
        """Weight of the direct-sum side: (n+1), (n+1)^2, (n+1)^3 or 1/(n+1)."""
        return ("linear", "square", "cube", "inv")[self.part - 1]

    @property
    def power(self) -> int:
        """d of the weighted sum W_d = sum (n+1)^d T_n: 1, 2, 3 or -1."""
        return (1, 2, 3, -1)[self.part - 1]


LEMMAS = {f"lemma-{s.value}-part{p}": LemmaId(s, p) for s in Section for p in (1, 2, 3, 4)}


def family_prefactor(order: int, a: complex, b: complex, c: complex) -> complex:
    """Gamma(c) Gamma(c-a-b) / (Gamma(b) Gamma(c-b))."""
    return gamma_ratio([c, c - a - b], [b, c - b])


def _inner_2f1_batch(
    A: np.ndarray, m: complex, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 2F1(A_j, B_j; C_j; -1) with C_j - B_j = m via the
    half-argument transform; returns (values, absolute tail bounds)."""
    L = A.shape[0]
    T = np.ones(L, dtype=complex)
    G = np.ones(L, dtype=complex)
    i = 0
    while i < _INNER_MAX_ITERS:
        ratio = (A + i) * (m + i) / ((C + i) * (i + 1.0)) * 0.5
        T = T * ratio
        G += T
        i += 1
        if i >= 8:
            mags = np.abs(T)
            gmag = np.maximum(np.abs(G), 1e-300)
            rho = np.abs((A + i) * (m + i) / ((C + i) * (i + 1.0))) * 0.5
            dead = mags == 0.0  # exactly terminated rows
            if np.all(mags <= _INNER_STOP_REL * gmag) and np.all((rho < 0.9) | dead):
                safe_rho = np.where(dead, 0.0, np.minimum(rho, 0.9))
                tails = mags * safe_rho / (1.0 - safe_rho)
                scale = np.exp(-A * math.log(2.0))
                return G * scale, tails * np.abs(scale)
    raise NoConvergenceError("inner half-argument series failed to settle")


def split_outer_sum(
    order: int,
    a: complex,
    b: complex,
    c: complex,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """The outer expansion S(a, b, c) for the given split order (3 or 4).

    For order 3 the term ratio tends to 1/2 and the largest ratio over the
    window certifies a geometric tail; for order 4 the terms decay
    polynomially with alternating signs, certified by the alternating-tail
    bound (real parameters) or a Raabe bound on the magnitudes.
    """
    if order not in (3, 4):
        raise ValueError("split order must be 3 or 4")
    a, b, c = complex(a), complex(b), complex(c)
    s_shift = 1 if order == 3 else 0
    m_fix = c - a - b
    if is_nonpositive_integer(b):
        raise PoleError(f"outer seed Gamma({b}) is at a pole")
    if is_nonpositive_integer(c - a):
        raise PoleError(f"outer seed 1/Gamma({c - a}) is at a pole")
    w_run = cmath.exp(log_gamma(b) - log_gamma(c - a))

    def chunk_terms(js: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal w_run
        wr = (
            -(a + js)
            / (js + 1.0)
            * (b + 2.0 * js)
            * (b + 2.0 * js + 1.0)
            / ((c - a + 2.0 * js) * (c - a + 2.0 * js + 1.0))
        )
        w = w_run * np.concatenate(([1.0 + 0.0j], np.cumprod(wr[:-1])))
        w_run = w[-1] * wr[-1]
        A = a + s_shift * js
        C = c - a + 2.0 * js
        M, inner_tails = _inner_2f1_batch(A.astype(complex), m_fix, C.astype(complex))
        return w * M, float((np.abs(w) * inner_tails).sum())

    real_params = abs(a.imag) == 0.0 and abs(b.imag) == 0.0 and abs(c.imag) == 0.0

    def outer_tail(js: np.ndarray, terms: np.ndarray, total: complex):
        wlen = min(_RAABE_WINDOW, len(js) - 1)
        if wlen < 2:
            return None
        recent = terms[-(wlen + 1):]
        wm = np.abs(recent)
        if order == 3:
            if not np.all(wm[:-1] > 0):
                return None
            rho = float(np.max(wm[1:] / wm[:-1]))
            return (total, float(wm[-1]) * rho / (1.0 - rho)) if rho <= 0.95 else None
        if not np.all(wm > 0):
            return None
        if real_params:
            signs = np.sign(recent.real)
            alternating = bool(np.all(signs[1:] * signs[:-1] < 0))
            descending = bool(np.all(np.diff(wm) <= wm[:-1] * 1e-9))
            if alternating and descending and wm[-1] < wm[0] * (1.0 - 1e-7):
                return total, float(wm[-1])
        jwin = js[-(wlen + 1):].astype(float)
        gammas = raabe_gammas(jwin[:-1], wm[1:] / wm[:-1])
        if gammas is None:
            return None
        return total, float(wm[-1]) * (int(js[-1]) + 2) / (float(gammas.min()) - 1.0)

    terminal = -nonpositive_integer_value(a) if is_nonpositive_integer(a) else None
    return chunked_sum(chunk_terms, outer_tail, policy, terminal)


def ladder_sum_block(
    order: int,
    a: complex,
    b: complex,
    c: complex,
    shift: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """Shifted building block G_shift of the weighted ladder sums.

    shift m >= 0 gives (a)_m/(c-a-b-m)_m * S(a+m, b+km, c+km), which is
    S(a, b, c) at m = 0; shift -1 gives (c-a-b)/(a-1) * S(a-1, b-k, c-k) without the
    affine term, which ``part4_affine`` gives.
    """
    a, b, c = complex(a), complex(b), complex(c)
    k = order
    if shift >= 0:
        pre = pochhammer(a, shift) / pochhammer(c - a - b - shift, shift)
        inner = split_outer_sum(order, a + shift, b + k * shift, c + k * shift, policy)
    elif shift == -1:
        pre = (c - a - b) / (a - 1.0)
        inner = split_outer_sum(order, a - 1.0, b - k, c - k, policy)
    else:
        raise ValueError("shift must be -1, 0, 1, 2 or 3")
    pre = complex(pre)
    return EvalResult(
        pre * inner.value, abs(pre) * inner.tail_bound, inner.terms_used, inner.converged
    )


def block_combination(
    order: int, a: complex, b: complex, c: complex, weights: Mapping[int, float],
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """sum(coeff * W_d) over the {power d: coeff} entries of weights.

    The powers' G-combinations (``_PART_COEFFS``) are merged into one
    pref * sum(coeff * G_m), plus affine = -coeff_-1 * ``part4_affine``.
    The bound is |pref| sum |coeff| tail_m + GAMMA_EVAL_REL (|pref| sum
    |coeff| |G_m| + |affine|); zero coefficients are skipped.
    """
    a, b, c = complex(a), complex(b), complex(c)
    combo: dict[int, float] = {}
    for power, weight in weights.items():
        for shift, coeff in _PART_COEFFS[power]:
            combo[shift] = combo.get(shift, 0.0) + weight * coeff
    inv = weights.get(-1, 0.0)
    affine = -inv * part4_affine(order, a, b, c) if inv != 0.0 else 0.0
    pref = family_prefactor(order, a, b, c)
    value = 0.0 + 0.0j
    tail = 0.0
    size = 0.0
    terms = 0
    converged = True
    for shift, coeff in combo.items():
        if coeff == 0.0:
            continue
        blk = ladder_sum_block(order, a, b, c, shift, policy)
        value += coeff * blk.value
        tail += abs(coeff) * blk.tail_bound
        size += abs(coeff) * abs(blk.value)
        terms += blk.terms_used
        converged = converged and blk.converged
    bound = abs(pref) * tail + GAMMA_EVAL_REL * (abs(pref) * size + abs(affine))
    return EvalResult(pref * value + affine, bound, terms, converged)


# power d -> (shift m, coeff) pairs with W_d = pref * sum(coeff * G_m) (W_-1
# also carries the affine term).
_PART_COEFFS: dict[int, tuple[tuple[int, float], ...]] = {
    -1: ((-1, 1.0),),
    0: ((0, 1.0),),
    1: ((1, 1.0), (0, 1.0)),
    2: ((2, 1.0), (1, 3.0), (0, 1.0)),
    3: ((3, 1.0), (2, 6.0), (1, 7.0), (0, 1.0)),
}


def part4_affine(order: int, a: complex, b: complex, c: complex):
    """(c-k)_k / ((a-1)(b-k)_k), the affine term of the 1/(n+1)-weighted sum."""
    k = order
    return pochhammer(c - k, k) / ((a - 1.0) * pochhammer(b - k, k))


def gauss_2f1_at_1(a: complex, b: complex, c: complex) -> complex:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    a, b, c = complex(a), complex(b), complex(c)
    if not (c.real > b.real > 0):
        raise ConstraintError("requires Re(c) > Re(b) > 0")
    if not (c - a - b).real > 0:
        raise ConstraintError("requires Re(c-a-b) > 0")
    return gamma_ratio([c, c - a - b], [c - a, c - b])


def shpot_srivastava_3f2(a: float, b: float, c: float) -> float:
    """3F2(a, b, c; b+1, c+1; 1) for 0 < a < min(1, b+1, c+1), b != c.

    Equals bc/(c-b) * Gamma(1-a) [Gamma(b)/Gamma(1-a+b) - Gamma(c)/Gamma(1-a+c)].
    """
    if not (a > 0 and b > 0 and c > 0):
        raise ConstraintError("requires a, b, c > 0")
    if abs(c - b) <= POLE_TOL * max(1.0, abs(b)):
        raise ConstraintError("requires c != b")
    if not a < min(1.0, b + 1.0, c + 1.0):
        raise ConstraintError("requires a < min(1, b+1, c+1)")
    term_b = math.exp(math.lgamma(1.0 - a) + math.lgamma(b) - math.lgamma(1.0 - a + b))
    term_c = math.exp(math.lgamma(1.0 - a) + math.lgamma(c) - math.lgamma(1.0 - a + c))
    return b * c / (c - b) * (term_b - term_c)


def _unit_sum(fp: FamilyParams, family: Family, name: str, policy: PrecisionPolicy) -> EvalResult:
    if fp.family is not family:
        raise ValueError(f"{name} expects a {family.name} parameter set")
    if not (complex(fp.c) - complex(fp.a) - complex(fp.b)).real > 0:
        raise ConstraintError("requires Re(c-a-b) > 0")
    return block_combination(fp.order, fp.a, fp.b, fp.c, {0: 1.0}, policy)


def four_f3_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the cubic-ladder 4F3 at z = 1."""
    return _unit_sum(fp, Family.SPLIT3, "four_f3_at_1", policy)


def five_f4_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the quartic-ladder 5F4 at z = 1."""
    return _unit_sum(fp, Family.SPLIT4, "five_f4_at_1", policy)


def lemma_closed_form(
    lemma_id: LemmaId, fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """Right-hand side of the weighted ladder-sum identities, parts 1-4."""
    if lemma_id.section.family is not fp.family:
        raise ValueError(
            f"{lemma_id.section.value} lemma applies to {lemma_id.section.family.name} parameters"
        )
    a, b, c = complex(fp.a), complex(fp.b), complex(fp.c)
    k = fp.order
    part = lemma_id.part
    if part in (1, 2, 3):
        if not (c - a - b).real > part:
            raise ConstraintError(f"part {part} requires c > a + b + {part}")
    else:
        if abs(a - 1.0) <= POLE_TOL:
            raise ConstraintError("part 4 requires a != 1")
        for m in range(1, k + 1):
            if abs(b - m) <= POLE_TOL:
                raise ConstraintError(f"part 4 requires b != {m}")
        if not (c.real > a.real + k - 1 and c.real > (a + b).real - 1):
            raise ConstraintError(f"part 4 requires c > max(a + {k - 1}, a + b - 1)")
    return block_combination(k, a, b, c, {lemma_id.power: 1.0}, policy)


_EULER_LEVELS = ("2f1", "3f2quad", "4f3", "pfq")


def _require_half_ladder(pair: tuple[complex, complex], what: str) -> complex:
    lo, hi = pair
    if abs(hi - lo - 0.5) > 1e-9:
        raise ConstraintError(f"{what} must be a half-step ladder (x/2, (x+1)/2)")
    return 2.0 * lo


def euler_integral(
    level: str,
    params: PFQParams,
    z: complex,
    quad_tol: float = 1e-10,
    policy: PrecisionPolicy = DEFAULT_POLICY,
    budget: int = DEFAULT_BUDGET,
) -> EvalResult:
    """Integral representation cross-check for the series evaluator.

    level selects the kernel:
      2f1     - integrate over (upper[0], lower[0]) against (1 - z t)^(-upper[1])
      3f2quad - the half-ladder 3F2 against (1 - z t^2)^(-a)
      4f3     - reduce to an inner 3F2 at z*t
      pfq     - reduce to an inner (p-1)F(q-1) at z*t
    Integration always pairs the first upper with the first lower parameter;
    endpoint power singularities are removed by the substitution t = u^(1/s).
    """
    lv = level.strip().lower().replace("generic_", "")
    if lv not in _EULER_LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {_EULER_LEVELS}")
    z = complex(z)

    if lv == "3f2quad":
        if params.p != 3 or params.q != 2:
            raise ConstraintError("3f2quad needs 3 upper and 2 lower parameters")
        a_pow = params.upper[0]
        bb = _require_half_ladder((params.upper[1], params.upper[2]), "upper ladder")
        cc = _require_half_ladder((params.lower[0], params.lower[1]), "lower ladder")
        p_exp, q_exp = bb, cc - bb

        def kernel(t: float) -> complex:
            return (1.0 - z * t * t) ** (-a_pow)

        inner_allow = 0.0
    else:
        if params.p > params.q + 1:
            raise ConstraintError("integral representation needs p <= q+1")
        if params.p < 2:
            raise ConstraintError("need at least two upper parameters")
        p_exp = params.upper[0]
        q_exp = params.lower[0] - params.upper[0]
        rest_upper = params.upper[1:]
        rest_lower = params.lower[1:]
        if lv == "2f1":
            if params.p != 2 or params.q != 1:
                raise ConstraintError("2f1 needs 2 upper and 1 lower parameter")
            a_pow = params.upper[1]

            def kernel(t: float) -> complex:
                return (1.0 - z * t) ** (-a_pow)

            inner_allow = 0.0
        else:
            if lv == "4f3" and (params.p, params.q) != (4, 3):
                raise ConstraintError("4f3 needs 4 upper and 3 lower parameters")
            inner_params = PFQParams(rest_upper, rest_lower)
            inner_policy = PrecisionPolicy(
                rel_tol=min(policy.rel_tol, quad_tol * 1e-3),
                abs_tol=policy.abs_tol,
                max_terms=policy.max_terms,
            )

            def kernel(t: float) -> complex:
                return pfq_eval(inner_params, z * t, inner_policy).value

            inner_allow = quad_tol * 1e-3

    if not (q_exp.real > 0 and p_exp.real > 0):
        raise ConstraintError("requires Re(first lower) > Re(first upper) > 0")
    if params.p == params.q + 1 and abs(z) >= 1.0:
        raise ConstraintError("requires |z| < 1 when p = q + 1")

    pref = gamma_ratio([p_exp + q_exp], [p_exp, q_exp])
    seg_tol = 0.5 * quad_tol / max(abs(pref), 1e-300)

    # Left half with t = u^(1/s0), right half with 1 - t = u^(1/s1); s < 1
    # removes an endpoint power singularity, s = 1 is the plain integrand.
    s0 = min(p_exp.real, 1.0)
    s1 = min(q_exp.real, 1.0)

    def left(u: float) -> complex:
        t = u ** (1.0 / s0)
        return (1.0 / s0) * (t ** (p_exp - s0)) * ((1.0 - t) ** (q_exp - 1.0)) * kernel(t)

    def right(u: float) -> complex:
        sv = u ** (1.0 / s1)
        t = 1.0 - sv
        return (1.0 / s1) * (sv ** (q_exp - s1)) * (t ** (p_exp - 1.0)) * kernel(t)

    left_res = adaptive_quad(left, 0.0, 0.5 ** s0, seg_tol, budget)
    right_res = adaptive_quad(right, 0.0, 0.5 ** s1, seg_tol, budget - left_res.evaluations)
    total = left_res.value + right_res.value
    err = left_res.error + right_res.error
    evals = left_res.evaluations + right_res.evaluations

    value = pref * total
    tail = abs(pref) * err + inner_allow + GAMMA_EVAL_REL * abs(value)
    return EvalResult(value, tail, evals, tail <= quad_tol + GAMMA_EVAL_REL * abs(value))
