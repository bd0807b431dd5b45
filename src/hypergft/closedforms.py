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

The weighted ladder sums of the lemmas are linear combinations of the same
expansion at shifted parameters: with G_m = (a)_m / (c-a-b-m)_m * S(a+m,
b+km, c+km),

    sum (n+1)   T_n = pref * (G_1 + G_0)
    sum (n+1)^2 T_n = pref * (G_2 + 3 G_1 + G_0)
    sum (n+1)^3 T_n = pref * (G_3 + 6 G_2 + 7 G_1 + G_0)
    sum T_n/(n+1)   = pref * (c-a-b)/(a-1) * S(a-1, b-k, c-k)
                      - (c-k)_k / ((a-1)(b-k)_k),

the affine term sitting outside the prefactor product.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, NoConvergenceError, PoleError
from .families import Family, FamilyParams
from .numcore import (
    DEFAULT_POLICY,
    POLE_TOL,
    PrecisionPolicy,
    gamma_ratio,
    is_nonpositive_integer,
    log_gamma,
    nonpositive_integer_value,
    pochhammer,
)
from .quadrature import DEFAULT_BUDGET, adaptive_quad
from .series import EvalResult, PFQParams, pfq_eval

# Relative allowance for the gamma-prefactor evaluations folded into tails.
_GAMMA_EVAL_REL = 5e-14

_OUTER_CHUNKS = (32, 128, 512, 2048, 8192)
_INNER_STOP_REL = 1e-17
_INNER_MAX_ITERS = 4096
_CERT_WINDOW = 16


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

    For order 3 the term ratio tends to 1/2 and a geometric certificate
    applies; for order 4 the terms decay polynomially with alternating
    signs, certified by the alternating-tail bound (real parameters) or a
    Raabe bound on the magnitudes.
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

    terminal: int | None = None
    if is_nonpositive_integer(a):
        terminal = -nonpositive_integer_value(a)

    real_params = abs(a.imag) == 0.0 and abs(b.imag) == 0.0 and abs(c.imag) == 0.0

    total = 0.0 + 0.0j
    inner_err = 0.0
    n = 0
    chunk_idx = 0
    best_tail = float("inf")
    while n < policy.max_terms:
        chunk = _OUTER_CHUNKS[min(chunk_idx, len(_OUTER_CHUNKS) - 1)]
        chunk_idx += 1
        chunk = min(chunk, policy.max_terms - n)
        if terminal is not None:
            chunk = min(chunk, terminal + 1 - n)
            if chunk <= 0:
                ok = inner_err <= policy.rel_tol * abs(total) + policy.abs_tol
                return EvalResult(total, inner_err, n, ok)
        js = np.arange(n, n + chunk)
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
        terms = w * M
        total += terms.sum()
        inner_err += float((np.abs(w) * inner_tails).sum())
        n += chunk

        if terminal is not None:
            if n >= terminal + 1:
                ok = inner_err <= policy.rel_tol * abs(total) + policy.abs_tol
                return EvalResult(total, inner_err, n, ok)
            continue

        tmags = np.abs(terms)
        scale = policy.rel_tol * abs(total) + policy.abs_tol
        trunc: float | None = None
        wlen = min(_CERT_WINDOW, chunk - 1)
        if wlen < 2:
            continue
        if order == 3:
            window = tmags[-(wlen + 1):]
            if np.all(window[:-1] > 0):
                rho = float(np.max(window[1:] / window[:-1]))
                if rho <= 0.95:
                    trunc = float(window[-1]) * rho / (1.0 - rho)
        elif chunk > wlen:
            window = terms[-(wlen + 1):]
            wm = np.abs(window)
            jwin = js[-(wlen + 1):].astype(float)
            if real_params and np.all(wm > 0):
                signs = np.sign(window.real)
                alternating = bool(np.all(signs[1:] * signs[:-1] < 0))
                descending = bool(np.all(np.diff(wm) <= wm[:-1] * 1e-9))
                descending = descending and wm[-1] < wm[0] * (1.0 - 1e-7)
                if alternating and descending:
                    trunc = float(wm[-1])
            if trunc is None and np.all(wm > 0):
                # Raabe bound on magnitudes: gamma_j = j (1 - |t_{j+1}|/|t_j|).
                ratios = wm[1:] / wm[:-1]
                gammas = jwin[:-1] * (1.0 - ratios)
                if np.all(np.diff(gammas) >= -1e-9 * np.maximum(1.0, np.abs(gammas[:-1]))):
                    gamma_hat = float(gammas.min())
                    if gamma_hat > 1.0 + 1e-9:
                        trunc = float(wm[-1]) * (n + 1) / (gamma_hat - 1.0)
        if trunc is not None:
            best_tail = min(best_tail, trunc + inner_err)
            if trunc + inner_err <= scale:
                return EvalResult(total, trunc + inner_err, n, True)
    if np.isfinite(best_tail):
        return EvalResult(total, best_tail, n, False)
    raise NoConvergenceError(
        f"outer ladder expansion not certified within {policy.max_terms} terms"
    )


def ladder_sum_block(
    order: int,
    a: complex,
    b: complex,
    c: complex,
    shift: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """Shifted building block G_shift of the weighted ladder sums.

    shift m >= 1 gives (a)_m/(c-a-b-m)_m * S(a+m, b+km, c+km); shift 0 is
    S(a, b, c); shift -1 gives (c-a-b)/(a-1) * S(a-1, b-k, c-k) without the
    affine term, which the caller owns.
    """
    a, b, c = complex(a), complex(b), complex(c)
    k = order
    if shift >= 1:
        pre = pochhammer(a, shift) / pochhammer(c - a - b - shift, shift)
        inner = split_outer_sum(order, a + shift, b + k * shift, c + k * shift, policy)
    elif shift == 0:
        pre = 1.0 + 0.0j
        inner = split_outer_sum(order, a, b, c, policy)
    elif shift == -1:
        pre = (c - a - b) / (a - 1.0)
        inner = split_outer_sum(order, a - 1.0, b - k, c - k, policy)
    else:
        raise ValueError("shift must be -1, 0, 1, 2 or 3")
    pre = complex(pre)
    return EvalResult(
        pre * inner.value, abs(pre) * inner.tail_bound, inner.terms_used, inner.converged
    )


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


def _split_series_at_1(fp: FamilyParams, policy: PrecisionPolicy) -> EvalResult:
    a, b, c = complex(fp.a), complex(fp.b), complex(fp.c)
    if not (c - a - b).real > 0:
        raise ConstraintError("requires Re(c-a-b) > 0")
    pref = family_prefactor(fp.order, a, b, c)
    s = split_outer_sum(fp.order, a, b, c, policy)
    value = pref * s.value
    tail = abs(pref) * s.tail_bound + _GAMMA_EVAL_REL * abs(value)
    return EvalResult(value, tail, s.terms_used, s.converged)


def four_f3_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the cubic-ladder 4F3 at z = 1."""
    if fp.family is not Family.SPLIT3:
        raise ValueError("four_f3_at_1 expects a SPLIT3 parameter set")
    return _split_series_at_1(fp, policy)


def five_f4_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the quartic-ladder 5F4 at z = 1."""
    if fp.family is not Family.SPLIT4:
        raise ValueError("five_f4_at_1 expects a SPLIT4 parameter set")
    return _split_series_at_1(fp, policy)


_PART_COEFFS: dict[int, tuple[tuple[int, float], ...]] = {
    1: ((1, 1.0), (0, 1.0)),
    2: ((2, 1.0), (1, 3.0), (0, 1.0)),
    3: ((3, 1.0), (2, 6.0), (1, 7.0), (0, 1.0)),
}


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
        pref = family_prefactor(k, a, b, c)
        value = 0.0 + 0.0j
        tail = 0.0
        terms = 0
        converged = True
        for shift, coeff in _PART_COEFFS[part]:
            blk = ladder_sum_block(k, a, b, c, shift, policy)
            value += coeff * blk.value
            tail += coeff * blk.tail_bound
            terms += blk.terms_used
            converged = converged and blk.converged
        value *= pref
        tail = abs(pref) * tail + _GAMMA_EVAL_REL * abs(value)
        return EvalResult(value, tail, terms, converged)

    if abs(a - 1.0) <= POLE_TOL:
        raise ConstraintError("part 4 requires a != 1")
    for m in range(1, k + 1):
        if abs(b - m) <= POLE_TOL:
            raise ConstraintError(f"part 4 requires b != {m}")
    if not (c.real > a.real + k - 1 and c.real > (a + b).real - 1):
        raise ConstraintError(f"part 4 requires c > max(a + {k - 1}, a + b - 1)")
    pref = family_prefactor(k, a, b, c)
    blk = ladder_sum_block(k, a, b, c, -1, policy)
    affine = pochhammer(c - k, k) / ((a - 1.0) * pochhammer(b - k, k))
    value = pref * blk.value - affine
    tail = abs(pref) * blk.tail_bound + _GAMMA_EVAL_REL * (abs(value) + abs(affine))
    return EvalResult(value, tail, blk.terms_used, blk.converged)


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

    def weighted(t: float) -> complex:
        return (t ** (p_exp - 1.0)) * ((1.0 - t) ** (q_exp - 1.0)) * kernel(t)

    pref = gamma_ratio([p_exp + q_exp], [p_exp, q_exp])
    seg_tol = 0.5 * quad_tol / max(abs(pref), 1e-300)

    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    # Left half, substituting away a t^(p-1) singularity when Re(p) < 1.
    if p_exp.real < 1.0:
        s0 = p_exp.real

        def left(u: float) -> complex:
            t = u ** (1.0 / s0)
            return (1.0 / s0) * (t ** (p_exp - s0)) * ((1.0 - t) ** (q_exp - 1.0)) * kernel(t)

        res = adaptive_quad(left, 0.0, 0.5 ** s0, seg_tol, budget)
    else:
        res = adaptive_quad(weighted, 0.0, 0.5, seg_tol, budget)
    total += res.value
    err += res.error
    evals += res.evaluations
    # Right half via s = 1 - t.
    if q_exp.real < 1.0:
        s1 = q_exp.real

        def right(u: float) -> complex:
            sv = u ** (1.0 / s1)
            t = 1.0 - sv
            return (1.0 / s1) * (sv ** (q_exp - s1)) * (t ** (p_exp - 1.0)) * kernel(t)

        res = adaptive_quad(right, 0.0, 0.5 ** s1, seg_tol, budget - evals)
    else:

        def right_plain(u: float) -> complex:
            return weighted(1.0 - u)

        res = adaptive_quad(right_plain, 0.0, 0.5, seg_tol, budget - evals)
    total += res.value
    err += res.error
    evals += res.evaluations

    value = pref * total
    tail = abs(pref) * err + inner_allow + _GAMMA_EVAL_REL * abs(value)
    return EvalResult(value, tail, evals, tail <= quad_tol + _GAMMA_EVAL_REL * abs(value))
