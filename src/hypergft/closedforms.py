"""Closed-form summation identities with certified evaluation.

The split-ladder functions at unit argument all reduce to one outer
expansion S derived from the Euler integral: with k the split order and
pref = Gamma(c) Gamma(c-a-b) / (Gamma(b) Gamma(c-b)), kF(k-1)(a, b/k ladder;
c/k ladder; 1) = pref * S(a, b, c).  Each order expands its factor in a u
with |u| <= 1/2 on [0, 1], so the terms decay like 2^(-j):

    k = 3: (1+t+t^2)^{-a} = (1+t)^{-a} (1-u)^{-a}, u = -t^2/(1+t),
        S = sum_j binom(-a, j) Gamma(b+2j)/Gamma(c-a+2j) 2F1(a+j, b+2j; c-a+2j; -1);
    k = 4: ((1+t)(1+t^2))^{-a} = (1+t)^{-3a} (1-u)^{-a}, u = 2t/(1+t)^2,
        S = sum_j (a)_j/j! 2^j Gamma(b+j)/Gamma(c-a+j) 2F1(3a+2j, b+j; c-a+j; -1).

Both inner 2F1 keep C - B = c - a - b.  The printed quartic formula expands
(1+t^2)^{-a} in powers of t^2, whose terms decay only polynomially.  The
printed cubic variant with terminating 2F1(-j, b+j; c-a+j; -1) factors
integrates a binomial series outside its disc of convergence: its terms
grow like 2^j (see the repository typo ledger).

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
sum_d coeff_d W_d and its bound are assembled: for one W_d by ``_ladder_sum``
(the closed forms at z = 1, W_0, and the lemmas) and for every certificate
(two adjacent powers); its gamma allowance scales with the blocks a
cancelling combination subtracts, not with the (possibly much smaller) result.

The batch loop of the series engine, ``series.chunked_rows``, sums the outer
expansions S of every block a combination needs as one batch, one row per
block (``_ladder_blocks``), and the inner 2F1(-1) values of each outer chunk,
of all rows, as one more (``_inner_2f1_batch``).  In both a row stops once its
own tail is certified, so a block is bit-identical alone or batched;
``split_outer_sum`` (G_0) and ``ladder_sum_block`` are its one-row views.  Both
batches read their chunk ramp from their policy, since both kinds of terms
decay like 2^(-j): a first chunk of round(log2(1/rel_tol)) + 8 terms, 48
outer ones at the default 1e-12 and 64 inner ones at ``_INNER_POLICY``'s
1e-17.  The inner tails are added to the outer bound, closed by a proven
outer ratio.  For real a, b, c (every certificate's point (|a|, |b|, c)
among them) the outer weights and the inner rows are float64, otherwise
complex128.

Inside ``with shared_blocks():`` each block G_m is evaluated once and its
result reused by every later combination at the same (order, a, b, c, m,
policy); ``hypergft sweep`` opens one around its rows, which share the point
(|a|, |b|, c) across a lambda or beta grid.  Nothing is kept across calls:
outside the block no memo exists, and a block that raised is evaluated again.
"""
from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import enum
import math
from typing import Iterator, Mapping

import numpy as np

from .errors import ConstraintError, PoleError
from .families import Family, FamilyParams, closed_form_region
from .numcore import (
    DEFAULT_POLICY,
    GAMMA_EVAL_REL,
    POLE_TOL,
    PrecisionPolicy,
    gamma_ratio,
    gamma_ratio_with_error,
    is_nonpositive_integer,
    pochhammer,
    terminal_index,
)
from .quadrature import DEFAULT_BUDGET, adaptive_quad
from .series import (
    EvalResult,
    PFQParams,
    chunked_rows,
    half_power,
    pfq_eval,
    term_ratios,
)

_INNER_POLICY = PrecisionPolicy(rel_tol=1e-17, max_terms=4096)

# Block results of the innermost open ``shared_blocks``; None outside one.
_SHARED_BLOCKS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "shared_blocks", default=None
)


class Section(enum.Enum):
    """Which ladder family a lemma belongs to."""

    SEC2 = "sec2"  # cubic ladder, order 3
    SEC3 = "sec3"  # quartic ladder, order 4

    @property
    def family(self) -> Family:
        return Family.SPLIT3 if self is Section.SEC2 else Family.SPLIT4


@dataclasses.dataclass(frozen=True)
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


def family_prefactor(a: complex, b: complex, c: complex) -> tuple[complex, float]:
    """Gamma(c) Gamma(c-a-b) / (Gamma(b) Gamma(c-b)) and its relative error bound."""
    return gamma_ratio_with_error([c, c - a - b], [b, c - b])


def _inner_2f1_batch(A: np.ndarray, m: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 2F1(A_j, B_j; C_j; -1) with C_j - B_j = m_j, one row per j,
    via the half-argument transform 2^(-A_j) 2F1(A_j, m_j; C_j; 1/2), summed as one
    ``chunked_rows`` batch whose rows stop one by one; returns (values, absolute
    tail bounds), float64 rows for real A, m and C.

    Row j's tail from index n is at most |t_n| / (1 - R_j(n)), where R_j is the
    envelope of ``series._geometric_ratio_envelope`` taken row-wise; no tail of
    row j is certified while R_j(n) >= 1.  A row stops once its tail meets
    ``_INNER_POLICY``, and later chunks (64, 64, 128, ... terms at its rel_tol)
    sum only the rows still live.  An exhausted budget returns the last certified
    tails, which the caller adds to its bound.
    """
    alpha_lo, alpha_hi = np.minimum(np.abs(A), np.abs(m)), np.maximum(np.abs(A), np.abs(m))
    beta_lo, beta_hi = np.minimum(C.real, 1.0), np.maximum(C.real, 1.0)
    t = np.ones(A.shape, np.result_type(A, m, C))  # first term of the next chunk, per row

    def chunk_terms(ns: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, float]:
        # run[:, i] = t * ratio_0 ... ratio_(i-1): the chunk's terms, then the next chunk's first
        run = np.empty((len(live), len(ns) + 1), t.dtype)
        run[:, 0] = t[live]
        ratios = A[live, None] + ns
        ratios *= m[live, None] + ns
        ratios /= C[live, None] + ns
        np.multiply(ratios, 0.5 / (ns + 1.0), out=run[:, 1:])
        np.multiply.accumulate(run, axis=1, out=run)
        t[live] = run[:, -1]
        return run[:, :-1], 0.0

    def certify_tail(n: int, terms: np.ndarray, live: np.ndarray) -> np.ndarray:
        env = 0.5 * np.maximum((n + alpha_lo[live]) / (n + beta_lo[live]), 1.0) * np.maximum(
            (n + alpha_hi[live]) / (n + beta_hi[live]), 1.0)
        ok = (env < 1.0) & (beta_lo[live] + n > 0.0)
        tails = np.full(len(live), np.inf)
        tails[ok] = np.abs(t[live[ok]]) / (1.0 - env[ok])
        return tails

    value, bound, _, _ = chunked_rows(chunk_terms, certify_tail, _INNER_POLICY, len(A))
    scale = half_power(A)
    return value * scale, bound * np.abs(scale)


def split_outer_sum(
    order: int,
    a: complex,
    b: complex,
    c: complex,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """The outer expansion S(a, b, c) for the given split order (3 or 4): the
    block G_0 of ``_ladder_blocks``.

    The order selects the term ratio and the inner 2F1 parameters; in both
    the term ratio tends to 1/2 in modulus.  The seed Gamma(b)/Gamma(c-a) multiplies
    value and bound at the end, so at large c no running product leaves the float
    range.  Term j is (a)_j/j! times the moment of u^j (|u| <= 1/2) of t^(b-1)
    (1-t)^(m-1) (1+t)^(-e a) dt/Gamma(m), m = c-a-b, once Re m > 0 and Re b + j > 0,
    so past the last index J the tail is at most M rho/(1-rho), rho = 1/2 max(1,
    (|a|+J)/(J+1)), with M = |term J| for real parameters, else (|a|)_J/J! times the
    |u|^J moment of the real measure (exponents Re b - 1, Re m - 1, -e Re a).  The
    sum ends early only where a is an exact nonpositive integer.
    """
    return _ladder_blocks(order, a, b, c, (0,), policy)[0][0]


def _ladder_blocks(
    order: int, a: complex, b: complex, c: complex, shifts: tuple[int, ...],
    policy: PrecisionPolicy,
) -> list[tuple[EvalResult, float]]:
    """The blocks G_m of ``ladder_sum_block`` for every m in shifts, each with the
    relative error bound of its seed Gamma(b_m)/Gamma(c_m - a_m).

    The outer sums S(a_m, b_m, c_m) = S(a+m, b+km, c+km) are one ``chunked_rows``
    batch, one row per block.  A row stops on its own: its value does not depend
    on the other rows.  Every row's inner 2F1(-1) values of a chunk are one
    ``_inner_2f1_batch``.
    """
    if order not in (3, 4):
        raise ValueError("split order must be 3 or 4")
    a, b, c = complex(a), complex(b), complex(c)
    pres, seeds, points = [], [], []
    for shift in shifts:
        if shift < -1:
            raise ValueError(f"shift must be at least -1, got {shift}")
        if shift == -1:
            if a == 1.0:
                raise PoleError("the prefactor (c-a-b)/(a-1) of G_-1 has a pole at a = 1")
            pre = (c - a - b) / (a - 1.0)
        else:
            den = pochhammer(c - a - b - shift, shift)
            if den == 0:
                raise PoleError(f"(c-a-b-m)_m vanishes at m = {shift}, c - a - b = {c - a - b}")
            pre = pochhammer(a, shift) / den
        ar, br, cr = a + shift, b + order * shift, c + order * shift
        if is_nonpositive_integer(br):
            raise PoleError(f"outer seed Gamma({br}) is at a pole")
        if is_nonpositive_integer(cr - ar):
            raise PoleError(f"outer seed 1/Gamma({cr - ar}) is at a pole")
        pres.append(complex(pre))
        seeds.append(gamma_ratio_with_error([br], [cr - ar]))
        points.append((ar, br, cr))
    real = not any(v.imag for point in points for v in point)  # float64 weights and inner rows
    a, b, c = (np.array([v.real if real else v for v in vs]) for vs in zip(*points))
    ca, m_fix = c - a, c - a - b
    # Term j carries Gamma(b+kj)/Gamma(c-a+kj) 2F1(e a + (3-k) j, b+kj; c-a+kj; -1).
    k, e = (2, 1) if order == 3 else (1, 3)
    sign = -1.0 if order == 3 else 2.0
    w_run = np.ones(len(a), a.dtype)
    # The sum ends exactly where a is an exact nonpositive integer: its weights past -a are 0.
    terminal = np.array([terminal_index(ar) for ar in a])

    def chunk_terms(js: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        al, bl, cal = a[live, None], b[live, None], ca[live, None]
        wr = (al + js) / (js + 1.0) * sign
        for i in range(k):
            wr = wr * (bl + k * js + i) / (cal + k * js + i)
        heads = np.ones((len(live), 1))
        w = w_run[live, None] * np.concatenate((heads, np.cumprod(wr[:, :-1], axis=1)), axis=1)
        w_run[live] = w[:, -1] * wr[:, -1]
        A, C = e * al + (3 - k) * js, cal + k * js
        m = np.repeat(m_fix[live], len(js)).reshape(w.shape)
        rows = w != 0.0  # zero weights (past a terminal index) need no inner row
        M, inner_tails = np.zeros(w.shape, w.dtype), np.zeros(w.shape)
        M[rows], inner_tails[rows] = _inner_2f1_batch(A[rows], m[rows], C[rows])
        return w * M, (np.abs(w) * inner_tails).sum(axis=-1)

    def outer_tail(n: int, terms: np.ndarray, live: np.ndarray) -> np.ndarray:
        J = n - 1
        rho = 0.5 * np.maximum(1.0, (np.abs(a[live]) + J) / (J + 1.0))
        ok = (m_fix[live].real > 0.0) & (b[live].real + J > 0.0) & (rho <= 0.95)
        major = np.abs(terms[:, -1])
        if not real and ok.any():  # over |seed| like the terms; order 4's u^J holds 2^J
            ar, br, car, mr = (v[live[ok]] for v in (a, b, ca, m_fix))
            M, tail = _inner_2f1_batch(e * ar.real + (3 - k) * J, mr.real, car.real + k * J)
            major[ok] = [
                abs(gamma_ratio([abs(ai) + J, bi.real + k * J, mi.real, ci],
                                [abs(ai), J + 1.0, ci.real + k * J, mi, bi]))
                * math.ldexp(float(Mi.real + ti), J * (order - 3))
                for ai, bi, ci, mi, Mi, ti in zip(ar, br, car, mr, M, tail)
            ]
        bounds = np.full(len(live), np.inf)
        bounds[ok] = major[ok] * rho[ok] / (1.0 - rho[ok])
        return bounds

    # The sum stops on its unseeded bound; |seed| <= 1 only tightens it.
    floors = [policy.abs_tol / max(abs(seed), 1.0) for seed, _ in seeds]
    sums = chunked_rows(chunk_terms, outer_tail, policy, len(a), terminal, np.array(floors))
    return [
        (EvalResult(pre * (seed * complex(v)), abs(pre) * (abs(seed) * float(t)), int(n), bool(ok)),
         rel)
        for pre, (seed, rel), v, t, n, ok in zip(pres, seeds, *sums)
    ]


def ladder_sum_block(
    order: int,
    a: complex,
    b: complex,
    c: complex,
    shift: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """Shifted building block G_shift of the weighted ladder sums: a one-row
    ``_ladder_blocks``.

    shift m >= 0 gives (a)_m/(c-a-b-m)_m * S(a+m, b+km, c+km), which is
    S(a, b, c) at m = 0; shift -1 gives (c-a-b)/(a-1) * S(a-1, b-k, c-k) without the
    affine term, which ``part4_affine`` gives.  PoleError where that
    prefactor divides by zero: (c-a-b-m)_m = 0, or a = 1 at shift -1.
    """
    return _ladder_blocks(order, a, b, c, (shift,), policy)[0][0]


@contextlib.contextmanager
def shared_blocks() -> Iterator[None]:
    """Evaluate each block G_m at most once until the with-block exits."""
    token = _SHARED_BLOCKS.set({})
    try:
        yield
    finally:
        _SHARED_BLOCKS.reset(token)


def block_combination(
    order: int, a: complex, b: complex, c: complex, weights: Mapping[int, float],
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """sum(coeff * W_d) over the {power d: coeff} entries of weights.

    The powers' G-combinations (``_PART_COEFFS``) are merged into one
    pref * sum(coeff * G_m), plus affine = -coeff_-1 * ``part4_affine``.
    The bound is |pref| sum |coeff| (tail_m + rel_m |G_m|) + GAMMA_EVAL_REL |affine|,
    rel_m the rounding of pref and of the seed of G_m (``gamma_ratio_with_error``);
    zero coefficients are skipped.  Blocks come from the memo of an open
    ``shared_blocks`` when it holds them.
    """
    a, b, c = complex(a), complex(b), complex(c)
    combo: dict[int, float] = {}
    for power, weight in weights.items():
        for shift, coeff in _PART_COEFFS[power]:
            combo[shift] = combo.get(shift, 0.0) + weight * coeff
    inv = weights.get(-1, 0.0)
    affine = -inv * part4_affine(order, a, b, c) if inv != 0.0 else 0.0
    pref, pref_rel = family_prefactor(a, b, c)
    memo = _SHARED_BLOCKS.get()
    if memo is None:  # outside shared_blocks nothing outlives this call
        memo = {}
    shifts = [m for m, coeff in combo.items() if coeff != 0.0]
    missing = tuple(m for m in shifts if (order, a, b, c, m, policy) not in memo)
    if missing:  # one batch; a raised error leaves no entry
        for m, blk in zip(missing, _ladder_blocks(order, a, b, c, missing, policy)):
            memo[order, a, b, c, m, policy] = blk
    value = 0.0 + 0.0j
    tail = 0.0
    terms = 0
    converged = True
    for m in shifts:
        coeff = combo[m]
        blk, seed_rel = memo[order, a, b, c, m, policy]
        value += coeff * blk.value
        tail += abs(coeff) * (blk.tail_bound + (pref_rel + seed_rel) * abs(blk.value))
        terms += blk.terms_used
        converged = converged and blk.converged
    bound = abs(pref) * tail + GAMMA_EVAL_REL * abs(affine)
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


def gauss_2f1_at_1(a: complex, b: complex, c: complex) -> EvalResult:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), bounded
    by its gamma rounding (``gamma_ratio_with_error``)."""
    a, b, c = complex(a), complex(b), complex(c)
    if not (c.real > b.real > 0):
        raise ConstraintError("requires Re(c) > Re(b) > 0")
    if not (c - a - b).real > 0:
        raise ConstraintError("requires Re(c-a-b) > 0")
    value, rel = gamma_ratio_with_error([c, c - a - b], [c - a, c - b])
    return EvalResult(value, rel * abs(value), 1, True)


def shpot_srivastava_3f2(a: float, b: float, c: float) -> EvalResult:
    """3F2(a, b, c; b+1, c+1; 1) for 0 < a < min(1, b+1, c+1), b != c.

    Equals bc/(c-b) * Gamma(1-a) [Gamma(b)/Gamma(1-a+b) - Gamma(c)/Gamma(1-a+c)];
    the terms cancel as c -> b, so each is bounded before the subtraction.
    """
    if not (a > 0 and b > 0 and c > 0):
        raise ConstraintError("requires a, b, c > 0")
    if abs(c - b) <= POLE_TOL * max(1.0, abs(b)):
        raise ConstraintError("requires c != b")
    if not a < min(1.0, b + 1.0, c + 1.0):
        raise ConstraintError("requires a < min(1, b+1, c+1)")
    term_b, rel_b = gamma_ratio_with_error([1.0 - a, b], [1.0 - a + b])
    term_c, rel_c = gamma_ratio_with_error([1.0 - a, c], [1.0 - a + c])
    pref = b * c / (c - b)
    value = pref * (term_b - term_c)  # 4 ulps below: c - b, the product, the difference
    bound = abs(pref) * (rel_b * abs(term_b) + rel_c * abs(term_c)) + 2.0**-50 * abs(value)
    return EvalResult(value, bound, 1, True)


def _ladder_sum(
    fp: FamilyParams, family: Family, d: int, name: str, policy: PrecisionPolicy
) -> EvalResult:
    if fp.family is not family:
        raise ValueError(f"{name} expects a {family.name} parameter set")
    violated = closed_form_region(fp.a, fp.b, fp.c, fp.order, d)
    if violated:
        raise ConstraintError(f"{name} requires {violated}")
    return block_combination(fp.order, fp.a, fp.b, fp.c, {d: 1.0}, policy)


def four_f3_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the cubic-ladder 4F3 at z = 1: W_0 of the order-3 ladder."""
    return _ladder_sum(fp, Family.SPLIT3, 0, "four_f3_at_1", policy)


def five_f4_at_1(fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Closed form of the quartic-ladder 5F4 at z = 1: W_0 of the order-4 ladder."""
    return _ladder_sum(fp, Family.SPLIT4, 0, "five_f4_at_1", policy)


def lemma_closed_form(
    lemma_id: LemmaId, fp: FamilyParams, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """Right-hand side of the weighted ladder-sum identities, parts 1-4: W_d, d = lemma_id.power."""
    name = f"lemma-{lemma_id.section.value}-part{lemma_id.part}"
    return _ladder_sum(fp, lemma_id.section.family, lemma_id.power, name, policy)


# Euler level -> the (p, q) shape it requires; None: ``pfq`` takes any p <= q + 1.
EULER_LEVELS: dict[str, tuple[int, int] | None] = {
    "2f1": (2, 1), "3f2quad": (3, 2), "4f3": (4, 3), "pfq": None,
}


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

    level fixes the shape of the input (``EULER_LEVELS``: 2f1, 3f2quad and 4f3
    one each, pfq any p <= q + 1), and the input picks the kernel:
      3f2quad - the half-ladder 3F2 against (1 - z t^2)^(-a)
      a 2F1   - over (upper[0], lower[0]) against the closed kernel
                (1 - z t)^(-upper[1]) (DLMF 15.6.1), at level 2f1 or pfq
      others  - the inner (p-1)F(q-1) at z*t
    Integration always pairs the first upper with the first lower parameter;
    endpoint power singularities are removed by the substitution t = u^(1/s).
    Every kernel is evaluated on a whole quadrature rule's array of nodes.
    The inner series is summed once, at z: its term n at z*t is t^n times the
    term at z, so for every node t in [0, 1] the same N terms (the running
    product of the ratios at z, each times t) leave at most the certified tail
    at z.  That tail times |pref| B(Re p, Re q), the integral of the weight's
    modulus, is added to the bound, and an inner sum that did not converge
    makes the result converged=False.  quad_tol must be finite and positive.
    """
    if not 0 < quad_tol < math.inf:
        raise ValueError(f"quad_tol must be finite and positive, got {quad_tol}")
    lv = level.strip().lower()
    if lv not in EULER_LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {tuple(EULER_LEVELS)}")
    shape = EULER_LEVELS[lv]
    if shape is not None and (params.p, params.q) != shape:
        raise ConstraintError(f"{lv} needs {shape[0]} upper and {shape[1]} lower parameters")
    z = complex(z)

    if lv == "3f2quad":
        bb = _require_half_ladder((params.upper[1], params.upper[2]), "upper ladder")
        cc = _require_half_ladder((params.lower[0], params.lower[1]), "lower ladder")
        p_exp, q_exp = bb, cc - bb
    else:
        if params.p > params.q + 1:
            raise ConstraintError("integral representation needs p <= q+1")
        if params.p < 2:
            raise ConstraintError("need at least two upper parameters")
        p_exp = params.upper[0]
        q_exp = params.lower[0] - params.upper[0]
    if not (q_exp.real > 0 and p_exp.real > 0):
        raise ConstraintError("requires Re(first lower) > Re(first upper) > 0")
    if params.p == params.q + 1 and abs(z) >= 1.0:
        raise ConstraintError("requires |z| < 1 when p = q + 1")

    inner = EvalResult(1.0, 0.0, 1, True)  # a closed kernel has no inner series
    if lv == "3f2quad":
        a_pow = params.upper[0]

        def kernel(t: np.ndarray) -> np.ndarray:
            return (1.0 - z * t * t) ** (-a_pow)
    elif (params.p, params.q) == (2, 1):
        a_pow = params.upper[1]

        def kernel(t: np.ndarray) -> np.ndarray:
            return (1.0 - z * t) ** (-a_pow)
    else:
        upper, lower = params.upper[1:], params.lower[1:]
        inner_policy = dataclasses.replace(policy, rel_tol=min(policy.rel_tol, quad_tol * 1e-3))
        inner = pfq_eval(PFQParams(upper, lower), z, inner_policy)
        ratios = term_ratios(upper, lower, z, np.arange(inner.terms_used - 1))

        def kernel(t: np.ndarray) -> np.ndarray:
            # run[i, n] = term n at z t_i: 1, then the running product of ratio * t_i
            run = np.empty((len(t), len(ratios) + 1), complex)
            run[:, 0] = 1.0
            np.multiply(t[:, None], ratios, out=run[:, 1:])
            np.multiply.accumulate(run, axis=1, out=run)
            return run.sum(axis=1)

    pref = gamma_ratio([p_exp + q_exp], [p_exp, q_exp])
    seg_tol = 0.5 * quad_tol / max(abs(pref), 1e-300)

    # Left half with t = u^(1/s0), right half with 1 - t = u^(1/s1); s < 1
    # removes an endpoint power singularity, s = 1 is the plain integrand.
    s0 = min(p_exp.real, 1.0)
    s1 = min(q_exp.real, 1.0)

    def left(u: np.ndarray) -> np.ndarray:
        t = u ** (1.0 / s0)
        return (1.0 / s0) * (t ** (p_exp - s0)) * ((1.0 - t) ** (q_exp - 1.0)) * kernel(t)

    def right(u: np.ndarray) -> np.ndarray:
        sv = u ** (1.0 / s1)
        t = 1.0 - sv
        return (1.0 / s1) * (sv ** (q_exp - s1)) * (t ** (p_exp - 1.0)) * kernel(t)

    left_res = adaptive_quad(left, 0.0, 0.5 ** s0, seg_tol, budget)
    right_res = adaptive_quad(right, 0.0, 0.5 ** s1, seg_tol, budget - left_res.evaluations)
    total = left_res.value + right_res.value
    err = left_res.error + right_res.error
    evals = left_res.evaluations + right_res.evaluations

    # |int w (K - K_N)| <= tail * int t^(Re p - 1) (1 - t)^(Re q - 1) dt = tail * B(Re p, Re q)
    kernel_err = 0.0
    if inner.tail_bound:
        x, y = p_exp.real, q_exp.real
        kernel_err = inner.tail_bound * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    value = pref * total
    tail = abs(pref) * (err + kernel_err) + GAMMA_EVAL_REL * abs(value)
    converged = inner.converged and tail <= quad_tol + GAMMA_EVAL_REL * abs(value)
    return EvalResult(value, tail, evals, converged)
