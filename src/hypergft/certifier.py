"""Sufficient-condition certificates for the split-ladder functions and operators.

Every criterion is a weighted coefficient sum sum_{n>=1} w(n) |A_n| <= theta
K for a target class of threshold theta (``ClassSpec.threshold``), applied
to the Hadamard product of z * (split-ladder series) with the extremal
coefficients of the source class.  The function itself is the source
z/(1-z), whose coefficients 1 are the identity of that product, so
``certify_function_class`` is ``certify_operator_mapping`` at that source.
The coefficient bounds go through |(a)_n| <= (|a|)_n, so with T_n the
ladder coefficients at (|a|, |b|, c) and W_d = sum_{n>=0} (n+1)^d T_n
(``closedforms.block_combination``), every criterion reads

    alpha W_{D+s} + beta W_{D+s-1} <= theta K.

The class weight alpha n^D + beta n^(D-1) (``ClassSpec.weight``) comes from
two regions and the Alexander lift: the lambda-disc gives n + lam - 1 and
Ronning's parabola 2n - 1, and the lift f -> z f' (convex, ucv) multiplies
by n.  The source's extremal modulus scale * n^s (``SourceClass``) shifts
the power: the function itself s = 0, S (|a_n| <= n) s = +1, R(beta)
(|a_n| <= 2(1-beta)/n) s = -1; the scale divides out, so K = 1 + 1/scale:
2, or 1 + 1/(2(1-beta)) for R(beta).  The left side is the weighted sum
itself, so the n = 1 term theta sits on both sides.  Every term of it is at
least 0, so an evaluation whose lhs + bound falls below theta is wrong: such a
verdict is ``inconclusive``, never ``certified``.

W_d converges for c > |a| + |b| + d (``families.weighted_sum_region`` at
(|a|, |b|)), the hypothesis when D + s >= 1.  When
D + s = 0 (R(beta) into starlike or sp) W_-1 brings in the part-4 region
and poles (``families.part4_pole``); inside the region, c <= |a| + |b| makes
W_0 diverge, so the criterion fails: ``not_certified`` with lhs = +inf, no
block evaluated.  Exceptions to the derivation: the quartic R(beta) ->
starlike corollary at lam = 1 (W_0 alone, region c > |a| + |b|, tag
``.lambda1``); no criterion from S into ucv (ValueError).

A verdict allows the bound of ``block_combination`` plus |Im lhs|
(rounding, the blocks are real) plus an absolute GAMMA_EVAL_REL floor.

The oracles check a certificate on a truncation: ``hypergeometric_coefficients``
gives the coefficient array a_1..a_N of z * (split-ladder series), a 1-D
numpy array with a_1 = 1, and ``hadamard_convolve`` multiplies it with the
source's ``oracle.worst_case_coefficients`` elementwise.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .closedforms import block_combination
from .closedforms import ladder_sum_block  # noqa: F401  (re-exported)
from .errors import HypothesisError
from .families import Family, FamilyParams, closed_form_region, weighted_sum_region
from .numcore import DEFAULT_POLICY, GAMMA_EVAL_REL, PrecisionPolicy
from .oracle import normalized_coefficients


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    lhs: float
    rhs: float
    margin: float
    verdict: Verdict
    lhs_tail_bound: float
    theorem_tag: str


def _decide(lhs: float, rhs: float, tail: float) -> Verdict:
    if lhs + tail <= rhs:
        return Verdict.CERTIFIED
    if lhs - tail > rhs:
        return Verdict.NOT_CERTIFIED
    return Verdict.INCONCLUSIVE


def _moduli(fp: FamilyParams) -> tuple[float, float, float]:
    return abs(complex(fp.a)), abs(complex(fp.b)), float(fp.c)


def _hypothesis(am: float, bm: float, c: float, k: int, d: int) -> None:
    """The closed form of W_d holds at (|a|, |b|, c) (``families.closed_form_region``)."""
    violated = closed_form_region(am, bm, c, k, d)
    if violated:
        raise HypothesisError(f"requires {violated} (a, b taken as |a|, |b|)")


def _certificate(
    fp: FamilyParams, weights: Mapping[int, float], rhs: float, theta: float, tag: str,
    policy: PrecisionPolicy,
) -> Certificate:
    am, bm, c = _moduli(fp)
    res = block_combination(fp.order, am, bm, c, weights, policy)
    lhs = float(res.value.real)
    tail = float(res.tail_bound + abs(res.value.imag) + GAMMA_EVAL_REL)
    # the n = 1 term alone is theta: a smaller lhs + tail is a wrong evaluation
    verdict = _decide(lhs, rhs, tail) if lhs + tail >= theta else Verdict.INCONCLUSIVE
    return Certificate(lhs, rhs, rhs - lhs, verdict, tail, tag)


def certify_function_class(
    fp: FamilyParams, spec: ClassSpec, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Certificate:
    """Certificate that z * (split-ladder series) lies in the target class."""
    return certify_operator_mapping(fp, SourceClass(SourceKind.FUNCTION), spec, policy)


def certify_operator_mapping(
    fp: FamilyParams,
    source: SourceClass,
    spec: ClassSpec,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certificate that the convolution operator maps the source class into the
    target: alpha W_d + beta W_{d-1} <= theta K with d = D + s, K = 1 + 1/scale."""
    if source.kind is SourceKind.FULL_S and spec.kind is ClassKind.UCV:
        raise ValueError("no mapping criterion from the univalent class into ucv")
    tag = f"{fp.family.name.lower()}.{source.kind.value}.{spec.kind.value}"
    am, bm, c = _moduli(fp)
    rhs = spec.threshold * (1.0 + 1.0 / source.scale)
    if (
        source.kind is SourceKind.RBETA and spec.kind is ClassKind.STARLIKE
        and fp.family is Family.SPLIT4 and spec.lam == 1.0
    ):
        # The quartic corollary: lam = 1 drops W_-1 and relaxes the region.
        _hypothesis(am, bm, c, fp.order, 0)
        return _certificate(fp, {0: 1.0}, rhs, spec.threshold, tag + ".lambda1", policy)
    power, alpha, beta = spec.weight
    d = power + source.shift
    _hypothesis(am, bm, c, fp.order, d if d >= 1 else -1)
    if d == 0 and weighted_sum_region(am, bm, c, fp.order, 0):  # W_0 diverges
        return Certificate(math.inf, rhs, -math.inf, Verdict.NOT_CERTIFIED, 0.0, tag)
    return _certificate(fp, {d: alpha, d - 1: beta}, rhs, spec.threshold, tag, policy)


def hypergeometric_coefficients(fp: FamilyParams, N: int) -> np.ndarray:
    """Coefficient array A_1..A_N of z * (split-ladder series) by stable recurrence:
    float64 when every parameter is real (imaginary part exactly 0), else complex128."""
    if N < 1:
        raise ValueError("need N >= 1")
    # A_{n+1}/A_n is the series term ratio at z = 1 and index n - 1.
    upper, lower, ns = fp.upper_params(), fp.lower_params(), np.arange(N - 1)
    if not any(v.imag for v in upper):  # float64; the lower ladder (c+j)/k is real
        upper = tuple(u.real for u in upper)
    ratios = np.ones(N - 1)
    for u in upper:
        ratios = ratios * (u + ns)
    # Each division is a product with the reciprocal, as complex128 divides by a value
    # with zero imaginary part: in either dtype, the bits of the complex128 ratios of
    # ``series.term_ratios``, up to the sign of an exact zero.
    for v in [l.real for l in lower] + [1.0]:  # the last is the (n+1) of the factorial
        ratios = ratios * (1.0 / (v + ns))
    return np.concatenate(([1.0], np.cumprod(ratios)))


def hadamard_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Componentwise product of two coefficient arrays a_1..a_N, truncated to
    the shorter one."""
    f = normalized_coefficients(f, "left series")
    g = normalized_coefficients(g, "right series")
    n = min(len(f), len(g))
    return f[:n] * g[:n]
