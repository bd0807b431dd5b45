"""Sufficient-condition certificates for the split-ladder functions and operators.

Every criterion is a weighted coefficient sum sum_{n>=1} w(n) |A_n| <= theta
K for a target class of threshold theta (``ClassSpec.threshold``), applied
to z * (split-ladder series) itself or to its Hadamard product with the
extremal coefficients of the source class.  The coefficient bounds go
through |(a)_n| <= (|a|)_n, so with T_n the ladder coefficients at (|a|,
|b|, c) and W_d = sum_{n>=0} (n+1)^d T_n (``closedforms.block_combination``),
every criterion reads

    alpha W_{D+s} + beta W_{D+s-1} <= theta K,

where the class weight alpha n^D + beta n^(D-1) gives (D, alpha, beta):

    starlike  n + lam - 1      (1, 1, lam - 1)
    convex    n (n + lam - 1)  (2, 1, lam - 1)
    ucv       n (2n - 1)       (2, 2, -1)
    sp        2n - 1           (1, 2, -1)

(the ucv and sp weights are Ronning's), the source multiplies A_n by n^s:
the function itself s = 0, S (|a_n| <= n) s = +1, R(beta) (|a_n| <=
2(1-beta)/n) s = -1, and K is 2, or 1 + 1/(2(1-beta)) for R(beta) (its
2(1-beta) divides out).  The left side is the weighted sum itself, so the
n = 1 term theta sits on both sides.

W_d converges for c > |a| + |b| + d, the hypothesis when D + s >= 1.  When
D + s = 0 (R(beta) into starlike or sp) W_-1 brings in the part-4 region
c > max(|a| + k - 1, |a| + |b| - 1); inside it, c <= |a| + |b| makes W_0
diverge, so the criterion fails: ``not_certified`` with lhs = +inf, no block
evaluated.  Exceptions to the derivation: the quartic R(beta) -> starlike
corollary at lam = 1 (W_0 alone, region c > |a| + |b|, tag ``.lambda1``);
no criterion from S into ucv (ValueError); the function source belongs to
``certify_function_class`` (ValueError from ``certify_operator_mapping``).

A verdict allows the bound of ``block_combination`` plus |Im lhs|
(rounding, the blocks are real) plus an absolute GAMMA_EVAL_REL floor.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .closedforms import block_combination
from .closedforms import ladder_sum_block  # noqa: F401  (re-exported)
from .errors import HypothesisError, NormalizationError
from .families import Family, FamilyParams
from .numcore import DEFAULT_POLICY, GAMMA_EVAL_REL, POLE_TOL, PrecisionPolicy
from .oracle import OracleReport
from .powerseries import NORMALIZATION_TOL, PowerSeries
from .series import term_ratios

# Class weight alpha n^D + beta n^(D-1) as lam -> (D, alpha, beta).
_CLASS_WEIGHTS: dict[ClassKind, Callable[[float], tuple[int, float, float]]] = {
    ClassKind.STARLIKE: lambda lam: (1, 1.0, lam - 1.0),
    ClassKind.CONVEX: lambda lam: (2, 1.0, lam - 1.0),
    ClassKind.UCV: lambda lam: (2, 2.0, -1.0),
    ClassKind.SP: lambda lam: (1, 2.0, -1.0),
}

# Power s of the source's extremal coefficient n^s.
_SOURCE_SHIFTS = {SourceKind.FUNCTION: 0, SourceKind.FULL_S: 1, SourceKind.RBETA: -1}


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
    oracle_report: OracleReport | None = None

    def with_oracle(self, report: OracleReport) -> "Certificate":
        return Certificate(
            self.lhs, self.rhs, self.margin, self.verdict,
            self.lhs_tail_bound, self.theorem_tag, report,
        )


def _decide(lhs: float, rhs: float, tail: float) -> Verdict:
    if lhs + tail <= rhs:
        return Verdict.CERTIFIED
    if lhs - tail > rhs:
        return Verdict.NOT_CERTIFIED
    return Verdict.INCONCLUSIVE


def _moduli(fp: FamilyParams) -> tuple[float, float, float]:
    return abs(complex(fp.a)), abs(complex(fp.b)), float(fp.c)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisError(msg)


def _part4_hypothesis(am: float, bm: float, c: float, k: int) -> None:
    _require(abs(am - 1.0) > POLE_TOL, "requires |a| != 1")
    for m in range(1, k + 1):
        _require(abs(bm - m) > POLE_TOL, f"requires |b| != {m}")
    _require(
        c > max(am + k - 1, am + bm - 1),
        f"requires c > max(|a| + {k - 1}, |a| + |b| - 1)",
    )


def _certificate(
    fp: FamilyParams, weights: Mapping[int, float], rhs: float, tag: str,
    policy: PrecisionPolicy,
) -> Certificate:
    am, bm, c = _moduli(fp)
    res = block_combination(fp.order, am, bm, c, weights, policy)
    lhs = float(res.value.real)
    tail = float(res.tail_bound + abs(res.value.imag) + GAMMA_EVAL_REL)
    return Certificate(lhs, rhs, rhs - lhs, _decide(lhs, rhs, tail), tail, tag)


def _criterion(
    fp: FamilyParams, source: SourceKind, spec: ClassSpec, growth: float, tag: str,
    policy: PrecisionPolicy,
) -> Certificate:
    """alpha W_d + beta W_{d-1} <= theta K with d = D + s, K = growth."""
    am, bm, c = _moduli(fp)
    theta = spec.threshold
    power, alpha, beta = _CLASS_WEIGHTS[spec.kind](theta)
    d = power + _SOURCE_SHIFTS[source]
    rhs = theta * growth
    if d >= 1:
        _require(c > am + bm + d, f"requires c > |a| + |b| + {d}")
    else:
        _part4_hypothesis(am, bm, c, fp.order)
        if c <= am + bm:  # W_0 diverges
            return Certificate(math.inf, rhs, -math.inf, Verdict.NOT_CERTIFIED, 0.0, tag)
    return _certificate(fp, {d: alpha, d - 1: beta}, rhs, tag, policy)


def certify_function_class(
    fp: FamilyParams, spec: ClassSpec, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Certificate:
    """Certificate that z * (split-ladder series) lies in the target class."""
    tag = f"{fp.family.name.lower()}.function.{spec.kind.value}"
    return _criterion(fp, SourceKind.FUNCTION, spec, 2.0, tag, policy)


def certify_operator_mapping(
    fp: FamilyParams,
    source: SourceClass,
    spec: ClassSpec,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certificate that the convolution operator maps the source class into the target."""
    if source.kind is SourceKind.FUNCTION:
        raise ValueError("use certify_function_class for the function itself")
    if source.kind is SourceKind.FULL_S and spec.kind is ClassKind.UCV:
        raise ValueError("no mapping criterion from the univalent class into ucv")
    tag = f"{fp.family.name.lower()}.{source.kind.value}.{spec.kind.value}"
    if source.kind is SourceKind.FULL_S:
        return _criterion(fp, source.kind, spec, 2.0, tag, policy)
    growth = 1.0 + 1.0 / (2.0 * (1.0 - float(source.beta)))
    if spec.kind is ClassKind.STARLIKE and fp.family is Family.SPLIT4 and spec.lam == 1.0:
        # The quartic corollary: lam = 1 drops W_-1 and relaxes the region.
        am, bm, c = _moduli(fp)
        _require(c > am + bm, "requires c > |a| + |b|")
        return _certificate(fp, {0: 1.0}, growth, tag + ".lambda1", policy)
    return _criterion(fp, source.kind, spec, growth, tag, policy)


def hypergeometric_coefficients(fp: FamilyParams, N: int) -> PowerSeries:
    """Taylor coefficients A_1..A_N of z * (split-ladder series) by stable recurrence."""
    if N < 1:
        raise ValueError("need N >= 1")
    # A_{n+1}/A_n is the series term ratio at z = 1 and index n - 1.
    ratios = term_ratios(fp.upper_params(), fp.lower_params(), 1.0, np.arange(N - 1))
    coeffs = np.concatenate(([1.0 + 0.0j], np.cumprod(ratios)))
    return PowerSeries(tuple(coeffs))


def hadamard_convolve(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Componentwise coefficient product, truncated to the shorter series."""
    for side, name in ((f, "left"), (g, "right")):
        if abs(side.coefficients[0] - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"{name} series is not normalized to a_1 = 1")
    n = min(f.order, g.order)
    return PowerSeries(
        tuple(f.coefficients[i] * g.coefficients[i] for i in range(n))
    )
