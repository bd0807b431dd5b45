"""Sufficient-condition certificates for the split-ladder functions and operators.

Every certificate compares an assembled left side against a constant right
side.  The left sides are linear combinations of the same shifted
building-block sums used by the closed-form identities, taken at the moduli
|a|, |b| (the coefficient bounds go through |(a)_n| <= (|a|)_n), so any
reconciliation applied there propagates here unchanged.

Blocks are indexed by shift m; with pref = Gamma(c)Gamma(c-|a|-|b|) /
(Gamma(|b|)Gamma(c-|b|)) and G_m the shift-m block,

  function -> starlike   pref (G_1 + lam G_0)                        <= 2 lam
  function -> convex     pref (G_2 + (lam+2) G_1 + lam G_0)          <= 2 lam
  function -> ucv        pref (2 G_2 + 5 G_1 + G_0)                  <= 2
  function -> sp         pref (2 G_1 + G_0)                          <= 2
  rbeta    -> starlike   pref ((lam-1) G_-1 + G_0)                   <= lam (1 + 1/(2(1-beta))) + (lam-1) corr
  rbeta    -> convex     pref (G_1 + lam G_0)                        <= lam (1 + 1/(2(1-beta)))
  rbeta    -> ucv        pref (2 G_1 + G_0)                          <= 1 + 1/(2(1-beta))
  rbeta    -> sp         pref (2 G_0 - G_-1) + corr                  <= 1 + 1/(2(1-beta))
  s        -> starlike   pref (G_2 + (lam+2) G_1 + lam G_0)          <= 2 lam
  s        -> convex     pref (G_3 + (lam+5) G_2 + (3 lam+4) G_1 + lam G_0) <= 2 lam
  s        -> sp         pref (2 G_2 + 5 G_1 + G_0)                  <= 2

with corr = (c-k)_k / ((|a|-1)(|b|-k)_k).  At lam = 1 the quartic
rbeta -> starlike case drops its G_-1 term and the hypothesis relaxes to
c > |a| + |b|.

Each left side and its bound come from ``closedforms.block_combination``;
a verdict allows that bound plus |Im lhs| (rounding, the blocks are real)
plus an absolute GAMMA_EVAL_REL floor.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .closedforms import block_combination, part4_affine
from .closedforms import ladder_sum_block  # noqa: F401  (re-exported)
from .errors import HypothesisError, NormalizationError
from .families import Family, FamilyParams
from .numcore import DEFAULT_POLICY, GAMMA_EVAL_REL, POLE_TOL, PrecisionPolicy
from .oracle import OracleReport
from .powerseries import NORMALIZATION_TOL, PowerSeries
from .series import term_ratios


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
    fp: FamilyParams, combo: list[tuple[int, float]], rhs: float, tag: str,
    policy: PrecisionPolicy, affine: float = 0.0,
) -> Certificate:
    am, bm, c = _moduli(fp)
    res = block_combination(fp.order, am, bm, c, combo, policy, affine)
    lhs = float(res.value.real)
    tail = float(res.tail_bound + abs(res.value.imag) + GAMMA_EVAL_REL)
    return Certificate(lhs, rhs, rhs - lhs, _decide(lhs, rhs, tail), tail, tag)


def certify_function_class(
    fp: FamilyParams, spec: ClassSpec, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Certificate:
    """Certificate that z * (split-ladder series) lies in the target class."""
    am, bm, c = _moduli(fp)
    lam = spec.lam if spec.lam is not None else 1.0
    tag = f"{fp.family.name.lower()}.function.{spec.kind.value}"
    if spec.kind is ClassKind.STARLIKE:
        _require(c > am + bm + 1, "requires c > |a| + |b| + 1")
        combo = [(1, 1.0), (0, lam)]
        rhs = 2.0 * lam
    elif spec.kind is ClassKind.CONVEX:
        _require(c > am + bm + 2, "requires c > |a| + |b| + 2")
        combo = [(2, 1.0), (1, lam + 2.0), (0, lam)]
        rhs = 2.0 * lam
    elif spec.kind is ClassKind.UCV:
        _require(c > am + bm + 2, "requires c > |a| + |b| + 2")
        combo = [(2, 2.0), (1, 5.0), (0, 1.0)]
        rhs = 2.0
    else:  # SP
        _require(c > am + bm + 1, "requires c > |a| + |b| + 1")
        combo = [(1, 2.0), (0, 1.0)]
        rhs = 2.0
    return _certificate(fp, combo, rhs, tag, policy)


def certify_operator_mapping(
    fp: FamilyParams,
    source: SourceClass,
    spec: ClassSpec,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certificate that the convolution operator maps the source class into the target."""
    if source.kind is SourceKind.FUNCTION:
        raise ValueError("use certify_function_class for the function itself")
    am, bm, c = _moduli(fp)
    k = fp.order
    lam = spec.lam if spec.lam is not None else 1.0
    tag = f"{fp.family.name.lower()}.{source.kind.value}.{spec.kind.value}"
    affine = 0.0

    if source.kind is SourceKind.RBETA:
        beta = float(source.beta)
        growth = 1.0 + 1.0 / (2.0 * (1.0 - beta))
        if spec.kind is ClassKind.STARLIKE:
            if fp.family is Family.SPLIT4 and lam == 1.0:
                # lam = 1 drops the shift -1 block and relaxes the region.
                _require(c > am + bm, "requires c > |a| + |b|")
                combo = [(0, 1.0)]
                rhs = growth
                tag += ".lambda1"
            else:
                _part4_hypothesis(am, bm, c, k)
                combo = [(-1, lam - 1.0), (0, 1.0)]
                rhs = lam * growth + (lam - 1.0) * part4_affine(k, am, bm, c)
        elif spec.kind is ClassKind.CONVEX:
            _require(c > am + bm + 1, "requires c > |a| + |b| + 1")
            combo = [(1, 1.0), (0, lam)]
            rhs = lam * growth
        elif spec.kind is ClassKind.UCV:
            _require(c > am + bm + 1, "requires c > |a| + |b| + 1")
            combo = [(1, 2.0), (0, 1.0)]
            rhs = growth
        else:  # SP
            _part4_hypothesis(am, bm, c, k)
            combo = [(0, 2.0), (-1, -1.0)]
            affine = part4_affine(k, am, bm, c)
            rhs = growth
    else:  # FULL_S
        if spec.kind is ClassKind.STARLIKE:
            _require(c > am + bm + 2, "requires c > |a| + |b| + 2")
            combo = [(2, 1.0), (1, lam + 2.0), (0, lam)]
            rhs = 2.0 * lam
        elif spec.kind is ClassKind.CONVEX:
            _require(c > am + bm + 3, "requires c > |a| + |b| + 3")
            combo = [(3, 1.0), (2, lam + 5.0), (1, 3.0 * lam + 4.0), (0, lam)]
            rhs = 2.0 * lam
        elif spec.kind is ClassKind.SP:
            _require(c > am + bm + 2, "requires c > |a| + |b| + 2")
            combo = [(2, 2.0), (1, 5.0), (0, 1.0)]
            rhs = 2.0
        else:
            raise ValueError("no mapping criterion from the univalent class into ucv")

    return _certificate(fp, combo, rhs, tag, policy, affine)


def hypergeometric_coefficients(fp: FamilyParams, N: int) -> PowerSeries:
    """Taylor coefficients A_1..A_N of z * (split-ladder series) by stable recurrence."""
    if N < 1:
        raise ValueError("need N >= 1")
    if N == 1:
        return PowerSeries((1.0,))
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
