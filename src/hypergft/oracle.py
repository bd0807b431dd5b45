"""Independent ground-truth checks for class membership.

Two kinds of evidence, deliberately unsophisticated:

* coefficient sums - the classical sufficient conditions, evaluated on the
  truncated coefficient vector plus a geometric tail estimate;
* disc sampling - the defining inequalities themselves, evaluated by Horner
  on a radial-angular grid.  Sampling a truncation is a falsifier near the
  boundary, not a prover, so reports carry a truncation disclaimer when the
  dropped coefficients could still matter.

``IDENTITIES`` registers the checked identities behind ``hypergft verify``
and ``identity_residual``.
"""
from __future__ import annotations

import cmath
import enum
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import closedforms
from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .errors import (
    DivisionNearZeroError,
    InsufficientOrderError,
    NormalizationError,
)
from .families import Family, FamilyParams
from .numcore import DEFAULT_POLICY, PrecisionPolicy, pochhammer_split_residual
from .powerseries import PowerSeries
from .series import PFQParams, pfq_eval, weighted_pochhammer_sum


class CheckKind(enum.Enum):
    COEFF_SUM = "coeff_sum"
    DISC_SAMPLE = "disc_sample"


@dataclass(frozen=True)
class GridSpec:
    """Radial-angular sampling grid, Chebyshev-clustered toward the boundary."""

    n_radii: int = 64
    n_angles: int = 256
    r_max: float = 0.999
    disclaimer_tol: float = 1e-8

    def radii(self) -> np.ndarray:
        i = np.arange(1, self.n_radii + 1)
        return self.r_max * np.sin(0.5 * np.pi * i / self.n_radii)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class OracleReport:
    check: CheckKind
    passed: bool
    worst_value: float
    worst_location: complex | int
    budget: int
    skipped: int = 0
    truncation_warning: bool = False


def _require_normalized(f: PowerSeries) -> None:
    if not f.is_normalized:
        raise NormalizationError("series must be normalized to a_1 = 1")


def _weights(spec: ClassSpec, ns: np.ndarray) -> np.ndarray:
    lam = spec.lam if spec.lam is not None else 1.0
    if spec.kind is ClassKind.STARLIKE:
        return ns + lam - 1.0
    if spec.kind is ClassKind.CONVEX:
        return ns * (ns + lam - 1.0)
    if spec.kind is ClassKind.UCV:
        return ns * (2.0 * ns - 1.0)
    return 2.0 * ns - 1.0


def coefficient_condition_check(f: PowerSeries, spec: ClassSpec) -> OracleReport:
    """Weighted coefficient sum against the class threshold.

    Passing requires sum + tail <= threshold, where the tail extrapolates the
    last term ratio geometrically; a partial sum already above the threshold
    fails outright (adding the tail can only hurt).
    """
    _require_normalized(f)
    if f.order < 2:
        terms = np.zeros(0)
    else:
        ns = np.arange(2, f.order + 1, dtype=float)
        mods = np.abs(np.asarray(f.coefficients[1:], dtype=complex))
        terms = _weights(spec, ns) * mods
    total = float(terms.sum())
    threshold = spec.threshold
    worst_idx = int(np.argmax(terms)) + 2 if terms.size else 1
    if total > threshold:
        return OracleReport(CheckKind.COEFF_SUM, False, total, worst_idx, f.order)
    if terms.size < 2 or terms[-1] == 0.0:
        tail = 0.0
    else:
        prev = terms[terms > 0]
        if prev.size < 2:
            tail = 0.0
        else:
            ratio = float(prev[-1] / prev[-2])
            if ratio >= 1.0:
                raise InsufficientOrderError(
                    "coefficient terms are not decaying; tail cannot be bounded"
                )
            tail = float(prev[-1]) * ratio / (1.0 - ratio)
    total_with_tail = total + tail
    return OracleReport(
        CheckKind.COEFF_SUM,
        total_with_tail <= threshold,
        total_with_tail,
        worst_idx,
        f.order,
    )


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def disc_sample_check(
    f: PowerSeries, spec: ClassSpec, grid: GridSpec = DEFAULT_GRID
) -> OracleReport:
    """Evaluate the defining inequality of the class on the sampling grid.

    Defect conventions (pass means defect <= threshold everywhere):
      starlike / convex : |z g'/g - 1|            vs lambda   (g = f or z f')
      ucv               : |w| - Re(w), w = z f''/f'  vs 1
      sp                : |v-1| - Re(v-1), v = z f'/f vs 1
    Sample points where the denominator vanishes are skipped and counted.
    """
    _require_normalized(f)
    rr = grid.radii()
    th = grid.angles()
    z = rr[:, None] * np.exp(1j * th[None, :])

    a = np.asarray(f.coefficients, dtype=complex)
    # Trailing coefficients below 1e-18 of the largest cannot move any defect
    # beyond double rounding; dropping them keeps Horner cost proportional to
    # the effective order.
    mags = np.abs(a)
    keep = np.nonzero(mags > 1e-18 * max(1.0, float(mags.max())))[0]
    n_eff = int(keep[-1]) + 1 if keep.size else 1
    a = a[:n_eff]
    ns = np.arange(1, n_eff + 1, dtype=float)
    lam = spec.lam if spec.lam is not None else 1.0

    if spec.kind in (ClassKind.STARLIKE, ClassKind.CONVEX, ClassKind.SP):
        if spec.kind is ClassKind.CONVEX:
            g = a * ns  # coefficients of z f'; g_1 = a_1 = 1 keeps normalization
        else:
            g = a
        gn = np.arange(1, g.size + 1, dtype=float)
        g_over_z = _horner(g, z)        # sum g_n z^(n-1) = g(z)/z
        g_prime = _horner(g * gn, z)    # sum n g_n z^(n-1) = g'(z)
        valid = np.abs(g_over_z) > DEFAULT_POLICY.abs_tol
        with np.errstate(divide="ignore", invalid="ignore"):
            w = g_prime / g_over_z      # = z g'(z)/g(z)
        if spec.kind is ClassKind.SP:
            defect = np.abs(w - 1.0) - (w - 1.0).real
            threshold = 1.0
        else:
            defect = np.abs(w - 1.0)
            threshold = lam
    else:  # UCV
        f_prime = _horner(a * ns, z)                     # sum n a_n z^(n-1) = f'(z)
        fpp_coeffs = a[1:] * ns[1:] * (ns[1:] - 1.0)     # f''(z) = sum n(n-1) a_n z^(n-2)
        f_pp = _horner(fpp_coeffs, z) if fpp_coeffs.size else np.zeros_like(z)
        valid = np.abs(f_prime) > DEFAULT_POLICY.abs_tol
        with np.errstate(divide="ignore", invalid="ignore"):
            w = z * f_pp / f_prime
        defect = np.abs(w) - w.real
        threshold = 1.0

    skipped = int((~valid).sum())
    if skipped == valid.size:
        raise DivisionNearZeroError("every sample point sits on a zero of the denominator")
    defect = np.where(valid, defect, -np.inf)
    flat = int(np.argmax(defect))
    worst = float(defect.flat[flat])
    location = complex(z.flat[flat])

    a_last = abs(f.coefficients[-1])
    warning = grid.r_max * (f.order + 1) * a_last > grid.disclaimer_tol
    return OracleReport(
        CheckKind.DISC_SAMPLE,
        worst <= threshold,
        worst,
        location,
        int(valid.size),
        skipped=skipped,
        truncation_warning=warning,
    )


def worst_case_coefficients(source: SourceClass, N: int) -> PowerSeries:
    """Extremal modulus sequence of the source class: 2(1-beta)/n or n."""
    if N < 2:
        raise ValueError("need N >= 2")
    ns = np.arange(2, N + 1, dtype=float)
    if source.kind is SourceKind.RBETA:
        coeffs = 2.0 * (1.0 - source.beta) / ns
    elif source.kind is SourceKind.FULL_S:
        coeffs = ns.copy()
    else:
        raise ValueError("worst-case coefficients exist for rbeta and s sources only")
    return PowerSeries((1.0,) + tuple(coeffs))


# ---------------------------------------------------------------- identities


class IdentityPoint(NamedTuple):
    """Plain parameters: only sides that need a ladder build (and so check) a
    FamilyParams, which keeps Gauss at a = 0.  k is the ladder or splitting
    order, n the splitting length, z the Euler-integral argument."""

    a: complex
    b: complex
    c: float
    k: int
    n: int = 16
    z: complex = 0.3


@dataclass(frozen=True)
class Identity:
    """A checked identity: ``sample`` draws a point of its validity region,
    ``residual`` is the relative difference of its two independently computed
    sides there, ``family`` the ladder of a point given by (a, b, c) alone."""

    tolerance: float
    family: Family
    sample: Callable[[random.Random], IdentityPoint]
    residual: Callable[[IdentityPoint, PrecisionPolicy], float]


def _reldiff(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _ladder(p: IdentityPoint) -> FamilyParams:
    return FamilyParams(p.a, p.b, p.c, Family(p.k))


def _ladder_params(p: IdentityPoint) -> PFQParams:
    fp = _ladder(p)
    return PFQParams(fp.upper_params(), fp.lower_params())


def _above(a_range, b_range, gap, k):
    """Sampler: a and b from their ranges, c above a + b by a draw from gap."""

    def sample(rng):
        a = rng.uniform(*a_range)
        b = rng.uniform(*b_range)
        return IdentityPoint(a, b, a + b + rng.uniform(*gap), k)

    return sample


def _sample_pochhammer_split(rng):
    a = cmath.rect(rng.uniform(0.05, 10.0), rng.uniform(-math.pi, math.pi))
    return IdentityPoint(a, 1.0, 4.0, rng.randint(1, 5), rng.randint(0, 30))


def _gauss(p, policy):
    closed = closedforms.gauss_2f1_at_1(p.a, p.b, p.c)
    series = pfq_eval(PFQParams((p.a, p.b), (p.c,)), 1.0, policy)
    return _reldiff(series.value, closed)


def _sample_shpot_srivastava(rng):
    a, b, c = rng.uniform(0.05, 0.5), rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
    while abs(c - b) < 0.05:
        c = rng.uniform(0.1, 4.0)
    return IdentityPoint(a, b, c, 3)


def _shpot_srivastava(p, policy):
    a, b, c = complex(p.a).real, complex(p.b).real, float(p.c)
    closed = closedforms.shpot_srivastava_3f2(a, b, c)
    series = pfq_eval(PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0, policy)
    return _reldiff(series.value, closed)


def _split_at_1(closed_form, p, policy):
    fp = _ladder(p)
    closed = closed_form(fp, policy)
    series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, policy)
    return _reldiff(series.value, closed.value)


def _sample_lemma(lemma, rng):
    k = lemma.section.family.order
    if lemma.part == 4:
        a = rng.uniform(1.3, 2.8)
        b = rng.uniform(k + 0.6, k + 4.0)
        c = max(a + k - 1, a + b - 1) + rng.uniform(1.0, 4.0)
    else:
        a, b = rng.uniform(0.05, 0.5), rng.uniform(0.1, 2.5)
        c = a + b + lemma.part + rng.uniform(1.5, 4.0)
    return IdentityPoint(a, b, c, k)


def _lemma(lemma, p, policy):
    fp = _ladder(p)
    lhs = weighted_pochhammer_sum(fp, lemma.weight, policy)
    rhs = closedforms.lemma_closed_form(lemma, fp, policy)
    return _reldiff(lhs.value, rhs.value)


# Series each Euler-integral level represents at a point.
_EULER_PARAMS = {
    "2f1": lambda p: PFQParams((p.b, p.a), (p.c,)),
    "3f2quad": lambda p: PFQParams((p.a, p.b / 2, (p.b + 1) / 2), (p.c / 2, (p.c + 1) / 2)),
    "4f3": _ladder_params,
}


def _sample_euler(rng):
    a, b = rng.uniform(0.2, 1.2), rng.uniform(0.4, 2.0)
    c = a + b + rng.uniform(0.8, 3.0)
    return IdentityPoint(a, b, c, 3, z=rng.uniform(0.05, 0.7))


def _euler(level, p, policy):
    params = _EULER_PARAMS[level](p)
    quad = closedforms.euler_integral(level, params, p.z, 1e-10, policy)
    series = pfq_eval(params, p.z, policy)
    return _reldiff(series.value, quad.value)


IDENTITIES: dict[str, Identity] = {
    "pochhammer-split": Identity(
        1e-10, Family.SPLIT3, _sample_pochhammer_split,
        lambda p, policy: pochhammer_split_residual(p.a, p.k, p.n),
    ),
    "gauss": Identity(1e-8, Family.SPLIT3, _above((0.05, 3.0), (0.05, 3.0), (1.0, 5.0), 3), _gauss),
    "shpot-srivastava": Identity(1e-7, Family.SPLIT3, _sample_shpot_srivastava, _shpot_srivastava),
    "4f3-at-1": Identity(
        1e-6, Family.SPLIT3, _above((0.05, 1.5), (0.1, 4.0), (0.75, 5.0), 3),
        lambda p, policy: _split_at_1(closedforms.four_f3_at_1, p, policy),
    ),
    "5f4-at-1": Identity(
        1e-6, Family.SPLIT4, _above((0.05, 0.45), (0.1, 3.0), (1.25, 5.0), 4),
        lambda p, policy: _split_at_1(closedforms.five_f4_at_1, p, policy),
    ),
}
IDENTITIES.update(
    (tag, Identity(1e-6, lemma.section.family, partial(_sample_lemma, lemma), partial(_lemma, lemma)))
    for tag, lemma in closedforms.LEMMAS.items()
)
IDENTITIES.update(
    (f"euler-{level}", Identity(1e-7, Family.SPLIT3, _sample_euler, partial(_euler, level)))
    for level in _EULER_PARAMS
)


def identity_residual(
    tag: str,
    fp: FamilyParams,
    n: int = 16,
    z: complex = 0.3,
    policy: PrecisionPolicy | None = None,
) -> float:
    """Relative residual between the two independently computed sides of an identity.

    Tags are the keys of ``IDENTITIES``.  The point is fp's parameters with
    fp's ladder order (the split order k of pochhammer-split).
    """
    try:
        identity = IDENTITIES[tag.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown identity tag {tag!r}") from None
    policy = policy or PrecisionPolicy(rel_tol=1e-12, max_terms=400_000)
    return identity.residual(IdentityPoint(fp.a, fp.b, fp.c, fp.order, n, z), policy)
