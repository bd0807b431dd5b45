"""Independent ground-truth checks for class membership.

Two kinds of evidence, deliberately unsophisticated:

* coefficient sums - the classical sufficient conditions, evaluated on the
  truncated coefficient vector plus a geometric tail estimate;
* disc sampling - the defining inequalities themselves, evaluated by Horner
  on a radial-angular grid.  Sampling a truncation is a falsifier near the
  boundary, not a prover, so reports carry a truncation disclaimer when the
  dropped coefficients could still matter.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .errors import (
    DivisionNearZeroError,
    InsufficientOrderError,
    NormalizationError,
)
from .families import Family, FamilyParams
from .numcore import DEFAULT_POLICY, PrecisionPolicy, pochhammer_split_residual
from .powerseries import PowerSeries


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
    if total > threshold:
        worst_idx = int(np.argmax(terms)) + 2 if terms.size else 1
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
    worst_idx = int(np.argmax(terms)) + 2 if terms.size else 1
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


_LEMMA_WEIGHTS = {1: "linear", 2: "square", 3: "cube", 4: "inv"}


def identity_residual(
    tag: str,
    fp: FamilyParams,
    n: int = 16,
    z: complex = 0.3,
    policy: PrecisionPolicy | None = None,
) -> float:
    """Relative residual between the two independently computed sides of an identity.

    Tags: pochhammer-split, gauss, shpot-srivastava, 4f3-at-1, 5f4-at-1,
    lemma-sec{2,3}-part{1..4}, euler-{2f1,3f2quad,4f3}.
    """
    from . import closedforms
    from .series import PFQParams, pfq_eval, weighted_pochhammer_sum

    policy = policy or PrecisionPolicy(rel_tol=1e-12, max_terms=400_000)
    tag = tag.strip().lower()
    a, b, c = fp.a, fp.b, fp.c

    def reldiff(x, y, extra=0.0):
        return abs(x - y) / max(abs(x), abs(y), 1e-300)

    if tag == "pochhammer-split":
        return pochhammer_split_residual(a, fp.order, n)
    if tag == "gauss":
        closed = closedforms.gauss_2f1_at_1(a, b, c)
        series = pfq_eval(PFQParams((a, b), (c,)), 1.0, policy)
        return reldiff(series.value, closed)
    if tag == "shpot-srivastava":
        closed = closedforms.shpot_srivastava_3f2(
            complex(a).real, complex(b).real, float(c)
        )
        series = pfq_eval(
            PFQParams(
                (complex(a).real, complex(b).real, float(c)),
                (complex(b).real + 1.0, float(c) + 1.0),
            ),
            1.0,
            policy,
        )
        return reldiff(series.value, closed)
    if tag == "4f3-at-1":
        closed = closedforms.four_f3_at_1(fp, policy)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, policy)
        return reldiff(series.value, closed.value)
    if tag == "5f4-at-1":
        closed = closedforms.five_f4_at_1(fp, policy)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, policy)
        return reldiff(series.value, closed.value)
    if tag.startswith("lemma-"):
        try:
            _, sec, part = tag.split("-")
            section = closedforms.Section(sec)
            pnum = int(part.removeprefix("part"))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed lemma tag {tag!r}") from exc
        lhs = weighted_pochhammer_sum(fp, _LEMMA_WEIGHTS[pnum], policy)
        rhs = closedforms.lemma_closed_form(closedforms.LemmaId(section, pnum), fp, policy)
        return reldiff(lhs.value, rhs.value)
    if tag.startswith("euler-"):
        level = tag.removeprefix("euler-")
        if level == "2f1":
            params = PFQParams((b, a), (c,))
        elif level == "3f2quad":
            params = PFQParams((a, b / 2, (b + 1) / 2), (c / 2, (c + 1) / 2))
        else:
            params = PFQParams(fp.upper_params(), fp.lower_params())
        quad = closedforms.euler_integral(level, params, z, 1e-10, policy)
        series = pfq_eval(params, z, policy)
        return reldiff(series.value, quad.value)
    raise ValueError(f"unknown identity tag {tag!r}")
