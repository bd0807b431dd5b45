"""Independent ground-truth checks for class membership.

Two kinds of evidence, deliberately unsophisticated:

* coefficient sums - the classical sufficient conditions, evaluated on the
  truncated coefficient array a_1..a_N plus a geometric tail estimate;
* disc sampling - the defining inequalities themselves, evaluated on a
  radial-angular grid, where each circle of the grid is summed by one
  folded inverse FFT.  Real coefficients have the same defect at z and
  conj(z), so only the angles in [0, pi] are evaluated for them; reports
  count the full grid either way.  Sampling a truncation is a falsifier
  near the boundary, not a prover, so reports carry a truncation disclaimer
  when the dropped coefficients could still matter.

``IDENTITIES`` registers the checked identities behind ``hypergft verify``
and ``identity_residual``; the ladder sums W_d (the 4F3 and 5F4 at z = 1 are
W_0, the lemmas) share one residual, ``_ladder_residual``.
"""
from __future__ import annotations

import cmath
import enum
import math
import numbers
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import closedforms
from .classes import ClassSpec, SourceClass
from .errors import (
    DivisionNearZeroError,
    InsufficientOrderError,
    NoConvergenceError,
    NormalizationError,
)
from .families import Family, FamilyParams
from .numcore import DEFAULT_POLICY, PrecisionPolicy, pochhammer_split_residual
from .series import EvalResult, PFQParams, pfq_eval, weighted_pochhammer_sum


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

    def __post_init__(self) -> None:
        for name in ("n_radii", "n_angles"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"{name} must be a whole number of at least 1, got {n!r}")
        if not 0 < self.r_max < 1:
            raise ValueError(f"r_max must lie in (0, 1), got {self.r_max}")
        if not 0 <= self.disclaimer_tol < math.inf:
            raise ValueError(f"disclaimer_tol must be finite and at least 0, got {self.disclaimer_tol}")

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


NORMALIZATION_TOL = 1e-12


def normalized_coefficients(f, name: str = "series") -> np.ndarray:
    """f as a coefficient array a_1..a_N of z + sum_{n>=2} a_n z^n.

    A list or tuple is converted and an array is used as is, never written
    to; ValueError unless non-empty and 1-D, NormalizationError (naming
    ``name``) unless a_1 = 1.
    """
    f = np.asarray(f)
    if f.ndim != 1 or not f.size:
        raise ValueError(f"{name} needs a non-empty coefficient array a_1..a_N")
    if abs(f[0] - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"{name} is not normalized to a_1 = 1")
    return f


def _weights(spec: ClassSpec, ns: np.ndarray) -> np.ndarray:
    power, alpha, beta = spec.weight
    return ns ** (power - 1) * (alpha * ns + beta)


def coefficient_condition_check(f: np.ndarray, spec: ClassSpec) -> OracleReport:
    """Weighted coefficient sum of the coefficient array a_1..a_N against the
    class threshold.

    Passing requires sum + tail <= threshold, where the tail extrapolates the
    last term ratio geometrically; a partial sum already above the threshold
    fails outright (adding the tail can only hurt).
    """
    f = normalized_coefficients(f)
    ns = np.arange(2, len(f) + 1, dtype=float)
    terms = _weights(spec, ns) * np.abs(f[1:])
    total = float(terms.sum())
    threshold = spec.threshold
    worst_idx = int(np.argmax(terms)) + 2 if terms.size else 1
    if total > threshold:
        return OracleReport(CheckKind.COEFF_SUM, False, total, worst_idx, len(f))
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
        len(f),
    )


@lru_cache(maxsize=8)
def _grid_arrays(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The radii as a column and r^j for j < n_angles, built once per grid
    and read-only."""
    r = grid.radii()[:, None]
    arrays = r, r ** np.arange(grid.n_angles)
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _on_grid(polys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_k polys[p, k] z^k for each row p at the grid points, z = r e^(i theta)
    as in radii() and angles(): shape (rows, n_radii, n_angles), or only the
    n_angles // 2 + 1 angles in [0, pi] when polys is real.

    On the M = n_angles equispaced angles z^k depends on k mod M only, so per
    radius r the coefficients scaled by r^k are folded mod M and one inverse
    FFT sums them at every angle (Bornemann, Found. Comput. Math. 2011).  The
    fold is r^j sum_q c_(j+qM) (r^M)^q: a product with the (n_radii x blocks)
    matrix of (r^M)^q, so no (n_radii x N) array is formed.  A real fold has
    conjugate values at angles k and M - k, and its half transform returns
    the first half only.
    """
    m = grid.n_angles
    rows, n = polys.shape
    blocks = -(-n // m)
    padded = np.zeros((rows, blocks * m), dtype=polys.dtype)  # zero past N
    padded[:, :n] = polys
    r, powers = _grid_arrays(grid)
    folded = (r ** (m * np.arange(blocks))) @ padded.reshape(rows, blocks, m)
    folded *= powers
    # Entry k is sum_j folded_j e^(2 pi i jk/M), unscaled: the value at angles()[k].
    if np.iscomplexobj(folded):
        return np.fft.ifft(folded, axis=-1, norm="forward")
    return np.fft.ihfft(folded, axis=-1, norm="forward")


def disc_sample_check(
    f: np.ndarray, spec: ClassSpec, grid: GridSpec = DEFAULT_GRID
) -> OracleReport:
    """Evaluate the defining inequality of the class on the sampling grid for
    the coefficient array a_1..a_N of f.

    With g = f, or g = z f' for the lifted classes (convex, ucv), and
    u = z g'/g - 1, the defect is |u| for the lambda-disc (starlike,
    convex) and |u| - Re(u) for Ronning's parabola (sp, ucv); pass means
    defect <= threshold everywhere.  g(z)/z and g'(z) are summed at the
    grid's equispaced angles by one folded inverse FFT per radius.  Sample
    points where g(z)/z vanishes are skipped and counted.

    Real coefficients (an array whose imaginary part is all zero) give the
    same defect at z and conj(z), so only the angles in [0, pi] are
    evaluated and the worst point reported has Im z >= 0.  The report still
    counts the full grid: budget is n_radii * n_angles, and a skipped point
    off the real axis counts for its mirror image too.
    """
    a = normalized_coefficients(f)
    a = a.real.astype(float, copy=False) if not a.imag.any() else a.astype(complex, copy=False)

    # Trailing coefficients below 1e-18 of the largest cannot move any defect
    # beyond double rounding; dropping them folds only the effective order.
    mags = np.abs(a)
    keep = np.nonzero(mags > 1e-18 * max(1.0, float(mags.max())))[0]
    n_eff = int(keep[-1]) + 1 if keep.size else 1
    ns = np.arange(1, n_eff + 1, dtype=float)
    g = a[:n_eff] * ns if spec.lifted else a[:n_eff]  # z f' keeps g_1 = a_1 = 1
    # sum g_n z^(n-1) = g(z)/z and sum n g_n z^(n-1) = g'(z)
    g_over_z, g_prime = _on_grid(np.stack((g, g * ns)), grid)
    valid = np.abs(g_over_z) > DEFAULT_POLICY.abs_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        u = g_prime / g_over_z - 1.0  # = z g'(z)/g(z) - 1
    defect = np.abs(u) - u.real if spec.parabolic else np.abs(u)

    # A column k also stands for the angle M - k when that one is not evaluated.
    m = grid.n_angles
    cols = np.arange(valid.shape[-1])
    images = np.where(-cols % m >= cols.size, 2, 1)
    budget = grid.n_radii * m
    skipped = int((~valid).sum(axis=0) @ images)
    if skipped == budget:
        raise DivisionNearZeroError("every sample point sits on a zero of the denominator")
    defect = np.where(valid, defect, -np.inf)
    i, k = np.unravel_index(np.argmax(defect), defect.shape)
    worst = float(defect[i, k])
    r, _ = _grid_arrays(grid)
    location = complex(r[i, 0] * np.exp(1j * grid.angles()[k]))

    warning = bool(grid.r_max * (len(a) + 1) * abs(a[-1]) > grid.disclaimer_tol)
    return OracleReport(
        CheckKind.DISC_SAMPLE,
        worst <= spec.threshold,
        worst,
        location,
        budget,
        skipped=skipped,
        truncation_warning=warning,
    )


def worst_case_coefficients(source: SourceClass, N: int) -> np.ndarray:
    """Coefficient array a_1..a_N of the extremal modulus sequence
    scale * n**shift of the source class: 2(1-beta)/n for R(beta), n for S,
    and all ones for the function source, z/(1-z), the identity of the
    Hadamard product."""
    if N < 1:
        raise ValueError("need N >= 1")
    ns = np.arange(2, N + 1, dtype=float)
    return np.concatenate(([1.0], source.scale * ns ** source.shift))


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


def _reldiff(x: EvalResult, y: EvalResult) -> float:
    """Relative difference of two computed sides; a side that did not converge
    has no value to compare, so it raises NoConvergenceError."""
    if not (x.converged and y.converged):
        raise NoConvergenceError("a side of the identity did not converge")
    return abs(x.value - y.value) / max(abs(x.value), abs(y.value), 1e-300)


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
    return _reldiff(series, closed)


def _sample_shpot_srivastava(rng):
    a, b, c = rng.uniform(0.05, 0.5), rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
    while abs(c - b) < 0.05:
        c = rng.uniform(0.1, 4.0)
    return IdentityPoint(a, b, c, 3)


def _shpot_srivastava(p, policy):
    a, b, c = complex(p.a).real, complex(p.b).real, float(p.c)
    closed = closedforms.shpot_srivastava_3f2(a, b, c)
    series = pfq_eval(PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0, policy)
    return _reldiff(series, closed)


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


def _closed_form(name, *args):  # looked up per call, so that perfbench's spans see it
    return lambda fp, policy: getattr(closedforms, name)(*args, fp, policy)


def _ladder_residual(weight, closed_form, p, policy):
    fp = _ladder(p)
    return _reldiff(weighted_pochhammer_sum(fp, weight, policy), closed_form(fp, policy))


# Each Euler-integral level: the series it represents at a point, and the m
# of its kernel, which pairs a with c / m.  The 2f1 and 3f2quad kernels pair
# b with c, so their m = 1 adds nothing to c > a + b.
_EULER = {
    "2f1": (lambda p: PFQParams((p.b, p.a), (p.c,)), 1.0),
    "3f2quad": (lambda p: PFQParams((p.a, p.b / 2, (p.b + 1) / 2), (p.c / 2, (p.c + 1) / 2)), 1.0),
    "4f3": (_ladder_params, 3.0),
}


def _sample_euler(m, rng):
    """A point with c above a + b and above m a, for a kernel pairing a with c / m."""
    a, b = rng.uniform(0.2, 1.2), rng.uniform(0.4, 2.0)
    c = max(a + b, m * a) + rng.uniform(0.8, 3.0)
    return IdentityPoint(a, b, c, 3, z=rng.uniform(0.05, 0.7))


def _euler(level, p, policy):
    params = _EULER[level][0](p)
    quad = closedforms.euler_integral(level, params, p.z, 1e-10, policy)
    series = pfq_eval(params, p.z, policy)
    return _reldiff(series, quad)


IDENTITIES: dict[str, Identity] = {
    "pochhammer-split": Identity(
        1e-10, Family.SPLIT3, _sample_pochhammer_split,
        lambda p, policy: pochhammer_split_residual(p.a, p.k, p.n),
    ),
    "gauss": Identity(1e-8, Family.SPLIT3, _above((0.05, 3.0), (0.05, 3.0), (1.0, 5.0), 3), _gauss),
    "shpot-srivastava": Identity(1e-7, Family.SPLIT3, _sample_shpot_srivastava, _shpot_srivastava),
    "4f3-at-1": Identity(
        1e-6, Family.SPLIT3, _above((0.05, 1.5), (0.1, 4.0), (0.75, 5.0), 3),
        partial(_ladder_residual, "one", _closed_form("four_f3_at_1")),
    ),
    "5f4-at-1": Identity(
        1e-6, Family.SPLIT4, _above((0.05, 0.45), (0.1, 3.0), (0.75, 5.0), 4),
        partial(_ladder_residual, "one", _closed_form("five_f4_at_1")),
    ),
}
IDENTITIES.update(
    (tag, Identity(1e-6, lemma.section.family, partial(_sample_lemma, lemma),
                   partial(_ladder_residual, lemma.weight, _closed_form("lemma_closed_form", lemma))))
    for tag, lemma in closedforms.LEMMAS.items()
)
IDENTITIES.update(
    (f"euler-{level}", Identity(1e-7, Family.SPLIT3, partial(_sample_euler, m), partial(_euler, level)))
    for level, (_, m) in _EULER.items()
)


def identity_residual(
    tag: str,
    fp: FamilyParams,
    n: int = 16,
    z: complex = 0.3,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> float:
    """Relative residual between the two independently computed sides of an identity.

    Tags are the keys of ``IDENTITIES``.  The point is fp's parameters with
    fp's ladder order (the split order k of pochhammer-split).  A side that
    did not converge raises NoConvergenceError.
    """
    try:
        identity = IDENTITIES[tag.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown identity tag {tag!r}") from None
    return identity.residual(IdentityPoint(fp.a, fp.b, fp.c, fp.order, n, z), policy)
