"""Foundational numerics: log-gamma, gamma ratios, Pochhammer symbols.

Everything downstream (series summation, closed forms, certification) funnels
its gamma arithmetic through this module so that a single precision policy and
a single pole-detection radius govern the whole package.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConstraintError, PoleError, ZeroError

# Radius around 0, -1, -2, ... inside which an argument counts as a gamma pole.
POLE_TOL = 1e-12

# Relative allowance for a gamma-ratio evaluation, folded into the error bounds of
# closed forms and certificates; each log Gamma(x) adds <= 2.8 ulps of its value
# beyond GAMMA_EVAL_REL / 4 for real 0.01 <= x <= 1000, allowed 4; off the axis the
# cancelling Lanczos sum adds up to 18.1 (20,000 seeded z, Re in (-1.5, 2.5), Im in
# (3, 30), against mpmath.loggamma), allowed 32.
GAMMA_EVAL_REL = 5e-14
_LOG_GAMMA_ULPS = (4.0 * 2.0**-52, 32.0 * 2.0**-52)  # real, complex argument

_LOG_PI = math.log(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos coefficients, g = 7, n = 9.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_G = 7.0


@dataclass(frozen=True)
class PrecisionPolicy:
    """Shared accuracy contract: relative target, underflow floor, term budget."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_terms: int = 100_000

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if not 0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and at least 0, got {self.abs_tol}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = PrecisionPolicy()


def is_nonpositive_integer(z: complex) -> bool:
    """True when z lies within POLE_TOL of 0, -1, -2, ..."""
    z = complex(z)
    if abs(z.imag) > POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= POLE_TOL


def terminal_index(a: complex) -> float:
    """m where the upper parameter a is exactly -m, the index of the last nonzero
    term of its sum, else inf.  A parameter within rounding of -m ends nothing:
    its terms past m are small, not zero, though ``is_nonpositive_integer``
    counts it as a pole."""
    a = complex(a)
    return -a.real if a.imag == 0.0 and a.real <= 0.0 and a.real.is_integer() else math.inf


def _lanczos_log_gamma(z: complex) -> complex:
    # Valid for Re(z) >= 0.5.
    zm1 = z - 1.0
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(x)


def _log_sin_pi_upper(z: complex) -> complex:
    # Continuous logarithm of sin(pi z) on the closed upper half-plane:
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 pi i z}), and 1 - e^{2 pi i z}
    # stays in the closed right half-plane, so the principal log never jumps.
    w = cmath.exp(2j * cmath.pi * z)
    return 0.5j * cmath.pi - math.log(2.0) - 1j * cmath.pi * z + cmath.log(1.0 - w)


def log_gamma(z: complex) -> complex:
    """Principal-branch log-gamma (analytic continuation off the cut).

    Agrees with log(Gamma(x)) for x > 0; for Re(z) < 0.5 the reflection
    formula is applied with a branch-stable log-sine so the result is the
    standard continuation (conjugate-symmetric across the real axis).
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    return _LOG_PI - _lanczos_log_gamma(1.0 - z) - _log_sin_pi_upper(z)


def gamma_ratio(numerators: list[complex], denominators: list[complex]) -> complex:
    """exp(sum log Gamma(numerators) - sum log Gamma(denominators)).

    Works where the individual gammas would overflow; exponentiating the
    difference of logs makes the result branch-insensitive.  A ratio beyond
    the float range raises ConstraintError.
    """
    return gamma_ratio_with_error(numerators, denominators)[0]


def gamma_ratio_with_error(numerators: list[complex], denominators: list[complex]):
    """(``gamma_ratio``, a bound on its relative error): GAMMA_EVAL_REL plus
    _LOG_GAMMA_ULPS per unit of each |log Gamma|, 1e-13 per real value near 600."""
    acc, slack = 0.0 + 0.0j, 0.0
    for sign, vs in ((1.0, numerators), (-1.0, denominators)):
        for v in map(complex, vs):
            if is_nonpositive_integer(v):
                raise PoleError(f"gamma_ratio numerator pole at {v}") if sign > 0 else ZeroError(
                    f"gamma_ratio denominator pole at {v}; ratio is zero")
            lg = log_gamma(v)
            acc, slack = acc + sign * lg, slack + _LOG_GAMMA_ULPS[v.imag != 0.0] * abs(lg)
    try:
        return cmath.exp(acc), GAMMA_EVAL_REL + slack
    except OverflowError:
        def gammas(vs):
            return " ".join(f"Gamma({v.real if v.imag == 0 else v:g})" for v in map(complex, vs))
        raise ConstraintError(
            f"gamma ratio {gammas(numerators)} / ({gammas(denominators)}) "
            f"= exp({acc.real:.6g}) overflows the float range"
        ) from None


def _as_output(value: complex, *inputs: complex):
    if any(isinstance(v, complex) for v in inputs):
        return value
    return value.real


def pochhammer(a: complex, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    One direct product for every n: n roundings keep it within about n ulps
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  An exact
    interior zero (``terminal_index(a)`` below n) returns 0 before the
    factors ahead of it can overflow; a product beyond the float range raises
    ConstraintError.
    """
    if n < 0:
        raise ValueError("pochhammer order must be a natural number")
    if terminal_index(a) < n:
        return _as_output(0.0 + 0.0j, a)
    za = complex(a)
    out = 1.0 + 0.0j
    for j in range(n):
        out *= za + j
        if not cmath.isfinite(out):
            raise ConstraintError(f"pochhammer ({a})_{n} overflows the float range")
    return _as_output(out, a)


def pochhammer_split_residual(a: complex, k: int, n: int) -> float:
    """Relative defect of the order-k splitting of (a)_{kn}.

    Both sides are ``pochhammer`` products: the left (a)_{kn}, the right
    k^{kn} * prod_{j<k} ((a+j)/k)_n.  A side beyond the float range raises
    ConstraintError.
    """
    if k < 1:
        raise ValueError("split order k must be >= 1")
    za = complex(a)
    lhs = pochhammer(za, k * n)
    rhs = math.prod((pochhammer((za + j) / k, n) for j in range(k)), start=complex(k) ** (k * n))
    return abs(lhs - rhs) / max(abs(lhs), DEFAULT_POLICY.abs_tol)
