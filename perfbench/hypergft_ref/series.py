"""Direct series evaluation with certified truncation tails.

The summation engine is shared by plain pFq evaluation and the weighted
ladder sums: terms are generated by the one-step ratio recurrence in chunks,
and the loop stops only once one of two tail certificates holds:

* geometric - for |z| < 1 (or p <= q) the future term ratios are bounded by
  a monotone rational envelope R(n) built from parameter moduli, giving
  tail <= |t_{n+1}| / (1 - R(n+1));
* Raabe - on the unit circle the ratios approach 1 like 1 - gamma/n; once the
  observed gamma_n = n(1 - |t_{n+1}/t_n|) settles above 1 the tail is bounded
  by |t_{n+1}| (n+1) / (gamma - 1).
"""
from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .errors import DivergentError, NoConvergenceError, PoleError
from .families import FamilyParams
from .numcore import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    is_nonpositive_integer,
    nonpositive_integer_value,
)

_UNIT_CIRCLE_TOL = 1e-14
_RAABE_WINDOW = 64
_RAABE_MIN_GAMMA = 1.0 + 1e-9
_CHUNK_RAMP = (64, 256, 1024, 4096)


class ConvergenceClass(enum.Enum):
    ABSOLUTELY_CONVERGENT = "absolutely_convergent"
    CONDITIONALLY_CONVERGENT = "conditionally_convergent"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class PFQParams:
    """Upper and lower parameter lists of a generalized hypergeometric series."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(complex(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(complex(l) for l in self.lower))
        for l in self.lower:
            if is_nonpositive_integer(l):
                raise PoleError(f"lower parameter {l} is a nonpositive integer")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with its certified truncation-error bound."""

    value: complex
    tail_bound: float
    terms_used: int
    converged: bool


def _terminating_order(upper: tuple[complex, ...]) -> int | None:
    """Smallest m such that some upper parameter is -m, else None."""
    best: int | None = None
    for u in upper:
        if is_nonpositive_integer(u):
            m = -nonpositive_integer_value(u)
            best = m if best is None else min(best, m)
    return best


def convergence_class(params: PFQParams, z: complex) -> ConvergenceClass:
    """Convergence trichotomy in (p, q, z) with the unit-circle refinement."""
    z = complex(z)
    if z == 0:
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    if _terminating_order(params.upper) is not None:
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    p, q = params.p, params.q
    if p <= q:
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    if p > q + 1:
        return ConvergenceClass.DIVERGENT
    az = abs(z)
    if abs(az - 1.0) <= _UNIT_CIRCLE_TOL:
        s = sum(l.real for l in params.lower) - sum(u.real for u in params.upper)
        if s > 0:
            return ConvergenceClass.ABSOLUTELY_CONVERGENT
        if abs(z - 1.0) <= _UNIT_CIRCLE_TOL:
            return ConvergenceClass.DIVERGENT
        if s > -1:
            return ConvergenceClass.CONDITIONALLY_CONVERGENT
        return ConvergenceClass.DIVERGENT
    if az < 1.0:
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    return ConvergenceClass.DIVERGENT


def _geometric_ratio_envelope(
    upper: tuple[complex, ...], lower: tuple[complex, ...], az: float, n: int
) -> float:
    """Upper bound on |t_{m+1}/t_m| for every m >= n.

    Uses |a+m| <= m+|a| and |b+m| >= m+Re(b); each paired factor
    (m+alpha)/(m+beta) is monotone, so its supremum over m >= n is
    max(value at n, 1).
    """
    alphas = sorted(abs(u) for u in upper)
    betas = sorted([l.real for l in lower] + [1.0])
    if betas[0] + n <= 0:
        return float("inf")
    out = az
    npair = len(alphas)
    for i in range(npair):
        out *= max((n + alphas[i]) / (n + betas[i]), 1.0)
    for j in range(npair, len(betas)):
        out /= n + betas[j]
    return out


def _series_sum(
    upper: tuple[complex, ...],
    lower: tuple[complex, ...],
    z: complex,
    policy: PrecisionPolicy,
    weight_power: int = 0,
) -> EvalResult:
    """Sum sum_n (n+1)^weight_power * prod(a)_n/prod(b)_n/(1)_n * z^n with a certified tail."""
    z = complex(z)
    ua = np.array(upper, dtype=complex)
    la = np.array(lower, dtype=complex)
    az = abs(z)
    on_circle = abs(az - 1.0) <= _UNIT_CIRCLE_TOL
    term_order = _terminating_order(upper)

    total = 0.0 + 0.0j
    t = 1.0 + 0.0j
    n = 0
    chunk_idx = 0
    pending: tuple[complex, float] | None = None
    while n < policy.max_terms:
        chunk = _CHUNK_RAMP[min(chunk_idx, len(_CHUNK_RAMP) - 1)]
        chunk_idx += 1
        chunk = min(chunk, policy.max_terms - n)
        if term_order is not None:
            chunk = min(chunk, term_order + 1 - n)
            if chunk <= 0:
                return EvalResult(total, 0.0, n, True)
        ns = np.arange(n, n + chunk)
        ratios = np.ones(chunk, dtype=complex) * z
        for a in ua:
            ratios *= a + ns
        for b in la:
            ratios /= b + ns
        ratios /= ns + 1
        if weight_power:
            ratios *= ((ns + 2.0) / (ns + 1.0)) ** weight_power
        terms = t * np.concatenate(([1.0 + 0.0j], np.cumprod(ratios[:-1])))
        total += terms.sum()
        t = terms[-1] * ratios[-1]
        n += chunk

        if term_order is not None:
            if n >= term_order + 1:
                return EvalResult(total, 0.0, n, True)
            continue

        scale = policy.rel_tol * abs(total) + policy.abs_tol
        if not on_circle:
            rho = _geometric_ratio_envelope(upper, lower, az, n)
            if weight_power > 0:
                rho *= ((n + 2.0) / (n + 1.0)) ** weight_power
            if rho < 1.0:
                tail = abs(t) / (1.0 - rho)
                pending = (total, tail)
                if tail <= scale:
                    return EvalResult(total, tail, n, True)
        else:
            window = min(_RAABE_WINDOW, chunk)
            mods = np.abs(ratios[-window:])
            ms = ns[-window:].astype(float)
            gammas = ms * (1.0 - mods)
            gamma_hat = float(gammas.min())
            settled = bool(np.all(np.diff(gammas) >= -1e-9 * np.maximum(1.0, gammas[:-1])))
            burn_in = 4.0 * (1.0 + max(
                max((abs(u) for u in upper), default=0.0),
                max((abs(l) for l in lower), default=0.0),
            ))
            if settled and gamma_hat > _RAABE_MIN_GAMMA and n > burn_in:
                upper_tail = abs(t) * (n + 1) / (gamma_hat - 1.0)
                pending = (total, upper_tail)
                # When gamma_n climbs toward its exact limit sigma from below
                # and the recent terms are positive reals, the tail is also
                # bounded below by |t| n/(sigma-1); adding the bracket
                # midpoint shrinks the certified error to the half-width.
                sigma = (
                    1.0
                    + sum(l.real for l in lower)
                    - sum(u.real for u in upper)
                    - weight_power
                )
                recent = terms[-window:]
                positive_real = bool(
                    np.all(recent.real > 0)
                    and np.all(np.abs(recent.imag) <= 1e-12 * recent.real)
                )
                if (
                    positive_real
                    and sigma > 1.0
                    and float(gammas.max()) <= sigma * (1.0 + 1e-9)
                ):
                    lower_tail = abs(t) * n / (sigma - 1.0)
                    if lower_tail <= upper_tail:
                        mid = total + 0.5 * (upper_tail + lower_tail)
                        # 1e-14 covers summation rounding over ~1e6 terms
                        tail = 0.5 * (upper_tail - lower_tail) + 1e-14 * abs(mid)
                        pending = (mid, tail)
                if pending[1] <= scale:
                    return EvalResult(pending[0], pending[1], n, True)
    if pending is not None:
        # Budget exhausted before the policy target, but the tail is still
        # rigorously bounded; hand the caller the honest bound.
        value, tail = pending
        return EvalResult(value, tail, n, False)
    raise NoConvergenceError(
        f"series tail not certified within {policy.max_terms} terms"
    )


def pfq_eval(params: PFQParams, z: complex, policy: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Evaluate pFq(z) by the term-ratio recurrence with a certified tail."""
    z = complex(z)
    cls = convergence_class(params, z)
    if cls is ConvergenceClass.DIVERGENT:
        raise DivergentError(f"series diverges at z={z}")
    if z == 0:
        return EvalResult(1.0 + 0.0j, 0.0, 1, True)
    if cls is ConvergenceClass.CONDITIONALLY_CONVERGENT:
        raise NoConvergenceError(
            "conditionally convergent boundary case: only terminating series are summed"
        )
    return _series_sum(params.upper, params.lower, z, policy)


def two_f1_neg1(
    a: complex, b: complex, c: complex, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """2F1(a, b; c; -1).

    Terminating cases (a or b a nonpositive integer) are summed exactly as
    polynomials.  Otherwise the series is routed through the half-argument
    transform 2F1(a,b;c;-1) = 2^(-a) 2F1(a, c-b; c; 1/2), whose positive,
    geometrically decaying terms certify cleanly; the direct alternating sum
    at -1 stalls once b and c grow.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if is_nonpositive_integer(c):
        raise PoleError(f"lower parameter c={c} is a nonpositive integer")
    if is_nonpositive_integer(a) or is_nonpositive_integer(b):
        if is_nonpositive_integer(b) and not is_nonpositive_integer(a):
            a, b = b, a
        k = -nonpositive_integer_value(a)
        total = 0.0 + 0.0j
        u = 1.0 + 0.0j
        for j in range(k + 1):
            total += u
            u *= (k - j) / (j + 1.0) * (b + j) / (c + j)
        return EvalResult(total, 0.0, k + 1, True)
    res = _series_sum((a, c - b), (c,), 0.5, policy)
    scale = cmath.exp(-a * cmath.log(2.0))
    return EvalResult(res.value * scale, res.tail_bound * abs(scale), res.terms_used, res.converged)


_WEIGHT_POWERS = {"inv": -1, "one": 0, "linear": 1, "square": 2, "cube": 3}


def weighted_pochhammer_sum(
    fp: FamilyParams, weight: str, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """Direct summation of sum_n w(n) (a)_n prod((b+j)/k)_n / [prod((c+j)/k)_n (1)_n].

    This is the ground-truth side of the ladder lemmas; w is one of
    1/(n+1), 1, (n+1), (n+1)^2, (n+1)^3.
    """
    from .errors import ConstraintError

    if weight not in _WEIGHT_POWERS:
        raise ValueError(f"unknown weight {weight!r}")
    d = _WEIGHT_POWERS[weight]
    a_re = complex(fp.a).real
    b_re = complex(fp.b).real
    c = fp.c
    k = fp.order
    if d >= 1:
        if not c - a_re - b_re > d:
            raise ConstraintError(f"weight {weight} requires c > a + b + {d}")
    elif d == 0:
        if not c - a_re - b_re > 0:
            raise ConstraintError("weight one requires c > a + b")
    else:
        if not (c > a_re + k - 1 and c > a_re + b_re - 1):
            raise ConstraintError(
                f"weight inv requires c > max(a + {k - 1}, a + b - 1)"
            )
    return _series_sum(fp.upper_params(), fp.lower_params(), 1.0, policy, weight_power=d)
