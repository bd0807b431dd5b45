"""Direct series evaluation on the package's two chunked summation loops.

``chunked_sum`` sums one series and ``chunked_rows`` a batch of rows along the
last axis, each row stopping on its own; the caller picks the one it needs.
Each loop owns its chunk ramp, the running sum, the exact stop at a
terminating index, the budget and the ``rel_tol * |value| + abs_tol`` test;
each caller passes a chunk-term function and a tail certifier.  A sum ends
early only at an exact nonpositive integer upper parameter, its terminal index
(``numcore.terminal_index``, inf: none); each loop counts an index at or past
the term budget as none, so the certified tail closes that sum.  Plain pFq
series (terms from the one-step ratio recurrence) go through ``chunked_sum``
with one of two certifiers:

* geometric - for |z| < 1 (or p <= q) the future term ratios are bounded by
  a monotone rational envelope R(n) built from parameter moduli, giving
  tail <= |t_{n+1}| / (1 - R(n+1));
* Raabe - on the unit circle with p = q + 1 a real majorant of the term
  ratios read from the parameters bounds the tail from index N by
  |t_N| (N+s+sigma_lo-1)/(sigma_lo-1).  A real series at z = 1 is closed by
  a fourth-order telescoped bracket instead (``_telescope``): with the term
  ratio P(m)/Q(m) and g(m) = G(m)/((m+1)(m+2)), G cubic, the tail is
  g(N) t_N + sum_{m>=N} e(m) t_m with |e(m)| = O(m^-4) bounded from the
  coefficients of P and Q, so its width falls like t_N/N^3, not like N t_N.

A single series runs a first chunk of 64 terms.  When its certified tail
misses the test, the certifier also counts the further terms that shrink the
bound to it, and the next chunk has that many, at most 4096: the geometric
bound falls at least like R(n)^k, the first-order Raabe bound like
(N+s)^-(sigma_lo-1) and the telescoped bracket like (N+s)^-(sigma_lo+3).  A
short count costs one more chunk; without a count the chunks follow the ramp
64, 256, 1024, 4096.

A p > q + 1 series, or a p = q + 1 series off the closed disc, whose terms
the budget cannot end raises NoConvergenceError at entry: no tail of it is
ever certified.  So does a p = q + 1 series on the circle whose index cannot
pass every parameter's real part within the budget, as the Raabe tail needs.

The outer ladder expansions (``closedforms._ladder_blocks``, one row per
block, whose one-row views are ``split_outer_sum`` and ``ladder_sum_block``;
proven outer ratio) and the inner 2F1(-1) batch that sums each of their
chunks (row-wise geometric envelope) go through ``chunked_rows``.  A
batch's first chunk is round(log2(1/rel_tol)) + 8 terms, where terms decaying
like 2^(-j) reach rel_tol with a few to spare; it runs twice, so a row that
just misses its stop runs a short chunk, and chunks then double up to 4096.
The two loops stay apart: a single series run as a batch of one row is slower.

The loops and the term arithmetic are dtype-generic: each caller reads the
dtype from its values at entry, so a series whose parameters and z are all
real (imaginary parts exactly 0) is summed in float64, any other in complex128.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintError, DivergentError, NoConvergenceError, PoleError
from .families import FamilyParams, weighted_sum_region
from .numcore import DEFAULT_POLICY, PrecisionPolicy, is_nonpositive_integer, terminal_index

_UNIT_CIRCLE_TOL = 1e-14
_CHUNK_CAP = 4096  # the longest chunk of either loop
_CHUNK_RAMP = (64, 256, 1024, _CHUNK_CAP)


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
        for name in ("upper", "lower"):
            if not all(map(cmath.isfinite, getattr(self, name))):
                raise ValueError(f"{name} parameters must be finite, got {getattr(self, name)}")
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


def convergence_class(params: PFQParams, z: complex) -> ConvergenceClass:
    """Convergence trichotomy in (p, q, z) with the unit-circle refinement."""
    z = complex(z)
    if z == 0 or min(map(terminal_index, params.upper), default=math.inf) < math.inf:
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


def _geometric_ratio_envelope(alphas: list[float], betas: list[float], az: float, n: int) -> float:
    """Upper bound R(n) on |t_{m+1}/t_m| for every m >= n, from alphas, the sorted
    moduli |a| of the upper parameters, and betas, the sorted real parts Re(b)
    of the lower ones with the 1 of n!, both sorted once per sum.

    Uses |a+m| <= m+|a| and |b+m| >= m+Re(b); each paired factor
    (m+alpha)/(m+beta) is monotone, so its supremum over m >= n is
    max(value at n, 1), and R(n) falls as n grows.
    """
    if betas[0] + n <= 0:
        return float("inf")
    out = az
    npair = len(alphas)
    for i in range(npair):
        out *= max((n + alphas[i]) / (n + betas[i]), 1.0)
    for j in range(npair, len(betas)):
        out /= n + betas[j]
    return out


def chunked_sum(
    chunk_terms: Callable[[np.ndarray], np.ndarray],
    certify_tail: Callable[[int, complex], tuple | None],
    policy: PrecisionPolicy,
    terminal: float = math.inf,
) -> EvalResult:
    """Sum one series chunk by chunk until its certified tail meets the policy.

    chunk_terms(ns) gives the terms at indices ns; certify_tail(n, total), after
    n terms, gives (value, truncation bound, more) or None.  The sum stops
    exactly, with no tail, at terminal, the index of its last nonzero term (inf:
    none; an index past the budget counts as none, so the certified tail closes
    the sum).  An overflowed or nan total ends the sum with bound inf and
    converged=False.  An exhausted budget returns the last certified pair with
    converged=False; no certificate at all raises.  The test is
    bound <= rel_tol * |value| + abs_tol on the certified value, which a
    telescoped tail moves past the running total.

    The first chunk has 64 terms.  A bound that misses the test by the factor
    r = bound / (rel_tol * |value| + abs_tol) sizes the next chunk at more(r)
    terms, the count its certifier predicts will shrink the bound by r, at most
    4096; a short count costs one more chunk.  Without a certificate the chunks
    follow the ramp 64, 256, 1024, 4096.
    """
    total = 0.0  # takes the dtype of the terms
    n = 0
    chunk_idx = 0
    wanted = None  # the next chunk as the last certificate counts it
    pending: tuple[complex, float] | None = None
    while n < policy.max_terms:
        chunk = _CHUNK_RAMP[min(chunk_idx, len(_CHUNK_RAMP) - 1)] if wanted is None else wanted
        chunk_idx += 1
        chunk = int(min(chunk, policy.max_terms - n, terminal + 1 - n))
        total = total + chunk_terms(np.arange(n, n + chunk)).sum()
        n += chunk
        if not math.isfinite(abs(total)):  # an overflowed or nan total: no bound holds
            return EvalResult(complex(total), math.inf, n, False)
        if n > terminal:
            return EvalResult(complex(total), 0.0, n, True)
        if terminal < policy.max_terms:
            continue
        cert = certify_tail(n, total)
        wanted = None
        if cert is not None:
            pending = cert[:2]
            # the certified value, not the running total, which can sit far from it
            scale = policy.rel_tol * abs(pending[0]) + policy.abs_tol
            if pending[1] <= scale:
                return EvalResult(*pending, n, True)
            more = cert[2](pending[1] / scale) if scale > 0.0 else math.inf
            wanted = max(1, math.ceil(more)) if more < _CHUNK_CAP else _CHUNK_CAP  # nan: the cap
    if pending is not None:
        return EvalResult(*pending, n, False)
    raise NoConvergenceError(f"tail not certified within {policy.max_terms} terms")


def chunked_rows(
    chunk_terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float | np.ndarray]],
    certify_tail: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    policy: PrecisionPolicy,
    rows: int,
    terminal: float | np.ndarray = math.inf,
    abs_tol: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum a batch of series, one row each along the last axis, each row stopping
    on its own; returns per-row (value, bound, terms used, converged) arrays.

    chunk_terms(ns, live) gives the terms of the rows still live (an index
    array) at indices ns and the inner-series error they carry, per row;
    certify_tail(n, terms, live), after n terms, gives those rows' truncation
    bounds (inf where no tail is certified yet), each closing the row's running
    total.  The accumulated inner error is added to every bound.  A row whose
    bound meets rel_tol * |total| + abs_tol keeps its value and bound, and later
    chunks skip it, so a row's value does not depend on the other rows of its
    batch.  terminal (inf: none) is a scalar or a per-row array, abs_tol
    (default policy.abs_tol) a per-row array; a row stops after the chunk that
    passes its terminal index, whose later terms chunk_terms gives as zeros.  A
    terminal index past the budget counts as none: the certified tail closes
    that row.

    The first chunk, round(log2(1/rel_tol)) + 8 terms, is where terms decaying
    like 2^(-j) from the first reach rel_tol with a few to spare (48 at 1e-12,
    64 at 1e-17).  It runs twice, so a row that just misses its stop runs a
    short chunk, and the chunks then double up to 4096.
    """
    first = max(1, round(math.log2(1.0 / policy.rel_tol)) + 8)
    live = np.arange(rows)
    floor = np.full(rows, policy.abs_tol) if abs_tol is None else abs_tol
    ends = np.full(rows, np.where(terminal < policy.max_terms, terminal, np.inf))
    total, inner = 0.0, np.zeros(rows)
    pending = None  # per live row: the last certified (value, bound), bound inf if none
    value = None  # per row, filled as rows stop, like these:
    bound, used, converged = np.empty(rows), np.empty(rows, dtype=int), np.zeros(rows, dtype=bool)
    n = 0
    chunk_idx = 0
    while live.size and n < policy.max_terms:
        # first twice, then doubling up to 4096
        chunk = min(first << max(chunk_idx - 1, 0), _CHUNK_CAP, policy.max_terms - n)
        chunk_idx += 1
        terms, err = chunk_terms(np.arange(n, n + chunk), live)
        total = total + terms.sum(axis=-1)
        inner = inner + err
        n += chunk
        if value is None:  # the dtype of the terms
            value = np.empty(rows, terms.dtype)
            pending = np.zeros(rows, terms.dtype), np.full(rows, np.inf)
        tails = certify_tail(n, terms, live)
        got = np.isfinite(tails) & (ends == np.inf)
        pending = np.where(got, total, pending[0]), np.where(got, tails + inner, pending[1])
        ended = n > ends
        pending = np.where(ended, total, pending[0]), np.where(ended, inner, pending[1])
        met = pending[1] <= policy.rel_tol * np.abs(total) + floor
        stop = met | ended
        if stop.any():
            done = live[stop]
            value[done], bound[done] = pending[0][stop], pending[1][stop]
            converged[done] = met[stop]
            used[done] = np.minimum(ends[stop] + 1, n)  # not the zeros past a terminal index
            keep = ~stop
            live, total, inner, floor = live[keep], total[keep], inner[keep], floor[keep]
            ends = ends[keep]
            pending = pending[0][keep], pending[1][keep]
    if live.size:  # the budget ran out: the last certified pairs, converged=False
        if not np.all(np.isfinite(pending[1])):
            raise NoConvergenceError(f"tail not certified within {policy.max_terms} terms")
        value[live], bound[live], used[live] = pending[0], pending[1], n
    return value, bound, used, converged


def term_ratios(
    upper: tuple[complex, ...], lower: tuple[complex, ...], z: complex, ns: np.ndarray
) -> np.ndarray:
    """One-step ratios t_{n+1}/t_n = z prod(a+n) / (prod(b+n) (n+1)) of pFq at the indices ns,
    float64 when z and every parameter are floats, else complex128."""
    ratios = np.full(len(ns), z)
    for a in upper:
        ratios = ratios * (a + ns)
    for b in lower:
        ratios = ratios / (b + ns)
    return ratios / (ns + 1)


def _raabe_shape(A: list[float], B: list[float]) -> tuple[float, float, list] | None:
    """sigma = sum(B - A), s = sum(B^2 - A^2)/(2 sigma), and the pieces (x1, x2) of
    each pair on which (s-x)/(m+x) keeps its sign: from A_i to s clipped to the pair,
    and on to B_i.  None unless sigma > 1."""
    sigma = sum(B) - sum(A)
    if sigma <= 1.0:
        return None
    s = sum(b * b - a * a for a, b in zip(A, B)) / (2.0 * sigma)
    clipped = [sorted((a, s, b))[1] for a, b in zip(A, B)]
    return sigma, s, [cut for a, c, b in zip(A, clipped, B) for cut in ((a, c), (c, b))]


def _telescope(A: list[float], B: list[float], sigma: float) -> tuple[list[float], list[float], list[float]]:
    """The fourth-order tail bracket of a real series at z = 1 whose term ratio
    is r(m) = P(m)/Q(m), P = prod(m + A_i), Q = prod(m + B_i), D factors each,
    built once per sum from its sigma = sum(B) - sum(A) > 1 (``_raabe_shape``).

    With g(m) = G(m)/((m+1)(m+2)), G = sum_j g_j m^j cubic, every term
    telescopes: t_m = g(m) t_m - g(m+1) t_{m+1} + e(m) t_m, where
    e(m) = 1 - g(m) + g(m+1) r(m) = n(m) / ((m+1)(m+2)(m+3) Q(m)) and
    n(m) = (m+1)(m+2)(m+3) Q - G(m)(m+3) Q + G(m+1)(m+1) P.  As sigma > 1,
    g(M) grows like M and t_M falls like M^-sigma, so g(M) t_M -> 0 and the
    tail from N is T_N = g(N) t_N + sum_{m >= N} e(m) t_m.  In n = (m+1)(m+2)(m+3) Q +
    sum_j g_j V_j, V_j = (m+1)^(j+1) P - m^j (m+3) Q has m^(D+j+1) coefficient
    0 and m^(D+j) coefficient j - 2 - sigma, so the m^(D+3) .. m^D
    coefficients of n are a triangular system in g_3 .. g_0 with pivots
    1 - sigma, -sigma, -1 - sigma, -2 - sigma, nonzero for sigma > 1
    (g_3 = 1/(sigma - 1), the second-order slope).  Solved top-down, it leaves
    n of degree D - 1, so e(m) = O(m^-4).  The identity holds for whatever
    g_j are used, so the bound does not rest on that cancellation: it takes
    every computed coefficient n_j, j = 0..D+3, each raised by gamma =
    k u/(1 - k u), k = 2D + 16, times its magnitude sum (the same build on
    |A_i|, |B_i| and |g_j|, with V_j a sum) for the rounding of the build.
    Along any path of it a coefficient rounds at most 2D + 10 times: twice
    per factor m + A_i, once per factor m + 1, once in V_j, once in g_j V_j
    and four times in the sum; six more cover the rounding of the magnitude
    sum and of the bound itself.  Returns (g_0..g_3, the offsets of
    (m+1)(m+2)(m+3) Q sorted ascending, those |n_j| bounds), never None.
    """
    D = len(A)

    def chains(A: list[float], B: list[float]) -> tuple[list[list[float]], list[list[float]]]:
        # (m+1)^(j+1) P and m^j (m+3) Q for j = 0..3 up to m^(D+3): only (m+1)^4 P and
        # m^3 (m+3) Q reach m^(D+4), both with coefficient exactly 1, which cancel in V_3
        P, Q3 = _expand(A, 3), _expand(B + [3.0], 2)
        rising = []
        for _ in range(4):  # P times m + 1, in place from the top
            for i in range(D + 3, 0, -1):
                P[i] += P[i - 1]
            rising.append(P[:])
        return rising, [[0.0] * j + Q3 for j in range(4)]

    def build(g: list[float], sign: float, parts: tuple) -> list[float]:
        # (m^2 + 3m + 2) (m+3) Q + sum_j g_j ((m+1)^(j+1) P + sign m^j (m+3) Q)
        g0, g1, g2, g3 = g
        return [
            q2 + 3.0 * q1 + 2.0 * q0 + g0 * (p0 + sign * q0) + g1 * (p1 + sign * q1)
            + g2 * (p2 + sign * q2) + g3 * (p3 + sign * q3)
            for p0, p1, p2, p3, q0, q1, q2, q3 in zip(*parts[0], *parts[1])
        ]

    # n = (m+1)(m+2)(m+3) Q + sum_j g_j V_j, V_j = (m+1)^(j+1) P - m^j (m+3) Q: the
    # m^(D+j) coefficient of n with g_0 .. g_(j-1) still 0 gives g_j
    values = chains(A, B)
    rising, shifted = values
    g = [0.0] * 4
    for j in (3, 2, 1, 0):
        top = shifted[2][D + j] + 3.0 * shifted[1][D + j] + 2.0 * shifted[0][D + j]
        for i in range(j + 1, 4):
            top += g[i] * (rising[i][D + j] - shifted[i][D + j])
        g[j] = top / (sigma + 2.0 - j)
    n = build(g, -1.0, values)
    # the magnitude sum: the same build on |A_i|, |B_i| and |g_j|, with V_j a sum
    if min(A[0], B[0]) < 0.0:
        values = chains([abs(a) for a in A], [abs(b) for b in B])
    nm = build([abs(x) for x in g], 1.0, values)
    k = 2 * D + 16
    gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    return g, sorted(B + [1.0, 2.0, 3.0]), [abs(x) + gamma * y for x, y in zip(n, nm)]


def _expand(roots: list[float], pad: int) -> list[float]:
    """Ascending coefficients of prod(m + r) over the roots, the last exactly 1,
    followed by pad zeros."""
    c = [1.0] + [0.0] * (len(roots) + pad)
    for k, r in enumerate(roots, 1):  # c times (m + r), in place from the top
        for i in range(k, 0, -1):
            c[i] = c[i - 1] + r * c[i]
        c[0] *= r
    return c


def _power_count(x: float, r: float, e: float) -> float:
    """Further terms k such that ((x + k)/x)^e >= r: those that shrink a bound falling
    like (n + s)^-e, x = n + s, by the factor r, with a margin of 2% and 8 terms."""
    return 1.02 * x * math.expm1(min(math.log(r) / e, 700.0)) + 8.0


def _series_sum(
    upper: tuple[complex, ...],
    lower: tuple[complex, ...],
    z: complex,
    policy: PrecisionPolicy,
) -> EvalResult:
    """Sum sum_n prod(a)_n/prod(b)_n/(1)_n * z^n with a certified tail."""
    z = complex(z)
    real = z.imag == 0.0 and all(v.imag == 0.0 for v in upper + lower)
    if real:  # float64 terms
        upper, lower, z = tuple(u.real for u in upper), tuple(l.real for l in lower), z.real
    az = abs(z)
    terminal = min(map(terminal_index, upper), default=math.inf)
    p, q = len(upper), len(lower)
    raabe = abs(az - 1.0) <= _UNIT_CIRCLE_TOL and p == q + 1
    floor = min((v.real for v in upper + lower), default=math.inf)
    if terminal >= policy.max_terms:  # no terminal index within the budget
        if p > q + 1 or (p == q + 1 and az > 1.0 + _UNIT_CIRCLE_TOL):
            # term ratios that tend to infinity, or to |z| > 1: no tail is ever certified
            raise NoConvergenceError(
                f"tail not certified within {policy.max_terms} terms: "
                "the terms grow past the budget"
            )
        if raabe and policy.max_terms + floor <= 0.0:
            # the Raabe tail needs n + Re(parameter) > 0 for every parameter
            raise NoConvergenceError(
                f"tail not certified within {policy.max_terms} terms: the index cannot pass "
                f"the parameter {floor!r} within the budget"
            )
    B = sorted([l.real for l in lower] + [1.0])  # with the 1 of n!
    telescope = None
    if raabe:
        z = z / az if az > 1.0 else z  # past the circle the series diverges: summed at z/|z|
        if real:  # the majorant is the ratio itself, the same at every n
            A = sorted(upper)
            real_shape = _raabe_shape(A, B)
            telescope = _telescope(A, B, real_shape[0]) if z == 1.0 and real_shape else None
    else:
        alphas = sorted(abs(u) for u in upper)
    t = 1.0  # first term of the next chunk

    def chunk_terms(ns: np.ndarray) -> np.ndarray:
        nonlocal t
        ratios = term_ratios(upper, lower, z, ns)
        terms = t * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
        t = terms[-1] * ratios[-1]
        return terms

    def geometric_tail(n: int, total: complex):
        rho = _geometric_ratio_envelope(alphas, B, az, n)
        if rho < 1.0:
            # k more terms multiply the bound by at most rho^k: rho bounds every later
            # ratio, and 1 - rho only grows
            more = lambda r: math.log(r) / -math.log(rho) + 1.0
            return complex(total), float(abs(t)) / (1.0 - rho), more
        return None

    def raabe_tail(n: int, total: complex):
        # r(m) = prod (m+A_i)/(m+B_i) >= |t_{m+1}/t_m| for m >= n (equal for real parameters)
        # pairs sorted upper with sorted lower parameters and the 1 of n!; |u+m| <= m + Re u
        # + (Im u)^2/(2(n + Re u)).  With sigma = sum(B - A), s = sum(B^2 - A^2)/(2 sigma),
        # (m+s) log(1/r(m)) = sigma + sum int_A^B (s-x)/(m+x) dx, whose negative parts shrink
        # as m grows: it is at least sigma_lo for all m >= n.
        if n + floor <= 0.0:
            return None
        if not real:
            A = sorted(u.real + u.imag**2 / (2.0 * (n + u.real)) for u in upper)
        shape = real_shape if real else _raabe_shape(A, B)
        if shape is None or n + shape[1] <= 0.0:
            return None
        sigma, s, cuts = shape
        sigma_lo = sigma + sum(
            min((n + s) * math.log1p((x2 - x1) / (n + x1)) - (x2 - x1), 0.0) for x1, x2 in cuts
        )
        if sigma_lo <= 1.0:
            return None
        # Sum r(m) <= (m+s)/(m+s+sigma_lo) by 2F1(x, 1; y; 1) = (y-1)/(y-x-1) bounds
        # sum_{m>=n} |t_m|: the first-order tail, all that complex terms or z != 1 get.
        upper_tail = float(abs(t)) * (n + s + sigma_lo - 1.0) / (sigma_lo - 1.0)
        # |t_N| <= |t_n| ((n+s)/(N+s))^sigma_lo, so this bound falls like (N+s)^-(sigma_lo-1)
        first_order = complex(total), upper_tail, lambda r: _power_count(n + s, r, sigma_lo - 1.0)
        if telescope is None:
            return first_order
        # Real terms at z = 1 (see _telescope): T_n = g(n) t_n + sum e(m) t_m, with
        # |e(m)| <= sum_j |n_j| sup_{m>=n} m^j / ((m+1)(m+2)(m+3) Q(m)) and that sup at
        # most prod_{i<j} max(n+b_i, n) / prod_i (n+b_i) over the offsets b ascending, as
        # m/(m+b) is at most max(1, n/(n+b)) and 1/(m+b) falls; n + b > 0 was checked above.
        G, offsets, nbound = telescope
        sup = 1.0 / math.prod(n + b for b in offsets)
        eps = nbound[0] * sup
        for j, b in enumerate(offsets, 1):
            sup *= max(n + b, n)
            eps += nbound[j] * sup
        mid = complex(total + (((G[3] * n + G[2]) * n + G[1]) * n + G[0]) / ((n + 1) * (n + 2)) * t)
        # 1e-14 |mid| is an allowance for the head sum's rounding, not a bound on it: it
        # does not grow with the terms summed (ROADMAP item 1)
        width = eps * upper_tail + 1e-14 * abs(mid)
        # A bracket still open at the budget is not returned.  Its rounding-level n_D..n_(D+3)
        # give it a floor that falls only like upper_tail, which can keep it open to the
        # budget, and a width near that floor can sit below the head sum's rounding, which no
        # part counts; the first-order pair is wider.  Before the budget it only sizes a chunk.
        if n >= policy.max_terms and width > policy.rel_tol * abs(mid) + policy.abs_tol:
            return first_order
        if width < upper_tail:  # eps = O(n^-4): the width falls like (N+s)^-(sigma_lo+3)
            return mid, width, lambda r: _power_count(n + s, r, sigma_lo + 3.0)
        return first_order

    certify = raabe_tail if raabe else geometric_tail
    return chunked_sum(chunk_terms, certify, policy, terminal)


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


def half_power(a: complex | np.ndarray) -> complex | np.ndarray:
    """2^(-a) of a scalar or array, to an ulp in modulus: exp2(-Re a), times the phase
    exp(-i ln2 Im a) for complex a (exp(-a ln 2) rounds to about |a| ulps)."""
    mag = np.exp2(-np.real(a))
    return mag * np.exp(-1j * math.log(2.0) * np.imag(a)) if np.iscomplexobj(a) else mag


def two_f1_neg1(
    a: complex, b: complex, c: complex, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """2F1(a, b; c; -1).

    Terminating cases (a or b an exact nonpositive integer) are summed exactly at
    -1.  Otherwise the series is routed through the half-argument transform
    2F1(a,b;c;-1) = 2^(-a) 2F1(a, c-b; c; 1/2), whose geometrically decaying
    terms certify cleanly; the direct alternating sum at -1 stalls once b and
    c grow.  The terms are positive only for real a > 0 and c > max(b, 0):
    with c < b they alternate, and their cancellation loses digits that no
    bound counts yet (ROADMAP item 2).
    """
    a, b, c = complex(a), complex(b), complex(c)
    if is_nonpositive_integer(c):
        raise PoleError(f"lower parameter c={c} is a nonpositive integer")
    if min(map(terminal_index, (a, b)), default=math.inf) < math.inf:
        return _series_sum((a, b), (c,), -1.0, policy)
    res = _series_sum((a, c - b), (c,), 0.5, policy)
    scale = complex(half_power(a))
    return EvalResult(res.value * scale, res.tail_bound * abs(scale), res.terms_used, res.converged)


_WEIGHT_POWERS = {"inv": -1, "one": 0, "linear": 1, "square": 2, "cube": 3}


def weighted_pochhammer_sum(
    fp: FamilyParams, weight: str, policy: PrecisionPolicy = DEFAULT_POLICY
) -> EvalResult:
    """Direct summation of sum_n w(n) (a)_n prod((b+j)/k)_n / [prod((c+j)/k)_n (1)_n].

    This is the ground-truth side of the ladder lemmas; w is one of
    1/(n+1), 1, (n+1), (n+1)^2, (n+1)^3.  As (2)_n/(1)_n = n + 1, the weight
    (n+1)^d is d more parameter pairs (2; 1), or one (1; 2) for d = -1.
    """
    if weight not in _WEIGHT_POWERS:
        raise ValueError(f"unknown weight {weight!r}")
    d = _WEIGHT_POWERS[weight]
    violated = weighted_sum_region(complex(fp.a).real, complex(fp.b).real, fp.c, fp.order, d)
    if violated:
        raise ConstraintError(f"weight {weight} requires {violated}")
    upper = fp.upper_params() + (2.0,) * d + (1.0,) * -d
    lower = fp.lower_params() + (1.0,) * d + (2.0,) * -d
    return _series_sum(upper, lower, 1.0, policy)
