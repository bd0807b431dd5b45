"""Direct series evaluation on the package's two chunked summation loops.

``chunked_sum`` sums one series and ``chunked_rows`` a batch of rows along the
last axis, each row stopping on its own; the caller picks the one it needs.
Each loop owns its chunk ramp, the running sum, the exact stop at a
terminating index, the budget and the ``rel_tol * |total| + abs_tol`` test;
each caller passes a chunk-term function and a tail certifier.  A sum ends
early only at an exact nonpositive integer upper parameter
(``numcore.terminal_index``); a terminal index past the term budget counts as
none, so the certified tail closes that sum.  Plain pFq series and the weighted
ladder sums (terms from the one-step ratio recurrence) go through
``chunked_sum`` with one of two certifiers:

* geometric - for |z| < 1 (or p <= q) the future term ratios are bounded by
  a monotone rational envelope R(n) built from parameter moduli, giving
  tail <= |t_{n+1}| / (1 - R(n+1));
* Raabe - on the unit circle with p = q + 1 a real majorant of the term
  ratios read from the parameters bounds the tail from index N by
  |t_N| (N+s+sigma_lo-1)/(sigma_lo-1).  A real series at z = 1 is closed by
  a second-order telescoped bracket instead (``_telescope``): with the term
  ratio P(m)/Q(m) and g(m) = (m+alpha)/(sigma-1), the tail is
  g(N) t_N + sum_{m>=N} e(m) t_m with |e(m)| = O(m^-2) bounded from the
  coefficients of P and Q, so its width falls like t_N/N, not like N t_N.

A single series runs a first chunk of 64 terms.  When its certified tail
misses the test, the certifier also counts the further terms that shrink the
bound to it, and the next chunk has that many, at most 4096: the geometric
bound falls at least like R(n)^k, the first-order Raabe bound like
(N+s)^-(sigma_lo-1) and the telescoped bracket like (N+s)^-(sigma_lo+1).  A
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


def _terminating_order(upper: tuple[complex, ...]) -> int | None:
    """Smallest m such that some upper parameter is exactly -m, else None."""
    m = min(map(terminal_index, upper), default=math.inf)
    return None if m == math.inf else int(m)


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


def _geometric_ratio_envelope(alphas: list[float], betas: list[float], az: float, n: int) -> float:
    """Upper bound R(n) on |t_{m+1}/t_m| for every m >= n, from alphas, the sorted
    moduli |a| of the upper parameters, and betas, the sorted real parts Re(b)
    of the lower ones with the 1 of n!, both sorted once per sum (with the
    pairs of a weight (m+2)^d/(m+1)^d added to them).

    Uses |a+m| <= m+|a| and |b+m| >= m+Re(b); each paired factor
    (m+alpha)/(m+beta) is monotone, so its supremum over m >= n is
    max(value at n, 1), and R(n) falls as n grows.  With p > q + 1 the ratios
    grow without bound: inf.
    """
    if betas[0] + n <= 0 or len(alphas) > len(betas):
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
    terminal: int | None = None,
) -> EvalResult:
    """Sum one series chunk by chunk until its certified tail meets the policy.

    chunk_terms(ns) gives the terms at indices ns; certify_tail(n, total), after
    n terms, gives (value, truncation bound, more) or None.  terminal, when
    given, is the index of the last nonzero term within the budget: the sum
    stops there exactly, with no tail.  An exhausted budget returns the last
    certified pair with converged=False; no certificate at all raises.

    The first chunk has 64 terms.  A bound that misses the test by the factor
    r = bound / (rel_tol * |total| + abs_tol) sizes the next chunk at more(r)
    terms, the count its certifier predicts will shrink the bound by r, at most
    4096; a short count costs one more chunk.  Without a certificate the chunks
    follow the ramp 64, 256, 1024, 4096.
    """
    cap = _CHUNK_RAMP[-1]
    total = 0.0  # takes the dtype of the terms
    n = 0
    chunk_idx = 0
    wanted = None  # the next chunk as the last certificate counts it
    pending: tuple[complex, float] | None = None
    while n < policy.max_terms:
        chunk = _CHUNK_RAMP[min(chunk_idx, len(_CHUNK_RAMP) - 1)] if wanted is None else wanted
        chunk_idx += 1
        chunk = min(chunk, policy.max_terms - n)
        if terminal is not None:
            chunk = min(chunk, terminal + 1 - n)
        total = total + chunk_terms(np.arange(n, n + chunk)).sum()
        n += chunk
        scale = policy.rel_tol * abs(total) + policy.abs_tol
        if terminal is not None:
            if n > terminal:  # a nan total is not converged
                return EvalResult(complex(total), 0.0, n, bool(scale >= 0.0))
            continue
        cert = certify_tail(n, total)
        wanted = None
        if cert is not None:
            pending = cert[:2]
            if pending[1] <= scale:
                return EvalResult(*pending, n, True)
            more = cert[2](pending[1] / scale) if scale > 0.0 else math.inf
            wanted = max(1, math.ceil(more)) if more < cap else cap  # nan: the cap
    if pending is not None:
        return EvalResult(*pending, n, False)
    raise NoConvergenceError(f"tail not certified within {policy.max_terms} terms")


def chunked_rows(
    chunk_terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float | np.ndarray]],
    certify_tail: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    policy: PrecisionPolicy,
    rows: int,
    terminal: np.ndarray | None = None,
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
    batch.  terminal (inf: none) and abs_tol (default policy.abs_tol) are
    per-row arrays; a row stops after the chunk that passes its terminal
    index, whose later terms chunk_terms gives as zeros.  A terminal index
    past the budget counts as none: the certified tail closes that row.

    The first chunk, round(log2(1/rel_tol)) + 8 terms, is where terms decaying
    like 2^(-j) from the first reach rel_tol with a few to spare (48 at 1e-12,
    64 at 1e-17).  It runs twice, so a row that just misses its stop runs a
    short chunk, and the chunks then double up to 4096.
    """
    first = max(1, round(math.log2(1.0 / policy.rel_tol)) + 8)
    live = np.arange(rows)
    floor = np.full(rows, policy.abs_tol) if abs_tol is None else abs_tol
    # None, or per row (inf: none, and for an index the budget cannot reach)
    ends = None if terminal is None else np.where(terminal < policy.max_terms, terminal, np.inf)
    total, inner = 0.0, np.zeros(rows)
    pending = None  # per live row: the last certified (value, bound), bound inf if none
    value = None  # per row, filled as rows stop, like these:
    bound, used, converged = np.empty(rows), np.empty(rows, dtype=int), np.zeros(rows, dtype=bool)
    n = 0
    chunk_idx = 0
    while live.size and n < policy.max_terms:
        # first twice, then doubling up to 4096
        chunk = min(first << max(chunk_idx - 1, 0), 4096, policy.max_terms - n)
        chunk_idx += 1
        terms, err = chunk_terms(np.arange(n, n + chunk), live)
        total = total + terms.sum(axis=-1)
        inner = inner + err
        n += chunk
        if value is None:  # the dtype of the terms
            value = np.empty(rows, terms.dtype)
            pending = np.zeros(rows, terms.dtype), np.full(rows, np.inf)
        tails = certify_tail(n, terms, live)
        got = np.isfinite(tails) if ends is None else np.isfinite(tails) & (ends == np.inf)
        pending = np.where(got, total, pending[0]), np.where(got, tails + inner, pending[1])
        counted = n
        if ends is not None:  # the terms past a terminal index are zeros, and not counted
            ended = n > ends
            pending = np.where(ended, total, pending[0]), np.where(ended, inner, pending[1])
            counted = np.where(ended, ends + 1, n)
        met = pending[1] <= policy.rel_tol * np.abs(total) + floor
        stop = met if ends is None else met | ended
        if stop.any():
            done = live[stop]
            value[done], bound[done] = pending[0][stop], pending[1][stop]
            converged[done] = met[stop]
            used[done] = counted if ends is None else counted[stop]
            keep = ~stop
            live, total, inner, floor = live[keep], total[keep], inner[keep], floor[keep]
            pending = pending[0][keep], pending[1][keep]
            ends = None if ends is None else ends[keep]
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


def _telescope(A: list[float], B: list[float]) -> tuple[float, float, list[float]] | None:
    """The second-order tail bracket of a real series at z = 1 whose term ratio
    is r(m) = P(m)/Q(m), P = prod(m + A_i), Q = prod(m + B_i), built once per sum.

    With sigma = sum(B) - sum(A) and g(m) = (m + alpha)/(sigma - 1), every term
    telescopes: t_m = g(m) t_m - g(m+1) t_{m+1} + e(m) t_m, where
    e(m) = 1 - g(m) + g(m+1) r(m) = n(m) / ((sigma - 1) Q(m)) and
    n(m) = (sigma - 1) Q + (m + alpha)(P - Q) + P.  As g(M) t_M -> 0 for
    sigma > 1, the tail from N is T_N = g(N) t_N + sum_{m >= N} e(m) t_m.  The m^D
    coefficient of n(m) is 0, and alpha = ((sigma-1) q_1 + p_1 + p_2 - q_2)/sigma,
    p_k and q_k the m^(D-k) coefficients of P and Q, cancels the m^(D-1) one,
    so e(m) = O(m^-2).  The identity holds for whatever alpha and sigma - 1 are
    used, so the bound does not rest on that cancellation: it takes every
    coefficient n_j, j = 0..D, each raised by (2D + 8) u times its magnitude sum
    (the coefficients of the same build on absolute values) for the rounding
    of the build.  Returns (alpha, sigma - 1, those |n_j| bounds), or None
    unless sigma > 1.
    """
    sigma = sum(B) - sum(A)
    if sigma <= 1.0:
        return None
    D = len(A)
    P, Q = _expand(A), _expand(B)
    # the magnitude sums: the same build on |A_i| and |B_i|
    Pm = P if A[0] >= 0.0 else _expand([abs(a) for a in A])
    Qm = Q if B[0] >= 0.0 else _expand([abs(b) for b in B])
    sm1 = sigma - 1.0
    p2_q2 = P[D - 2] - Q[D - 2] if D >= 2 else 0.0
    alpha = (sm1 * Q[D - 1] + P[D - 1] + p2_q2) / sigma
    # P - Q from index 1, so that diff[k] is the m^k coefficient of m (P - Q); its
    # m^(D+1) coefficient P[D] - Q[D] is 0 and is left out
    diff = [0.0] + [x - y for x, y in zip(P, Q)]
    dmag = [0.0] + [x + y for x, y in zip(Pm, Qm)]
    u = (2 * D + 8) * 2.0**-53
    gamma = u / (1.0 - u)
    return alpha, sm1, [  # |n_k| for k = 0..D
        abs(sm1 * Q[k] + alpha * diff[k + 1] + diff[k] + P[k])
        + gamma * (sm1 * Qm[k] + abs(alpha) * dmag[k + 1] + dmag[k] + Pm[k])
        for k in range(D + 1)
    ]


def _expand(roots: list[float]) -> list[float]:
    """Ascending coefficients of prod(m + r) over the roots; the last is exactly 1."""
    c = [1.0]
    for r in roots:
        c = [r * x + y for x, y in zip(c + [0.0], [0.0] + c)]
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
    weight_power: int = 0,
) -> EvalResult:
    """Sum sum_n (n+1)^weight_power * prod(a)_n/prod(b)_n/(1)_n * z^n with a certified tail."""
    z = complex(z)
    real = z.imag == 0.0 and all(v.imag == 0.0 for v in upper + lower)
    if real:  # float64 terms
        upper, lower, z = tuple(u.real for u in upper), tuple(l.real for l in lower), z.real
    az = abs(z)
    terminal = _terminating_order(upper)
    if terminal is not None and terminal >= policy.max_terms:
        terminal = None  # past the budget: the certified tail must close it
    p, q = len(upper), len(lower)
    raabe = abs(az - 1.0) <= _UNIT_CIRCLE_TOL and p == q + 1
    floor = min(v.real for v in upper + lower)
    if terminal is None:
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
    d = weight_power
    # the ratio (m+A_i)/(m+B_i) pairs of the weight (m+2)^d/(m+1)^d and of n!
    extra_a, extra_b = [2.0] * d + [1.0] * -d, [1.0] + [1.0] * d + [2.0] * -d
    if raabe:
        z = z / az if az > 1.0 else z  # past the circle the series diverges: summed at z/|z|
        B = sorted([l.real for l in lower] + extra_b)
        if real:  # the majorant is the ratio itself, the same at every n
            A = sorted(list(upper) + extra_a)
            real_shape = _raabe_shape(A, B)
            telescope = _telescope(A, B) if z == 1.0 else None
        else:
            telescope = None
    else:
        alphas = sorted([abs(u) for u in upper] + extra_a)
        betas = sorted([l.real for l in lower] + extra_b)
    t = 1.0  # first term of the next chunk

    def chunk_terms(ns: np.ndarray) -> np.ndarray:
        nonlocal t
        ratios = term_ratios(upper, lower, z, ns)
        if weight_power:
            ratios *= ((ns + 2.0) / (ns + 1.0)) ** weight_power
        terms = t * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
        t = terms[-1] * ratios[-1]
        return terms

    def geometric_tail(n: int, total: complex):
        rho = _geometric_ratio_envelope(alphas, betas, az, n)
        if rho < 1.0:
            # k more terms multiply the bound by at most rho^k: rho bounds every later
            # ratio, and 1 - rho only grows
            more = lambda r: math.log(r) / -math.log(rho) + 1.0
            return complex(total), float(abs(t)) / (1.0 - rho), more
        return None

    def raabe_tail(n: int, total: complex):
        # r(m) = prod (m+A_i)/(m+B_i) >= |t_{m+1}/t_m| for m >= n (equal for real
        # parameters) pairs sorted upper with sorted lower parameters and the 1 of n!,
        # plus d pairs (2, 1) (one (1, 2) for d = -1); |u+m| <= m + Re u + (Im u)^2/
        # (2(n + Re u)).  With sigma = sum(B - A), s = sum(B^2 - A^2)/(2 sigma), (m+s)
        # log(1/r(m)) = sigma + sum int_A^B (s-x)/(m+x) dx, whose negative parts shrink
        # as m grows: it is at least sigma_lo for all m >= n.
        if n + floor <= 0.0:
            return None
        if not real:
            A = sorted([u.real + u.imag**2 / (2.0 * (n + u.real)) for u in upper] + extra_a)
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
        # |e(m)| <= sum_j |n_j| sup_{m>=n} m^j/Q(m) / (sigma-1) and that sup at most
        # prod_{i<j} max(n+B_i, n) / prod_i (n+B_i) over B ascending, as m/(m+B_i) is
        # at most max(1, n/(n+B_i)) and 1/(m+B_i) falls; n + B_i > 0 was checked above.
        alpha, sm1, nbound = telescope
        sup = 1.0 / math.prod(n + b for b in B)
        eps = nbound[0] * sup
        for j, b in enumerate(B, 1):
            sup *= max(n + b, n)
            eps += nbound[j] * sup
        mid = complex(total + (n + alpha) / sm1 * t)
        # 1e-14 covers summation rounding over ~1e6 terms
        width = eps / sm1 * upper_tail + 1e-14 * abs(mid)
        if width < upper_tail:  # eps = O(n^-2): the width falls like (N+s)^-(sigma_lo+1)
            return mid, width, lambda r: _power_count(n + s, r, sigma_lo + 1.0)
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
    if _terminating_order((a, b)) is not None:
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
    1/(n+1), 1, (n+1), (n+1)^2, (n+1)^3.
    """
    if weight not in _WEIGHT_POWERS:
        raise ValueError(f"unknown weight {weight!r}")
    d = _WEIGHT_POWERS[weight]
    violated = weighted_sum_region(complex(fp.a).real, complex(fp.b).real, fp.c, fp.order, d)
    if violated:
        raise ConstraintError(f"weight {weight} requires {violated}")
    return _series_sum(fp.upper_params(), fp.lower_params(), 1.0, policy, weight_power=d)
