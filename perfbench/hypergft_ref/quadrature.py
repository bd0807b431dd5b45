"""Adaptive Gauss-Kronrod integration over [a, b] with a fixed evaluation budget.

The 7/15 pair gives the value from the Kronrod rule and the error estimate
from the (conservative) |Kronrod - Gauss| defect; the worst segment is
bisected until the summed estimate meets tolerance or the budget runs out.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError

# Kronrod-15 nodes (positive half) and weights; Gauss-7 weights sit on the
# odd-indexed nodes.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

DEFAULT_BUDGET = 1_000_000


def _gk15(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk: list[complex] = []
    kron = 0.0 + 0.0j
    for i, x in enumerate(_XK):
        if x == 0.0:
            v = f(mid)
            kron += _WK[i] * v
            fk.append(v)
        else:
            v1 = f(mid - half * x)
            v2 = f(mid + half * x)
            kron += _WK[i] * (v1 + v2)
            fk.append(v1 + v2)
    gauss = 0.0 + 0.0j
    for gi, ki in enumerate((1, 3, 5, 7)):
        gauss += _WG[gi] * fk[ki]
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    evaluations: int


def adaptive_quad(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if not b > a:
        raise ValueError("integration interval must have b > a")
    value, err = _gk15(f, a, b)
    evals = 15
    # Max-heap on error; counter breaks ties deterministically.
    heap: list[tuple[float, int, float, float, complex, float]] = []
    counter = 0
    heapq.heappush(heap, (-err, counter, a, b, value, err))
    total_err = err
    while total_err > tol and evals + 30 <= budget:
        neg_err, _, lo, hi, seg_val, seg_err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        value += v1 + v2 - seg_val
        total_err += e1 + e2 - seg_err
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        if mid == lo or mid == hi:
            break  # interval exhausted at double precision
    if total_err > tol:
        raise QuadratureError(
            f"quadrature error {total_err:.3e} above tolerance {tol:.3e} "
            f"after {evals} evaluations"
        )
    return QuadResult(value, total_err, evals)
