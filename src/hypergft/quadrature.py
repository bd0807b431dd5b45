"""Adaptive Gauss-Kronrod integration over [a, b] with a fixed evaluation budget.

The 7/15 pair gives the value from the Kronrod rule and the error estimate
from the (conservative) |Kronrod - Gauss| defect; the worst segment is
bisected until the summed estimate meets tolerance or the budget runs out.
The integrand f takes a 1-D array of nodes and returns its values there: a
rule's 15 nodes are one call, and a bisection's two halves (30 nodes) one more.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError

# Kronrod-15 nodes (positive half, then the centre) and weights, QUADPACK qk15
# rounded to the nearest double; Gauss-7 weights sit on the odd-indexed nodes.
_XK = np.array([
    0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.74153118559939444,
    0.58608723546769113, 0.405845151377397167, 0.207784955007898468, 0.0,
])
_WK = np.array([
    0.022935322010529225, 0.0630920926299785533, 0.104790010322250184, 0.140653259715525919,
    0.169004726639267903, 0.19035057806478541, 0.204432940075298892, 0.209482141084727828,
])
_WG = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945, 0.417959183673469388])

# The 15 nodes on [-1, 1] in ascending order, with full Kronrod and Gauss weight
# vectors (Gauss weight 0 on the Kronrod-only nodes).
_X15 = np.concatenate((-_XK, _XK[-2::-1]))
_WK15 = np.concatenate((_WK, _WK[-2::-1]))
_WG7 = np.zeros(15)
_WG7[1:8:2] = _WG
_WG7[9::2] = _WG[-2::-1]

DEFAULT_BUDGET = 1_000_000


def _gk15(
    f: Callable[[np.ndarray], np.ndarray], a: tuple[float, ...], b: tuple[float, ...]
) -> tuple[list[complex], list[float]]:
    """Kronrod values and |Kronrod - Gauss| defects of the segments [a_i, b_i],
    with f called once on the nodes of all of them."""
    lo, hi = np.array(a), np.array(b)
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _X15
    fx = np.asarray(f(x.ravel()), complex).reshape(x.shape)
    kron = half * (fx @ _WK15)
    gauss = half * (fx @ _WG7)
    return kron.tolist(), np.abs(kron - gauss).tolist()


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    evaluations: int


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol; f maps an array of
    nodes to the array of its values."""
    if not b > a:
        raise ValueError("integration interval must have b > a")
    (value,), (err,) = _gk15(f, (a,), (b,))
    evals = 15
    # Max-heap on error; counter breaks ties deterministically.
    heap: list[tuple[float, int, float, float, complex, float]] = []
    counter = 0
    heapq.heappush(heap, (-err, counter, a, b, value, err))
    total_err = err
    while total_err > tol and evals + 30 <= budget:
        neg_err, _, lo, hi, seg_val, seg_err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, v2), (e1, e2) = _gk15(f, (lo, mid), (mid, hi))
        evals += 30
        value += v1 + v2 - seg_val
        total_err += e1 + e2 - seg_err
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        if mid == lo or mid == hi:
            break  # interval exhausted at double precision
    if not total_err <= tol:  # a NaN estimate is a failure too
        raise QuadratureError(
            f"quadrature error {total_err:.3e} above tolerance {tol:.3e} "
            f"after {evals} evaluations"
        )
    return QuadResult(value, total_err, evals)
