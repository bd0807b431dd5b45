import math

import numpy as np
import pytest

from hypergft.errors import QuadratureError
from hypergft.quadrature import _WG7, _WK15, _X15, adaptive_quad


@pytest.mark.parametrize("d", range(23))
def test_rules_integrate_monomials(d):
    # K15 is exact through degree 22 and G7 through degree 13 on [-1, 1].
    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    assert abs(_WK15 @ _X15**d - exact) <= 1e-15
    if d <= 13:
        assert abs(_WG7 @ _X15**d - exact) <= 1e-15


def test_one_array_call_per_rule():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.sqrt(x)

    res = adaptive_quad(f, 0.0, 1.0, 1e-10)
    assert sizes[0] == (15,) and set(sizes[1:]) == {(30,)}
    assert res.evaluations == 15 + 30 * (len(sizes) - 1)
    assert abs(res.value - 2.0 / 3.0) <= 1e-10


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: np.full(x.shape, math.nan), 0.0, 1.0, 1e-8)


def test_exhausted_interval_raises():
    # [1, 1 + 2 ulps] splits into single ulps, which cannot be bisected again: a step
    # there never meets tol 1e-300, and the loop ends with the budget unspent.
    hi = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    with pytest.raises(QuadratureError, match="after 75 evaluations"):
        adaptive_quad(lambda x: np.where(x > 1.0, 1.0, 0.0), 1.0, hi, 1e-300)
