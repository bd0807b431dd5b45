"""Real parameters are summed in float64, anything else in complex128.

Every caller of the two summation loops, ``series.chunked_sum`` (one series)
and ``series.chunked_rows`` (a batch of rows), reads the dtype from its values
at entry; the real and the complex path are the same arithmetic, so they agree
within both tail bounds plus a few ulps of summation rounding.
"""
import random

import numpy as np
import pytest

from hypergft import closedforms, series
from hypergft.certifier import hadamard_convolve, hypergeometric_coefficients
from hypergft.classes import SourceClass, SourceKind
from hypergft.closedforms import split_outer_sum
from hypergft.families import Family, FamilyParams
from hypergft.numcore import PrecisionPolicy
from hypergft.oracle import worst_case_coefficients
from hypergft.series import PFQParams, pfq_eval, two_f1_neg1

U = 2.0**-53
NUDGE = 1e-300j  # a nonzero imaginary part that moves no value


@pytest.fixture
def term_blocks(monkeypatch):
    """(shape, dtype) of every block of terms a chunk function returns."""
    seen = []

    def spying(engine):
        def spy(chunk_terms, *args, **kwargs):
            def recorded(*ns_live):
                out = chunk_terms(*ns_live)
                terms = out[0] if isinstance(out, tuple) else out  # rows come with their errors
                seen.append((terms.shape, terms.dtype.name))
                return out

            return engine(recorded, *args, **kwargs)

        return spy

    monkeypatch.setattr(series, "chunked_sum", spying(series.chunked_sum))
    monkeypatch.setattr(closedforms, "chunked_rows", spying(closedforms.chunked_rows))
    return seen


def _nudged(values, i):
    return tuple(v + NUDGE if j == i else v for j, v in enumerate(values))


class TestTermDtype:
    @pytest.mark.parametrize("order", [3, 4])
    def test_split_outer_sum(self, order, term_blocks):
        # one outer row of round(log2(1/rel_tol)) + 8 terms, whose inner batch has
        # that many rows of 64 terms, the first chunk at the inner rel_tol 1e-17
        for policy, first in ((PrecisionPolicy(), 48), (PrecisionPolicy(rel_tol=1e-8), 35)):
            term_blocks.clear()
            split_outer_sum(order, 0.5, 0.7, 160.0, policy)
            assert {d for _, d in term_blocks} == {"float64"}
            assert {(1, first), (first, 64)} <= {shape for shape, _ in term_blocks}
            assert max(rows for (rows, _), _ in term_blocks) == first

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_split_outer_sum_complex(self, order, which, term_blocks):
        split_outer_sum(order, *_nudged((0.5, 0.7, 6.0), which))
        assert {((1, 48), "complex128"), ((48, 64), "complex128")} <= set(term_blocks)
        # the outer tail's majorant reads only real parts: one real row
        assert all(rows == 1 for (rows, _), d in term_blocks if d == "float64")

    @pytest.mark.parametrize("z", [0.5, -0.9, 1.0])
    def test_pfq_eval(self, z, term_blocks):
        pfq_eval(PFQParams((0.5, 1.5), (3.5,)), z)
        assert {d for _, d in term_blocks} == {"float64"}

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_pfq_eval_complex(self, which, term_blocks):
        up, lo, z = _nudged((0.5, 3.5, 0.5), which)
        pfq_eval(PFQParams((up, 1.5), (lo,)), z)
        assert {d for _, d in term_blocks} == {"complex128"}

    @pytest.mark.parametrize("a", [0.5, -3.0])  # half-argument and terminating routes
    def test_two_f1_neg1(self, a, term_blocks):
        two_f1_neg1(a, 1.5, 4.0)
        assert {d for _, d in term_blocks} == {"float64"}

    @pytest.mark.parametrize("a", [0.5, -3.0])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_two_f1_neg1_complex(self, a, which, term_blocks):
        two_f1_neg1(*_nudged((a, 1.5, 4.0), which))
        assert {d for _, d in term_blocks} == {"complex128"}


class TestCoefficientDtype:
    """The oracle target of real parameters is float64, the real part of the complex one."""

    @pytest.mark.parametrize("family", [Family.SPLIT3, Family.SPLIT4])
    def test_hypergeometric_coefficients(self, family):
        real = hypergeometric_coefficients(FamilyParams(0.3, 0.5, 6.0, family), 400)
        cplx = hypergeometric_coefficients(FamilyParams(0.3 + NUDGE, 0.5, 6.0, family), 400)
        assert (real.dtype.name, cplx.dtype.name) == ("float64", "complex128")
        # bit for bit the complex path's values, so the oracle reports do not move
        assert np.array_equal(real, cplx.real)
        source = SourceClass(SourceKind.RBETA, 0.3)
        assert hadamard_convolve(real, worst_case_coefficients(source, 400)).dtype.name == "float64"

    @pytest.mark.parametrize("family", [Family.SPLIT3, Family.SPLIT4])
    def test_complex_parameters(self, family):
        # Seeded draws with complex a, b or both, each bit for bit the running product of
        # the term ratios at z = 1, which divide by the real lower ladder.
        rng = random.Random(260 + family.order)
        for i in range(150):
            a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
            if i % 3 != 1:
                a = complex(a, rng.uniform(-3.0, 3.0))
            if i % 3 != 0:
                b = complex(b, rng.uniform(-3.0, 3.0))
            fp = FamilyParams(a, b, rng.uniform(0.05, 40.0), family)
            N = rng.randint(1, 600)
            ratios = series.term_ratios(fp.upper_params(), fp.lower_params(), 1.0, np.arange(N - 1))
            want = np.concatenate(([1.0 + 0.0j], np.cumprod(ratios)))
            got = hypergeometric_coefficients(fp, N)
            assert got.dtype.name == "complex128" and got.tobytes() == want.tobytes(), (a, b, N)


def _assert_same(real, cplx, size=None):
    """Within both tail bounds plus 64 ulps of size, the sum of the terms' moduli
    (|value| unless the terms cancel)."""
    assert type(real.value) is complex and type(cplx.value) is complex
    size = abs(real.value) if size is None else size
    assert abs(real.value - cplx.value) <= real.tail_bound + cplx.tail_bound + 64 * U * size


class TestSameAnswers:
    """Seeded draws, each once real and once with 1e-300j on one parameter."""

    DRAWS = 40

    @pytest.mark.parametrize("order", [3, 4])
    def test_split_outer_sum(self, order):
        rng = random.Random(150 + order)
        for i in range(self.DRAWS):
            a, b = rng.uniform(0.05, 1.5), rng.uniform(0.1, 3.0)
            # every fourth c is large enough for the inner rows' second chunk
            c = a + b + (rng.uniform(120.0, 165.0) if i % 4 == 0 else rng.uniform(0.5, 12.0))
            real = split_outer_sum(order, a, b, c)
            _assert_same(real, split_outer_sum(order, *_nudged((a, b, c), i % 3)))

    def test_pfq_eval(self):
        rng = random.Random(151)
        for i in range(self.DRAWS):
            a, b = rng.uniform(-4.5, 3.0), rng.uniform(0.1, 3.0)
            c = abs(a) + b + rng.uniform(1.5, 6.0)  # summable on the unit circle too
            z = (rng.uniform(-0.95, 0.95), 1.0, -1.0, rng.uniform(-30.0, 30.0))[i % 4]
            upper, lower = ((a, b), (c,)) if i % 4 < 3 else ((a,), (c, b))
            real = pfq_eval(PFQParams(upper, lower), z)
            up0, lo0, zc = _nudged((upper[0], lower[0], z), i % 3)
            cplx = pfq_eval(PFQParams((up0,) + upper[1:], (lo0,) + lower[1:]), zc)
            # |(a)_n| <= (|a|)_n and lower parameters are positive: a majorant of sum |t_n|
            size = pfq_eval(PFQParams(tuple(map(abs, upper)), lower), abs(z)).value.real
            _assert_same(real, cplx, size)

    def test_two_f1_neg1(self):
        rng = random.Random(152)
        for i in range(self.DRAWS):
            a = float(-rng.randrange(6)) if i % 5 == 0 else rng.uniform(0.05, 6.0)
            b = rng.uniform(0.1, 8.0)
            c = b + (rng.uniform(120.0, 165.0) if i % 4 == 0 else rng.uniform(0.2, 10.0))
            real = two_f1_neg1(a, b, c)
            _assert_same(real, two_f1_neg1(*_nudged((a, b, c), i % 3)))
