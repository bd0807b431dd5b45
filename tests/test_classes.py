import math

import pytest

from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind

# The paper's coefficient weights w(n), as lam -> n -> w.
PAPER_WEIGHTS = {
    ClassKind.STARLIKE: lambda lam, n: n + lam - 1.0,
    ClassKind.CONVEX: lambda lam, n: n * (n + lam - 1.0),
    ClassKind.UCV: lambda lam, n: n * (2.0 * n - 1.0),
    ClassKind.SP: lambda lam, n: 2.0 * n - 1.0,
}


def spec_of(kind, lam):
    return ClassSpec(kind, None if kind in (ClassKind.UCV, ClassKind.SP) else lam)


class TestClassSpec:
    @pytest.mark.parametrize("kind", list(ClassKind))
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, 0.77, 1.0])
    def test_weight_is_the_paper_weight(self, kind, lam):
        spec = spec_of(kind, lam)
        power, alpha, beta = spec.weight
        for n in range(1, 51):
            n = float(n)
            got = n ** (power - 1) * (alpha * n + beta)
            want = PAPER_WEIGHTS[kind](lam, n)
            assert abs(got - want) <= math.ulp(want), (kind, lam, n, got, want)

    def test_two_regions_times_the_lift(self):
        star, conv = ClassSpec(ClassKind.STARLIKE, 0.5), ClassSpec(ClassKind.CONVEX, 0.5)
        ucv, sp = ClassSpec(ClassKind.UCV), ClassSpec(ClassKind.SP)
        assert [s.lifted for s in (star, conv, ucv, sp)] == [False, True, True, False]
        assert [s.parabolic for s in (star, conv, ucv, sp)] == [False, False, True, True]
        # The lift raises the power by one and keeps the region's linear factor.
        for plain, lifted in ((star, conv), (sp, ucv)):
            assert lifted.weight == (plain.weight[0] + 1,) + plain.weight[1:]


class TestSourceClass:
    @pytest.mark.parametrize(
        "source, shift, growth",
        [
            (SourceClass(SourceKind.FUNCTION), 0, 2.0),
            (SourceClass(SourceKind.FULL_S), 1, 2.0),
            (SourceClass(SourceKind.RBETA, 0.0), -1, 1.5),
            (SourceClass(SourceKind.RBETA, 0.5), -1, 2.0),
            (SourceClass(SourceKind.RBETA, 0.3), -1, 1.0 + 1.0 / (2.0 * (1.0 - 0.3))),
            (SourceClass(SourceKind.RBETA, 0.9), -1, 1.0 + 1.0 / (2.0 * (1.0 - 0.9))),
        ],
    )
    def test_shift_and_growth(self, source, shift, growth):
        assert source.shift == shift
        assert 1.0 + 1.0 / source.scale == growth
