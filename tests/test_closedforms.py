import cmath
import math
import random

import numpy as np
import pytest

from hypergft import closedforms
from hypergft.closedforms import (
    EULER_LEVELS,
    LemmaId,
    Section,
    _inner_2f1_batch,
    _ladder_blocks,
    euler_integral,
    family_prefactor,
    five_f4_at_1,
    four_f3_at_1,
    gauss_2f1_at_1,
    ladder_sum_block,
    lemma_closed_form,
    shpot_srivastava_3f2,
    split_outer_sum,
)
from hypergft.errors import ConstraintError, NoConvergenceError, PoleError, QuadratureError
from hypergft.families import Family, FamilyParams
from hypergft.numcore import DEFAULT_POLICY, PrecisionPolicy, gamma_ratio_with_error
from hypergft.series import PFQParams, pfq_eval, two_f1_neg1, weighted_pochhammer_sum

BIG = PrecisionPolicy(rel_tol=1e-12, max_terms=400_000)


def fp3(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT3)


def fp4(a, b, c):
    return FamilyParams(a, b, c, Family.SPLIT4)


def assert_close(x, y, rel=1e-10, extra=0.0):
    assert abs(x - y) <= rel * max(abs(x), abs(y), 1.0) + extra


class TestGauss:
    def test_a_zero(self):
        assert_close(gauss_2f1_at_1(0.0, 1.3, 2.9).value, 1.0, rel=1e-13)

    def test_telescoping_point(self):
        # 2F1(1,1;3;1): sum 2/((n+1)(n+2)) telescopes to 2.
        assert_close(gauss_2f1_at_1(1.0, 1.0, 3.0).value, 2.0, rel=1e-13)

    def test_half_half_two(self):
        assert_close(gauss_2f1_at_1(0.5, 0.5, 2.0).value, 4.0 / math.pi, rel=1e-13)

    def test_region_violations(self):
        with pytest.raises(ConstraintError):
            gauss_2f1_at_1(0.5, -1.0, 2.0)  # Re(b) <= 0
        with pytest.raises(ConstraintError):
            gauss_2f1_at_1(2.0, 1.0, 2.5)  # Re(c-a-b) <= 0

    def test_matches_series(self):
        for (a, b, c) in [(0.3, 0.7, 3.0), (1.2, 0.4, 4.5), (0.9, 1.9, 5.2)]:
            series = pfq_eval(PFQParams((a, b), (c,)), 1.0, BIG)
            closed = gauss_2f1_at_1(a, b, c).value
            assert abs(series.value - closed) <= 10 * (series.tail_bound + 1e-13 * abs(closed))


class TestShpotSrivastava:
    def test_small_a_limit(self):
        assert abs(shpot_srivastava_3f2(1e-12, 1.0, 2.0).value - 1.0) < 1e-9

    def test_against_direct_series(self):
        for (a, b, c) in [(0.5, 1.0, 2.0), (0.25, 0.5, 3.0), (0.4, 2.5, 1.25)]:
            closed = shpot_srivastava_3f2(a, b, c).value
            series = pfq_eval(PFQParams((a, b, c), (b + 1, c + 1)), 1.0, BIG)
            assert abs(series.value - closed) <= 1e-8 * abs(closed) + series.tail_bound

    def test_region_checks(self):
        with pytest.raises(ConstraintError):
            shpot_srivastava_3f2(0.5, 1.0, 1.0)  # b == c
        with pytest.raises(ConstraintError):
            shpot_srivastava_3f2(1.5, 1.0, 2.0)  # a >= 1
        with pytest.raises(ConstraintError):
            shpot_srivastava_3f2(-0.5, 1.0, 2.0)  # a <= 0


class TestFourF3AtOne:
    def test_collapses_to_one_for_tiny_a(self):
        res = four_f3_at_1(fp3(1e-9, 1.0, 4.0))
        assert abs(res.value - 1.0) < 1e-7

    def test_against_series(self):
        for (a, b, c) in [(0.5, 1.0, 4.0), (0.25, 0.5, 5.0), (1.5, 2.5, 9.0)]:
            fp = fp3(a, b, c)
            closed = four_f3_at_1(fp, BIG)
            series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, BIG)
            assert abs(closed.value - series.value) <= (
                1e-8 * abs(series.value) + closed.tail_bound + series.tail_bound
            )

    def test_region(self):
        with pytest.raises(ConstraintError):
            four_f3_at_1(fp3(2.0, 2.0, 4.0))

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            four_f3_at_1(fp4(0.5, 1.0, 4.0))


class TestFiveF4AtOne:
    def test_collapses_to_one_for_tiny_a(self):
        res = five_f4_at_1(fp4(1e-9, 1.0, 4.0))
        assert abs(res.value - 1.0) < 1e-7

    def test_against_series(self):
        for (a, b, c) in [(0.5, 1.0, 4.0), (0.5, 2.0, 6.0), (0.3, 1.7, 5.5)]:
            fp = fp4(a, b, c)
            closed = five_f4_at_1(fp, BIG)
            series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, BIG)
            assert abs(closed.value - series.value) <= (
                1e-8 * abs(series.value) + closed.tail_bound + series.tail_bound
            )

    def test_terminating_outer(self):
        # a a negative integer truncates the outer expansion exactly.
        fp = fp4(-2.0, 1.0, 6.0)
        closed = five_f4_at_1(fp, BIG)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, BIG)
        assert abs(closed.value - series.value) <= (
            1e-9 * abs(series.value) + closed.tail_bound + series.tail_bound
        )


class TestOuterEngineExits:
    """The three ways the chunked summation engine stops, on the outer caller."""

    def test_budget_exhausted_keeps_certified_bound(self):
        res = split_outer_sum(4, 0.3, 0.9, 6.0, PrecisionPolicy(max_terms=16))
        ref = split_outer_sum(4, 0.3, 0.9, 6.0)
        assert not res.converged and res.terms_used == 16
        assert math.isfinite(res.tail_bound)
        assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("a, b, c, every_cut", [
        (0.3, 0.9, 6.0, True),
        # Converged complex cuts miss the reference by rounding (up to 2.3 times
        # their bound), which no bound counts yet: only budget exits are checked.
        (0.3 + 0.2j, 0.9 - 0.4j, 6.0, False),
        # t^(b-1) oscillates: |term J| times rho misses the tail 17-fold at order 4
        (0.6 + 0.4j, 1.9 - 5.1j, 3.7, False),
    ], ids=["real", "complex", "oscillating"])
    def test_every_budget_exit_is_within_its_bound(self, order, a, b, c, every_cut):
        # The smallest cuts matter most: their observed term ratios sit furthest below
        # the 1/2 that later ratios climb to.
        ref = split_outer_sum(order, a, b, c)
        exits = 0
        for max_terms in range(1, 40):
            res = split_outer_sum(order, a, b, c, PrecisionPolicy(max_terms=max_terms))
            if res.converged and not every_cut:
                break
            exits += not res.converged
            assert abs(res.value - ref.value) <= res.tail_bound, max_terms
        assert exits > 15

    @pytest.mark.parametrize("order", [3, 4])
    def test_abs_tol_holds_after_the_seed(self, order):
        # The seed |Gamma(0.05)/Gamma(3)| = 9.7 multiplies the bound after the sum
        # stops: stopping on abs_tol unseeded would return twice abs_tol here.
        cut = split_outer_sum(order, 20.0, 0.05, 23.0, PrecisionPolicy(max_terms=64))
        tol = 0.5 * cut.tail_bound
        res = split_outer_sum(order, 20.0, 0.05, 23.0, PrecisionPolicy(rel_tol=1e-30, abs_tol=tol))
        assert res.converged and res.tail_bound <= tol

    def test_no_certificate_raises(self):
        # At a = 60.5 the ratio bound past the last index J = 63 of a 64-term
        # budget is 1/2 (a + J)/(J + 1) > 0.95: no tail is certified.
        with pytest.raises(NoConvergenceError):
            split_outer_sum(4, 60.5, 12.5, 80.0, PrecisionPolicy(max_terms=64))

    @pytest.mark.parametrize("order", [3, 4])
    def test_terminating_is_exact(self, order):
        # a = -2 ends the outer sum after three terms, each with a terminating inner 2F1.
        fp = FamilyParams(-2.0, 0.7, 3.5, Family(order))
        res = split_outer_sum(order, -2.0, 0.7, 3.5)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0)
        assert res.converged and res.tail_bound == 0.0 and res.terms_used == 3
        pref, _ = family_prefactor(-2.0, 0.7, 3.5)
        assert_close(pref * res.value, series.value, rel=1e-12)

    def test_near_integer_a_is_summed_in_full(self):
        # a within POLE_TOL of 0 is not 0: only an exact nonpositive integer ends
        # the sum early.  Cut after its first term, this sum missed by 1.85e-13.
        mpmath = pytest.importorskip("mpmath")
        a, b, c = 9e-13, 0.5, 3.0
        res = split_outer_sum(4, a, b, c)
        with mpmath.workdps(30):
            A, B, C = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
            ladder = mpmath.hyper([A] + [(B + j) / 4 for j in range(4)],
                                  [(C + j) / 4 for j in range(4)], 1)
            ref = float(ladder * mpmath.gamma(B) * mpmath.gamma(C - B)
                        / (mpmath.gamma(C) * mpmath.gamma(C - A - B)))
        assert res.converged and res.terms_used > 1
        assert abs(res.value - ref) <= res.tail_bound + 1e-14 * abs(ref)

    def test_near_integer_a_in_a_block(self):
        # G_-1 at a = 1 + 1e-13 sums S(a - 1, ...) with a - 1 = 1e-13 in full.
        mpmath = pytest.importorskip("mpmath")
        a, b, c = 1 + 1e-13, 4.5, 9.0
        res = ladder_sum_block(3, a, b, c, -1)
        with mpmath.workdps(30):
            A, B, C = mpmath.mpf(a) - 1, mpmath.mpf(b) - 3, mpmath.mpf(c) - 3
            ladder = mpmath.hyper([A] + [(B + j) / 3 for j in range(3)],
                                  [(C + j) / 3 for j in range(3)], 1)
            s = ladder * mpmath.gamma(B) * mpmath.gamma(C - B) / (
                mpmath.gamma(C) * mpmath.gamma(C - A - B))
            ref = float((C + 3 - A - 1 - B - 3) / A * s)
        assert res.converged and res.terms_used > 1
        assert abs(res.value - ref) <= res.tail_bound + 1e-14 * abs(ref)


class TestBatchedBlocks:
    """block_combination evaluates every missing block of a combination in one batch."""

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("a, b, c", [
        (0.3, 0.6, 4.0), (1.4, 2.2, 40.0), (0.3 + 0.2j, 1.1 - 0.4j, 12.0),
    ], ids=["real", "real-large-c", "complex"])
    def test_a_block_is_the_same_alone_or_batched(self, order, a, b, c):
        shifts = (3, 2, 1, 0, -1)
        batched = _ladder_blocks(order, a, b, c, shifts, DEFAULT_POLICY)
        for m, (block, seed_rel) in zip(shifts, batched):
            assert ladder_sum_block(order, a, b, c, m) == block, m
            for others in ((m,), (m, 0) if m else (m, 1), (-1, m) if m != -1 else (3, m)):
                again = _ladder_blocks(order, a, b, c, others, DEFAULT_POLICY)
                assert again[others.index(m)] == (block, seed_rel)

    @pytest.mark.parametrize("order", [3, 4])
    def test_seed_error_is_the_seed_of_the_block(self, order):
        # G_m sums S(a', b', c') = (a + m, b + k m, c + k m), whose seed is Gamma(b')/Gamma(c' - a')
        a, b, c = 0.3, 0.6, 9.0
        shifts = (2, 1, 0, -1)
        for m, (_, seed_rel) in zip(shifts, _ladder_blocks(order, a, b, c, shifts, DEFAULT_POLICY)):
            seed = gamma_ratio_with_error([b + order * m], [(c + order * m) - (a + m)])
            assert seed_rel == seed[1]

    @pytest.mark.parametrize("order", [3, 4])
    def test_retired_inner_rows_meet_the_inner_policy(self, order, monkeypatch):
        inner = []
        engine = closedforms.chunked_rows

        def spy(*args, **kwargs):
            res = engine(*args, **kwargs)
            if args[2] is closedforms._INNER_POLICY:
                inner.append(res)
            return res

        monkeypatch.setattr(closedforms, "chunked_rows", spy)
        closedforms.block_combination(order, 0.3, 0.6, 40.0, {2: 1.0, 1: -0.4})
        assert len(inner) == 1
        value, bound, used, converged = inner[0]
        assert converged.all()
        policy = closedforms._INNER_POLICY
        assert policy.rel_tol == 1e-17
        assert np.all(bound <= policy.rel_tol * np.abs(value) + policy.abs_tol)
        # the rows stop one by one: not every row ran the longest
        assert used.min() < used.max()


class TestComplexOuterPath:
    """The closed forms at complex a and b, whose outer tails are majorised
    through the real measure, against mpmath's pFq."""

    @pytest.mark.parametrize("order", [3, 4])
    def test_closed_form_and_lemmas(self, order, weighted_reference):
        fp = FamilyParams(0.3 + 0.2j, 1.1 - 0.4j, 12.0, Family(order))
        section = Section.SEC2 if order == 3 else Section.SEC3
        results = {0: (four_f3_at_1 if order == 3 else five_f4_at_1)(fp)}
        for part in (1, 2, 3, 4):
            lemma = LemmaId(section, part)
            results[lemma.power] = lemma_closed_form(lemma, fp)
        for d, res in results.items():
            ref = weighted_reference(fp.upper_params(), fp.lower_params(), 1.0, d)
            assert res.converged and abs(res.value - ref) <= res.tail_bound, (d, res, ref)


class TestLadderCollapse:
    def test_collapse_to_gauss(self):
        # With c = b + 1 all but one ladder entry cancels and the split
        # series degenerates to a plain Gauss evaluation.
        for (a, b) in [(0.3, 1.2), (0.6, 2.0), (0.45, 0.9)]:
            f3 = four_f3_at_1(fp3(a, b, b + 1.0), BIG)
            g3 = gauss_2f1_at_1(a, b / 3.0, (b + 3.0) / 3.0).value
            assert_close(f3.value, g3, rel=1e-9, extra=10 * f3.tail_bound)
            f4 = five_f4_at_1(fp4(a, b, b + 1.0), BIG)
            g4 = gauss_2f1_at_1(a, b / 4.0, (b + 4.0) / 4.0).value
            assert_close(f4.value, g4, rel=1e-9, extra=10 * f4.tail_bound)


class TestLemmaClosedForm:
    def test_part1_tiny_a(self):
        res = lemma_closed_form(LemmaId(Section.SEC2, 1), fp3(1e-9, 1.0, 4.0))
        assert abs(res.value - 1.0) < 1e-6

    @pytest.mark.parametrize("part,weight", [(1, "linear"), (2, "square"), (3, "cube")])
    def test_sec2_parts_match_weighted_sums(self, part, weight):
        fp = fp3(0.5, 1.0, 4.0 + 2.0 * part)
        lhs = weighted_pochhammer_sum(fp, weight, BIG)
        rhs = lemma_closed_form(LemmaId(Section.SEC2, part), fp, BIG)
        assert abs(lhs.value - rhs.value) <= (
            1e-8 * abs(lhs.value) + lhs.tail_bound + rhs.tail_bound
        )

    @pytest.mark.parametrize("part,weight", [(1, "linear"), (2, "square"), (3, "cube")])
    def test_sec3_parts_match_weighted_sums(self, part, weight):
        fp = fp4(0.25, 0.5, 4.0 + 2.0 * part)
        lhs = weighted_pochhammer_sum(fp, weight, BIG)
        rhs = lemma_closed_form(LemmaId(Section.SEC3, part), fp, BIG)
        assert abs(lhs.value - rhs.value) <= (
            1e-8 * abs(lhs.value) + lhs.tail_bound + rhs.tail_bound
        )

    @pytest.mark.parametrize("section,maker", [(Section.SEC2, fp3), (Section.SEC3, fp4)])
    def test_part4_matches_inv_weight(self, section, maker):
        for (a, b, c) in [(2.0, 6.0, 12.0), (0.5, 5.5, 10.0)]:
            fp = maker(a, b, c)
            lhs = weighted_pochhammer_sum(fp, "inv", BIG)
            rhs = lemma_closed_form(LemmaId(section, 4), fp, BIG)
            assert abs(lhs.value - rhs.value) <= (
                1e-8 * abs(lhs.value) + lhs.tail_bound + rhs.tail_bound
            )

    @pytest.mark.parametrize("order, b, c", [
        (3, 1.0000002, 6.0), (3, 0.9999998, 6.0), (4, 2.0000003, 8.527), (4, 1.00001, 8.527),
    ])
    def test_part4_near_its_poles_is_within_its_bound(self, order, b, c):
        # W_-1 next to the part-4 poles b = 1, 2 reflects log-gamma at arguments
        # within 1e-7 of an integer; each of these was off by 1e-4 to 2.5, past its bound
        mpmath = pytest.importorskip("mpmath")
        res = closedforms.block_combination(order, 0.5, b, c, {-1: 1.0})
        with mpmath.workdps(30):
            upper = [0.5] + [(mpmath.mpf(b) + j) / order for j in range(order)] + [1]
            lower = [(mpmath.mpf(c) + j) / order for j in range(order)] + [2]
            ref = complex(mpmath.hyper(upper, lower, 1))
        assert abs(res.value - ref) <= res.tail_bound

    def test_quartic_outer_divergence_boundary(self):
        # The ledger's quartic-part3-example-point (0.25, 0.5, 6): there the
        # t^2 expansion of (1+t^2)^(-a) stops decaying (2a+b-c+2m-1 = 0),
        # while the u = 2t/(1+t)^2 expansion decays like 2^(-j).
        for c in (6.0, 8.0):
            fp = fp4(0.25, 0.5, c)
            lhs = weighted_pochhammer_sum(fp, "cube", BIG)
            rhs = lemma_closed_form(LemmaId(Section.SEC3, 3), fp, BIG)
            assert rhs.converged
            assert abs(lhs.value - rhs.value) <= (
                1e-12 * abs(lhs.value) + lhs.tail_bound + rhs.tail_bound
            )

    def test_region_errors(self):
        with pytest.raises(ConstraintError):
            lemma_closed_form(LemmaId(Section.SEC2, 2), fp3(1.0, 1.0, 3.5))
        with pytest.raises(ConstraintError):
            lemma_closed_form(LemmaId(Section.SEC2, 4), fp3(1.0, 6.0, 12.0))  # a == 1
        with pytest.raises(ConstraintError):
            lemma_closed_form(LemmaId(Section.SEC3, 4), fp4(2.0, 3.0, 12.0))  # b in 1..4
        with pytest.raises(ValueError):
            lemma_closed_form(LemmaId(Section.SEC2, 1), fp4(0.5, 1.0, 6.0))

    def test_bad_part(self):
        with pytest.raises(ValueError):
            LemmaId(Section.SEC2, 5)


@pytest.mark.parametrize("closed_form, family, name", [
    (four_f3_at_1, Family.SPLIT3, "four_f3_at_1"),
    (five_f4_at_1, Family.SPLIT4, "five_f4_at_1"),
    (lambda fp: lemma_closed_form(LemmaId(Section.SEC3, 2), fp), Family.SPLIT4, "lemma-sec3-part2"),
])
def test_errors_name_the_closed_form(closed_form, family, name):
    # every W_d closed form runs one family check and one region check
    other = Family.SPLIT4 if family is Family.SPLIT3 else Family.SPLIT3
    with pytest.raises(ValueError, match=f"^{name} expects a {family.name} parameter set$"):
        closed_form(FamilyParams(0.5, 1.0, 6.0, other))
    with pytest.raises(ConstraintError, match=f"^{name} requires c > a \\+ b"):
        closed_form(FamilyParams(2.0, 2.0, 4.0, family))


class TestLadderReordering:
    def test_series_symmetric_in_ladder_order(self):
        # The closed forms are fed ladders; the underlying series does not
        # care how the materialized ladder entries are ordered.
        fp = fp3(0.4, 1.3, 5.0)
        up = list(fp.upper_params())
        lo = list(fp.lower_params())
        base = pfq_eval(PFQParams(tuple(up), tuple(lo)), 1.0, BIG)
        shuffled = pfq_eval(
            PFQParams((up[2], up[0], up[3], up[1]), (lo[1], lo[2], lo[0])), 1.0, BIG
        )
        assert abs(base.value - shuffled.value) <= (
            1e-10 * abs(base.value) + base.tail_bound + shuffled.tail_bound
        )


class TestSplitOuterSum:
    def test_prefactor_times_sum_is_series(self):
        a, b, c = 0.4, 1.1, 5.0
        s = split_outer_sum(3, a, b, c, BIG)
        pref, _ = family_prefactor(a, b, c)
        fp = fp3(a, b, c)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, BIG)
        assert abs(pref * s.value - series.value) <= (
            1e-9 * abs(series.value) + abs(pref) * s.tail_bound + series.tail_bound
        )

    def test_block_shift_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="shift must be at least -1"):
            ladder_sum_block(3, 0.4, 1.1, 5.0, -2)

    @pytest.mark.parametrize("order, a, b, c, shift", [
        (3, 0.5, 0.5, 2.0, 2),  # (c-a-b-2)_2 = (-1)(0)
        (3, 0.5, 0.5, 3.0, 2),  # (0)(1)
        (4, 0.5, 0.5, 2.0, 1),  # (0)
    ])
    def test_vanishing_pochhammer_denominator_is_a_pole(self, order, a, b, c, shift):
        with pytest.raises(PoleError, match=r"\(c-a-b-m\)_m vanishes at m = " + str(shift)):
            ladder_sum_block(order, a, b, c, shift)

    def test_shift_minus_one_at_a_one_is_a_pole(self):
        with pytest.raises(PoleError, match="a = 1"):
            ladder_sum_block(3, 1.0, 0.5, 5.0, -1)

    @pytest.mark.parametrize("order, a, b, c, match", [
        (3, 0.5, -3.0, 10.0, "outer seed Gamma"),  # b + 3 = 0
        (4, 0.5, -4.0, 10.0, "outer seed Gamma"),  # b + 4 = 0
        (3, 12.0, 0.5, 10.0, "outer seed 1/Gamma"),  # (c + 3) - (a + 1) = 0
    ])
    def test_seed_pole_of_a_shifted_row(self, order, a, b, c, match):
        with pytest.raises(PoleError, match=match):
            ladder_sum_block(order, a, b, c, 1)

    def test_outer_sum_is_the_block_g0(self):
        rng = random.Random(27)
        for i in range(200):
            order = 3 + i % 2
            b, c = rng.uniform(0.1, 3.0), rng.uniform(4.0, 30.0)
            a = (rng.uniform(-3.0, 3.0), complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
                 float(-rng.randint(0, 6)))[i % 3]
            assert split_outer_sum(order, a, b, c) == ladder_sum_block(order, a, b, c, 0), (a, b, c)

    def test_inner_matches_scalar_two_f1(self):
        # The batched half-argument kernel agrees with the scalar evaluator.
        a, b, c = 0.35, 1.4, 6.0
        for j in range(5):
            scalar = two_f1_neg1(a, b + 2 * j, c - a + 2 * j, BIG)
            vals, tails = _inner_2f1_batch(
                np.array([a], dtype=complex), np.array([c - a - b]),
                np.array([c - a + 2 * j], dtype=complex),
            )
            assert abs(vals[0] - scalar.value) <= 1e-12 * abs(scalar.value) + tails[0] + scalar.tail_bound

    def test_inner_batch_matches_mpmath(self):
        # Every row lies within its certified tail plus 1e-14 |ref|; the 1e-14
        # term is summation rounding, which no bound counts yet (ROADMAP item 1).
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(14)
        js = np.arange(64)
        batches = []
        for m in (0.3, 6.0, 160.0, complex(2.5, 1.5)):  # m = 160 runs into the second chunk
            a = complex(rng.uniform(0.05, 2.0), rng.uniform(-1.0, 1.0) if m.imag else 0.0)
            b = rng.uniform(0.1, 3.0)
            c = a + b + m
            batches.append((a + js, m, c - a + 2 * js))  # cubic rows of split_outer_sum
            batches.append((3 * a + 2 * js, m, c - a + js))  # quartic rows
        batches.append(([-3.0, 0.5, -7.0], 2.5, [4.5, 4.5, 9.1]))  # rows 0 and 2 terminate
        # ratios near 0.995 at 1/2: 4096 terms leave tails of 1e-13 relative
        budget = ([0.5, 1.0, 2.0, 0.3 + 0.4j], 1e6, [1e6 / 1.99] * 4)
        batches.append(budget)
        # one batch of every row but the budget's, a different m per row as in several blocks
        mixed = [np.concatenate([np.broadcast_to(batch[i], np.shape(batch[0]))
                                 for batch in batches[:-1]]) for i in range(3)]
        for A, m, C in batches + [mixed]:
            A, C = np.asarray(A, dtype=complex), np.asarray(C, dtype=complex)
            m = np.broadcast_to(np.asarray(m, dtype=complex), A.shape)
            vals, tails = _inner_2f1_batch(A, m, C)
            with mpmath.workdps(30):
                for Aj, mj, Cj, v, tail in zip(A, m, C, vals, tails):
                    ref = complex(mpmath.hyp2f1(complex(Aj), complex(Cj - mj), complex(Cj), -1,
                                                maxterms=10**6))
                    assert abs(v - ref) <= tail + 1e-14 * abs(ref), (Aj, mj, Cj)
            if m[0] == budget[1]:  # the budget ran out: no row met the 1e-17 stop
                assert np.all(tails > 1e-17 * np.abs(vals))


class TestEulerIntegral:
    def test_z_zero_is_beta_normalization(self):
        res = euler_integral("2f1", PFQParams((1.3, 0.8), (2.6,)), 0.0, 1e-10)
        assert_close(res.value, 1.0, rel=1e-9)

    def test_log_point(self):
        # 2F1(1,1;2;1/2) = 2 log 2; integration runs over upper[0].
        res = euler_integral("2f1", PFQParams((1.0, 1.0), (2.0,)), 0.5, 1e-11)
        assert_close(res.value, 2.0 * math.log(2.0), rel=1e-9)

    def test_singular_endpoint(self):
        # Re(upper[0]) < 1 exercises the endpoint substitution.
        params = PFQParams((0.3, 0.9), (1.7,))
        res = euler_integral("2f1", params, 0.4, 1e-10)
        series = pfq_eval(params, 0.4, BIG)
        assert_close(res.value, series.value, rel=1e-8, extra=res.tail_bound)

    def test_quadratic_argument_form(self):
        a, b, c = 0.7, 1.2, 3.0
        params = PFQParams((a, b / 2, (b + 1) / 2), (c / 2, (c + 1) / 2))
        res = euler_integral("3f2quad", params, 0.3, 1e-10)
        series = pfq_eval(params, 0.3, BIG)
        assert_close(res.value, series.value, rel=1e-8, extra=res.tail_bound)

    def test_4f3_ladder(self):
        fp = fp3(0.4, 1.0, 4.0)
        params = PFQParams(fp.upper_params(), fp.lower_params())
        res = euler_integral("4f3", params, 0.3, 1e-9)
        series = pfq_eval(params, 0.3, BIG)
        assert_close(res.value, series.value, rel=1e-7, extra=res.tail_bound)

    def test_generic_level(self):
        params = PFQParams((0.9, 0.7, 1.3), (2.1, 1.8))
        res = euler_integral("pfq", params, 0.5, 1e-9)
        series = pfq_eval(params, 0.5, BIG)
        assert_close(res.value, series.value, rel=1e-7, extra=res.tail_bound)

    def test_pfq_level_on_a_2f1_is_the_closed_kernel(self):
        params = PFQParams((0.3, 0.9), (1.7,))
        generic, closed = (euler_integral(lv, params, 0.4) for lv in ("pfq", "2f1"))
        assert (generic.value, generic.tail_bound, generic.terms_used) == (
            closed.value, closed.tail_bound, closed.terms_used)

    @pytest.mark.parametrize("level", [lv for lv, shape in EULER_LEVELS.items() if shape])
    def test_level_rejects_another_shape(self, level):
        with pytest.raises(ConstraintError, match=f"{level} needs"):
            euler_integral(level, PFQParams((0.9, 0.7, 1.3, 0.5), (2.1, 1.8)), 0.4)

    def test_region_errors(self):
        with pytest.raises(ConstraintError):
            euler_integral("2f1", PFQParams((1.0, 1.0), (0.5,)), 0.3, 1e-9)  # lower < upper
        with pytest.raises(ConstraintError):
            euler_integral("2f1", PFQParams((1.0, 1.0), (2.0,)), 1.0, 1e-9)  # |z| not < 1

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureError):
            euler_integral("2f1", PFQParams((0.3, 0.9), (1.7,)), 0.4, 1e-14, budget=120)

    @pytest.mark.parametrize("quad_tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("level, params", [
        ("2f1", PFQParams((0.3, 0.9), (1.7,))),
        ("pfq", PFQParams((0.9, 0.7, 1.3), (2.1, 1.8))),
    ])
    def test_unreachable_tolerance_rejected_at_entry(self, level, params, quad_tol):
        with pytest.raises(ValueError, match="quad_tol"):
            euler_integral(level, params, 0.4, quad_tol, budget=60)

    @pytest.mark.parametrize("level, params, z, quad_tol, evaluations", [
        ("2f1", PFQParams((0.3, 0.9), (1.7,)), 0.4, 1e-12, 750),
        ("4f3", PFQParams(fp3(0.4, 1.0, 4.0).upper_params(), fp3(0.4, 1.0, 4.0).lower_params()),
         0.6, 1e-10, 270),
        ("pfq", PFQParams((0.9, 0.7, 1.3), (2.1, 1.8)), -0.5 + 0.3j, 1e-10, 810),
    ])
    def test_refinement_sequence_is_pinned(self, level, params, z, quad_tol, evaluations):
        # Kernel evaluations counted when each node was its own call: the same
        # segments are bisected, in the same order, now that a rule is one array call.
        assert euler_integral(level, params, z, quad_tol).terms_used == evaluations

    def test_unconverged_inner_sum_is_reported(self):
        # Five inner terms leave a certified tail of a few percent: inside the loose
        # quad_tol, yet the inner sum did not converge, so neither does the integral.
        mpmath = pytest.importorskip("mpmath")
        params = PFQParams((0.9, 0.7, 1.3), (2.1, 1.8))
        res = euler_integral("pfq", params, 0.5, 0.5, PrecisionPolicy(max_terms=5))
        assert not res.converged and res.tail_bound <= 0.5
        with mpmath.workdps(30):
            ref = complex(mpmath.hyper([0.9, 0.7, 1.3], [2.1, 1.8], 0.5))
        assert abs(res.value - ref) <= res.tail_bound
        assert abs(res.value - ref) > 1e-6  # the inner truncation shows in the value


def _euler_draw(rng, level):
    """Seeded (params, z) for the 4f3 or pfq level: complex parameters, with
    Re lower[0] > Re upper[0] > 0, and negative or complex z (|z| < 1 where p = q + 1)."""
    def cx(lo, hi, im=0.4):
        return complex(rng.uniform(lo, hi), rng.uniform(-im, im))

    p, q = (4, 3) if level == "4f3" else rng.choice([(3, 2), (2, 2), (3, 3)])
    first = cx(0.2, 1.5)
    upper = (first,) + tuple(cx(0.1, 2.0) for _ in range(p - 1))
    lower = (first + cx(0.4, 2.5),) + tuple(cx(0.6, 3.0) for _ in range(q - 1))
    radius = 0.85 if p == q + 1 else 4.0
    if rng.random() < 0.5:
        z = -rng.uniform(0.05, radius)
    else:
        z = cmath.rect(rng.uniform(0.05, radius), rng.uniform(-math.pi, math.pi))
    return PFQParams(upper, lower), z


@pytest.mark.parametrize("level", ["4f3", "pfq"])
def test_euler_bound_covers_mpmath(level):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(f"euler-mpmath/{level}")
    for _ in range(30):
        params, z = _euler_draw(rng, level)
        res = euler_integral(level, params, z, 1e-10)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyper([mpmath.mpc(u) for u in params.upper],
                                       [mpmath.mpc(l) for l in params.lower], mpmath.mpc(z)))
        assert res.converged
        assert abs(res.value - ref) <= res.tail_bound, (params, z, res, ref)
