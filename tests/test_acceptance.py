"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion builds a deterministic report dict from seeded draws; the
determinism criterion rebuilds the full set and byte-compares the canonical
JSON.  Runtime caps are asserted on the first pass.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

from hypergft import closedforms as cf
from hypergft.certifier import (
    Verdict,
    certify_operator_mapping,
    hadamard_convolve,
    hypergeometric_coefficients,
)
from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
from hypergft.families import Family, FamilyParams
from hypergft.numcore import PrecisionPolicy, pochhammer, pochhammer_split_residual
from hypergft.oracle import (
    coefficient_condition_check,
    disc_sample_check,
    worst_case_coefficients,
)
from hypergft.series import PFQParams, pfq_eval, two_f1_neg1, weighted_pochhammer_sum

POLICY = PrecisionPolicy(rel_tol=1e-12, max_terms=150_000)
LEMMA_POLICY = PrecisionPolicy(rel_tol=1e-12, max_terms=300_000)


# --------------------------------------------------------------- criterion 1


def build_crit1() -> dict:
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        a = cmath.rect(rng.uniform(0.05, 10.0), rng.uniform(-math.pi, math.pi))
        k = rng.randint(1, 5)
        n = rng.randint(0, 30)
        worst = max(worst, pochhammer_split_residual(a, k, n))
    return {"criterion": 1, "draws": 1000, "max_residual": float(worst), "pass": bool(worst <= 1e-10)}


# --------------------------------------------------------------- criterion 2


def build_crit2() -> dict:
    rng = random.Random(202)
    violations = 0
    worst_ratio = 0.0
    for _ in range(500):
        a = rng.uniform(0.05, 2.5)
        b = rng.uniform(0.05, 2.5)
        c = a + b + rng.uniform(1.0, 5.0)  # Re(c-a-b) > 0.1 with headroom
        series = pfq_eval(PFQParams((a, b), (c,)), 1.0, POLICY)
        closed = cf.gauss_2f1_at_1(a, b, c).value
        budget = 10.0 * (series.tail_bound + 1e-13 * abs(closed))
        defect = abs(series.value - closed)
        worst_ratio = max(worst_ratio, defect / budget)
        if defect > budget:
            violations += 1
    return {
        "criterion": 2,
        "draws": 500,
        "violations": violations,
        "worst_defect_over_budget": float(worst_ratio),
        "pass": bool(violations == 0),
    }


# --------------------------------------------------------------- criterion 3


def build_crit3() -> dict:
    rng = random.Random(303)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(0.05, 0.95)  # margin 0.05 below the a < 1 boundary
        b = rng.uniform(0.1, 4.0)
        c = rng.uniform(0.1, 4.0)
        while abs(b - c) < 0.05:
            c = rng.uniform(0.1, 4.0)
        closed = cf.shpot_srivastava_3f2(a, b, c).value
        series = pfq_eval(
            PFQParams((a, b, c), (b + 1.0, c + 1.0)), 1.0,
            PrecisionPolicy(rel_tol=1e-12, max_terms=400_000),
        )
        worst = max(worst, abs(series.value - closed) / abs(closed))
    return {"criterion": 3, "draws": 300, "max_residual": float(worst), "pass": bool(worst <= 1e-7)}


# --------------------------------------------------------------- criterion 4


def _printed_cubic_variant_diverges(a: float, b: float, c: float) -> bool:
    """Term growth witness for the index-ambiguous cubic summation.

    The variant with terms (a)_k (b)_k / ((c-a)_k k!) 2F1(-k, b+k; c-a+k; -1)
    (and a fortiori the one without the k!) has term magnitudes growing
    like 2^k; the reconciled expansion is what the evaluator ships.
    """
    mags = []
    for k in (10, 20, 30):
        t = abs(
            pochhammer(a, k) * pochhammer(b, k) / pochhammer(c - a, k) / math.factorial(k)
        ) * abs(two_f1_neg1(-k, b + k, c - a + k).value)
        mags.append(t)
    return mags[0] < mags[1] < mags[2]


def build_crit4() -> dict:
    rng = random.Random(404)
    worst3 = 0.0
    for _ in range(200):
        a = rng.uniform(0.05, 1.5)
        b = rng.uniform(0.1, 3.5)
        m = rng.uniform(0.75, min(5.0, 10.0 - a - b - 0.1))
        fp = FamilyParams(a, b, a + b + m, Family.SPLIT3)
        closed = cf.four_f3_at_1(fp, POLICY)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, POLICY)
        worst3 = max(worst3, abs(closed.value - series.value) / abs(series.value))
    worst4 = 0.0
    for _ in range(200):
        a = rng.uniform(0.05, 0.45)
        b = rng.uniform(0.1, 3.0)
        m = rng.uniform(0.75, 5.0)
        fp = FamilyParams(a, b, a + b + m, Family.SPLIT4)
        closed = cf.five_f4_at_1(fp, POLICY)
        series = pfq_eval(PFQParams(fp.upper_params(), fp.lower_params()), 1.0, POLICY)
        worst4 = max(worst4, abs(closed.value - series.value) / abs(series.value))
    diverges = _printed_cubic_variant_diverges(0.5, 1.0, 4.0)
    return {
        "criterion": 4,
        "draws_per_family": 200,
        "max_residual_cubic": float(worst3),
        "max_residual_quartic": float(worst4),
        "printed_cubic_variant_diverges": bool(diverges),
        "pass": bool(worst3 <= 1e-6 and worst4 <= 1e-6 and diverges),
    }


# --------------------------------------------------------------- criterion 5


_LEMMA_WEIGHTS = {1: "linear", 2: "square", 3: "cube", 4: "inv"}


def build_crit5() -> dict:
    rng = random.Random(505)
    parts: dict[str, float] = {}
    worst = 0.0
    for fam, sec in ((Family.SPLIT3, cf.Section.SEC2), (Family.SPLIT4, cf.Section.SEC3)):
        k = fam.order
        for part in (1, 2, 3, 4):
            part_worst = 0.0
            for _ in range(100):
                if part == 4:
                    a = rng.uniform(1.3, 2.8)
                    b = rng.uniform(k + 0.6, k + 4.0)
                    c = max(a + k - 1, a + b - 1) + a + rng.uniform(0.5, 3.0)
                else:
                    a = rng.uniform(0.05, 0.5)
                    b = rng.uniform(0.1, 2.5)
                    c = a + b + part + rng.uniform(1.5, 4.0)
                fp = FamilyParams(a, b, c, fam)
                lhs = weighted_pochhammer_sum(fp, _LEMMA_WEIGHTS[part], LEMMA_POLICY)
                rhs = cf.lemma_closed_form(cf.LemmaId(sec, part), fp, LEMMA_POLICY)
                part_worst = max(part_worst, abs(lhs.value - rhs.value) / abs(lhs.value))
            parts[f"{sec.value}-part{part}"] = float(part_worst)
            worst = max(worst, part_worst)
    return {
        "criterion": 5,
        "draws_per_part": 100,
        "max_residual": float(worst),
        "per_part": parts,
        "pass": bool(worst <= 1e-6),
    }


# --------------------------------------------------------------- criterion 6


_SOUNDNESS_COMBOS: list[tuple[Family, str, ClassKind]] = []
for _fam in (Family.SPLIT3, Family.SPLIT4):
    for _kind in ClassKind:
        _SOUNDNESS_COMBOS.append((_fam, "function", _kind))
    for _kind in ClassKind:
        _SOUNDNESS_COMBOS.append((_fam, "rbeta", _kind))
    for _kind in (ClassKind.STARLIKE, ClassKind.CONVEX, ClassKind.SP):
        _SOUNDNESS_COMBOS.append((_fam, "s", _kind))

_HYP_FLOOR = {
    ("function", ClassKind.STARLIKE): (1, 1),
    ("function", ClassKind.CONVEX): (2, 2),
    ("function", ClassKind.UCV): (2, 2),
    ("function", ClassKind.SP): (1, 1),
    ("rbeta", ClassKind.CONVEX): (1, 1),
    ("rbeta", ClassKind.UCV): (1, 1),
    ("s", ClassKind.STARLIKE): (2, 2),
    ("s", ClassKind.CONVEX): (3, 3),
    ("s", ClassKind.SP): (2, 2),
}


def build_crit6() -> dict:
    rng = random.Random(606)
    counts = {"certified": 0, "not_certified": 0, "inconclusive": 0}
    violations = 0
    per_combo: dict[str, int] = {}
    for fam, src, kind in _SOUNDNESS_COMBOS:
        k = fam.order
        certified_here = 0
        for _ in range(100):
            lam = rng.uniform(0.2, 1.0) if kind in (ClassKind.STARLIKE, ClassKind.CONVEX) else None
            beta = rng.uniform(0.0, 0.9) if src == "rbeta" else None
            if src == "rbeta" and kind in (ClassKind.STARLIKE, ClassKind.SP):
                a = rng.uniform(1.3, 2.2)
                b = rng.uniform(k + 0.6, k + 2.0)
                c = max(a + k - 1, a + b - 1) + a + rng.uniform(0.5, 20.0)
                if kind is ClassKind.STARLIKE and fam is Family.SPLIT4 and rng.random() < 0.3:
                    lam = 1.0
            else:
                a = rng.uniform(0.05, 0.6)
                b = rng.uniform(0.1, 1.2)
                floor, mtop = _HYP_FLOOR[(src, kind)]
                c_hyp = a + b + floor + 0.2
                c_conv = 2 * a + b + 2 * mtop + 1.2 if fam is Family.SPLIT4 else 0.0
                c = max(c_hyp, c_conv) + rng.uniform(0.3, 20.0)
            fp = FamilyParams(a, b, c, fam)
            spec = ClassSpec(kind, lam)
            source = SourceClass(SourceKind(src), beta)
            cert = certify_operator_mapping(fp, source, spec, POLICY)
            counts[cert.verdict.value] += 1
            if cert.verdict is Verdict.CERTIFIED:
                certified_here += 1
                target = hadamard_convolve(
                    hypergeometric_coefficients(fp, 500), worst_case_coefficients(source, 500)
                )
                if not coefficient_condition_check(target, spec).passed:
                    violations += 1
                if not disc_sample_check(target, spec).passed:
                    violations += 1
        per_combo[f"{fam.name.lower()}.{src}.{kind.value}"] = certified_here
    return {
        "criterion": 6,
        "draws_per_combo": 100,
        "combos": len(_SOUNDNESS_COMBOS),
        "verdicts": counts,
        "certified_per_combo": per_combo,
        "oracle_violations": violations,
        "pass": bool(violations == 0),
    }


# --------------------------------------------------------------- criterion 7


def build_crit7() -> dict:
    rng = random.Random(707)
    convex_passes = 0
    ucv_passes = 0
    counterexamples = 0
    for _ in range(200):
        lam = rng.uniform(0.2, 1.0)
        rho = rng.uniform(0.4, 0.95)
        scale = rng.uniform(0.005, 0.6)
        coeffs = [1.0] + [
            scale * rho ** n / (n * n) * rng.choice((1.0, -1.0)) for n in range(2, 15)
        ]
        f = np.array(coeffs)
        star = coefficient_condition_check(f, ClassSpec(ClassKind.STARLIKE, lam))
        conv = coefficient_condition_check(f, ClassSpec(ClassKind.CONVEX, lam))
        sp = coefficient_condition_check(f, ClassSpec(ClassKind.SP))
        ucv = coefficient_condition_check(f, ClassSpec(ClassKind.UCV))
        if conv.passed:
            convex_passes += 1
            if not star.passed:
                counterexamples += 1
        if ucv.passed:
            ucv_passes += 1
            if not sp.passed:
                counterexamples += 1
    return {
        "criterion": 7,
        "draws": 200,
        "convex_passes": convex_passes,
        "ucv_passes": ucv_passes,
        "counterexamples": counterexamples,
        "pass": bool(counterexamples == 0 and convex_passes >= 20 and ucv_passes >= 20),
    }


# --------------------------------------------------------------- criterion 8


def build_crit8() -> dict:
    rng = random.Random(808)
    worst = 0.0
    for i in range(50):
        level = ("2f1", "3f2quad", "4f3")[i % 3]
        z = rng.uniform(0.0, 0.7)
        if level == "2f1":
            b = rng.uniform(0.3, 2.0)
            a = rng.uniform(0.2, 1.5)
            c = b + rng.uniform(0.5, 3.0)
            params = PFQParams((b, a), (c,))
        elif level == "3f2quad":
            a = rng.uniform(0.2, 1.2)
            b = rng.uniform(0.3, 2.0)
            c = b + rng.uniform(0.5, 3.0)
            params = PFQParams((a, b / 2, (b + 1) / 2), (c / 2, (c + 1) / 2))
        else:
            a = rng.uniform(0.1, 0.9)
            b = rng.uniform(0.3, 2.0)
            c = 3 * a + b + rng.uniform(0.5, 3.0)
            fp = FamilyParams(a, b, c, Family.SPLIT3)
            params = PFQParams(fp.upper_params(), fp.lower_params())
        quad = cf.euler_integral(level, params, z, 1e-9, POLICY)
        series = pfq_eval(params, z, POLICY)
        worst = max(worst, abs(quad.value - series.value) / max(1.0, abs(series.value)))
    return {"criterion": 8, "draws": 50, "max_defect": float(worst), "pass": bool(worst <= 1e-7)}


# --------------------------------------------------------------- criterion 9


def build_crit9() -> dict:
    star1 = ClassSpec(ClassKind.STARLIKE, 1.0)
    half_plane = np.array([1.0] * 200)  # z/(1-z) truncated
    koebe = np.array([float(n) for n in range(1, 201)])
    identity = np.array((1.0,))

    rep_half = disc_sample_check(half_plane, star1)
    rep_koebe = disc_sample_check(koebe, ClassSpec(ClassKind.UCV))
    identity_ok = True
    identity_worst = 0.0
    for spec in (
        star1,
        ClassSpec(ClassKind.CONVEX, 1.0),
        ClassSpec(ClassKind.UCV),
        ClassSpec(ClassKind.SP),
    ):
        rep = disc_sample_check(identity, spec)
        identity_ok = identity_ok and rep.passed
        identity_worst = max(identity_worst, abs(rep.worst_value))
    ok = (
        (not rep_half.passed)
        and rep_half.worst_value >= 9.0
        and (not rep_koebe.passed)
        and identity_ok
        and identity_worst == 0.0
    )
    return {
        "criterion": 9,
        "half_plane_failed": bool(not rep_half.passed),
        "half_plane_worst": float(rep_half.worst_value),
        "koebe_ucv_failed": bool(not rep_koebe.passed),
        "identity_passes_all": bool(identity_ok),
        "identity_worst": float(identity_worst),
        "pass": bool(ok),
    }


BUILDERS = [
    (1, "pochhammer splitting residuals", build_crit1, 1.0),
    (2, "gauss summation vs direct series", build_crit2, 10.0),
    (3, "3F2(1) two-gamma closed form", build_crit3, 10.0),
    (4, "cubic/quartic ladder summations at 1", build_crit4, 60.0),
    (5, "weighted ladder lemma parts 1-4", build_crit5, 120.0),
    (6, "certification soundness vs oracles", build_crit6, 300.0),
    (7, "coefficient implication chain", build_crit7, 5.0),
    (8, "integral representation cross-check", build_crit8, 60.0),
    (9, "known falsifiers and the identity map", build_crit9, 1.0),
]


@pytest.fixture(scope="module")
def first_pass():
    out = {}
    for num, _name, builder, _cap in BUILDERS:
        t0 = time.perf_counter()
        report = builder()
        out[num] = (report, time.perf_counter() - t0)
    return out


def _check(first_pass, num):
    name = next(n for k, n, _, _ in BUILDERS if k == num)
    cap = next(c for k, _, _, c in BUILDERS if k == num)
    report, elapsed = first_pass[num]
    status = "PASS" if report["pass"] else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({name}, {elapsed:.2f}s) {json.dumps(report, sort_keys=True)}")
    assert report["pass"], report
    assert elapsed < cap, f"criterion {num} took {elapsed:.1f}s, cap {cap}s"


def test_criterion_01_pochhammer_split(first_pass):
    _check(first_pass, 1)


def test_criterion_02_gauss(first_pass):
    _check(first_pass, 2)


def test_criterion_03_two_gamma_3f2(first_pass):
    _check(first_pass, 3)


def test_criterion_04_ladder_summations(first_pass):
    _check(first_pass, 4)


def test_criterion_05_lemma_parts(first_pass):
    _check(first_pass, 5)


def test_criterion_06_soundness(first_pass):
    _check(first_pass, 6)


def test_criterion_07_implication_chain(first_pass):
    _check(first_pass, 7)


def test_criterion_08_integral_cross_check(first_pass):
    _check(first_pass, 8)


def test_criterion_09_falsifiers(first_pass):
    _check(first_pass, 9)


def test_criterion_10_determinism(first_pass):
    reference = json.dumps(
        {num: rep for num, (rep, _) in first_pass.items()}, sort_keys=True
    ).encode()
    second = json.dumps(
        {num: builder() for num, _, builder, _ in BUILDERS}, sort_keys=True
    ).encode()
    same = reference == second
    print(f"ACCEPTANCE 10: {'PASS' if same else 'FAIL'} (byte-identical reports on rerun)")
    assert same
