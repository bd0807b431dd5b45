"""Independent checks of workload outputs, run after the timed region.

Each check marks an input ``wrong`` when an independent computation
contradicts an output the program did not flag as failed:

  grid-sweep       a seeded subsample of CSV rows must match a direct
                   certify_* call on the row's parameters (verdict and lhs);
  certify-oracle   a ``certified`` verdict must pass both oracles;
  series-eval      a seeded subsample per stratum is compared with mpmath at
                   30 digits: |value - ref| <= tail_bound + 4u|ref|;
  identity-verify  the residual must not exceed the package's tolerance.

``KNOWN_DEFECTS`` names the wrong outputs the program gives at the commit that
added the benchmark (the seed baseline).  They are counted in wrong_share,
never skipped; ``correct`` is false when any other output is wrong.
"""
from __future__ import annotations

import random
from collections import defaultdict

from workloads import certificates

U = 2.0 ** -53
SERIES_ALLOWANCE_ULPS = 4
SERIES_CHECKS_PER_STRATUM = 40
GRID_ROWS_CHECKED = 120
MP_DIGITS = 30
# Summing at most max_terms = 1e5 terms in double precision, each built by a
# running product of ratios, errs by at most about 2e-11 of sum |t_n|.  A
# miss larger than this share of sum |t_n| is not rounding.
ROUNDING_GATE = 1e-9

KNOWN_DEFECTS = {
    "series-eval": "converged values whose error exceeds tail_bound + 4u|ref| "
                   "by no more than rounding explains (within 1e-9 of sum |t_n|): "
                   "tail_bound omits rounding, ROADMAP item 1",
    "certify-oracle": "certified rbeta -> starlike/sp verdicts with c < |a| + |b|: "
                      "the part-4 hypothesis admits c down to |a| + |b| - 1, where "
                      "Gamma(c - |a| - |b|) turns the left side negative",
    "identity-verify": "lemma residuals above tolerance whose closed form reports "
                       "converged=False, which identity_residual ignores (lemma-sec3 "
                       "in the verify sampler's regions)",
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"check/{workload}/{seed}")


# ------------------------------------------------------------ grid-sweep


def _check_grid(items, outcomes, seed):
    from hypergft.certifier import certify_function_class, certify_operator_mapping
    from hypergft.classes import ClassKind, ClassSpec, SourceClass, SourceKind
    from hypergft.errors import HypergftError
    from hypergft.families import FamilyParams, parse_family

    rows = [(i, row) for i, out in enumerate(outcomes) if not out["failed"] for row in out["rows"]]
    sample = _rng("grid-sweep", seed).sample(rows, min(GRID_ROWS_CHECKED, len(rows)))
    checked, wrong = set(), set()
    for i, row in sample:
        fam, source, klass, a, b, c, lam, beta, verdict, lhs = row.split(",")[:10]
        checked.add(i)
        fp = FamilyParams(float(a), float(b), float(c), parse_family(fam))
        spec = ClassSpec(ClassKind(klass), float(lam) if lam else None)
        try:
            if source == "function":
                cert = certify_function_class(fp, spec)
            else:
                src = SourceClass(SourceKind(source), float(beta) if beta else None)
                cert = certify_operator_mapping(fp, src, spec)
        except HypergftError:
            wrong.add(i)
            continue
        if cert.verdict.value != verdict or "%.17g" % float(cert.lhs) != lhs:
            wrong.add(i)
    return checked, wrong, set()


# -------------------------------------------------------- certify-oracle


def _check_certify(items, outcomes, seed):
    checked, wrong = set(), set()
    for i, out in enumerate(outcomes):
        if out["failed"]:
            continue
        checked.add(i)
        if out["verdict"] == "certified" and not (out["coeff_passed"] and out["disc_passed"]):
            wrong.add(i)
    known = {
        i for i in wrong
        if items[i]["source"] == "rbeta" and items[i]["class"] in ("starlike", "sp")
        and items[i]["c"] < abs(items[i]["a"]) + abs(items[i]["b"])
    }
    return checked, wrong, known


# ----------------------------------------------------------- series-eval


def _ladder_integral(a, b, c, k, weight):
    """sum_n w(n) (a)_n (b)_{kn} / ((c)_{kn} n!) as the Euler integral
    Gamma(c)/(Gamma(b)Gamma(c-b)) int_0^1 t^(b-1) (1-t)^(c-b-1) g(t^k) dt,
    where g(x) = sum_n w(n) (a)_n x^n / n! in closed form."""
    import mpmath
    from mpmath import mpf

    a, b, c = mpf(a), mpf(b), mpf(c)
    d = {"one": 0, "linear": 1, "square": 2, "cube": 3, "inv": -1}[weight]
    # (theta + 1)^d (1-x)^(-a) = P_d(y) (1-x)^(-a), y = x/(1-x), theta = x d/dx:
    # P_{j+1} = P_j + y(1+y) P_j' + a y P_j.
    poly = [mpf(1)]
    for _ in range(max(d, 0)):
        nxt = [mpf(0)] * (len(poly) + 1)
        for i, p in enumerate(poly):
            nxt[i] += p + i * p
            nxt[i + 1] += a * p + i * p
        poly = nxt

    def g(x, one_minus_x):
        if d == -1:
            if x == 0:
                return mpf(1)
            return -mpmath.expm1((1 - a) * mpmath.log(one_minus_x)) / ((1 - a) * x)
        y = x / one_minus_x
        return mpmath.polyval(poly[::-1], y) * one_minus_x ** (-a)

    # Substitutions t = v^(1/b) near 0 and 1 - t = w^(1/s) near 1 take the
    # endpoint powers t^(b-1) and (1-t)^(s-1) out of the integrands, where
    # s = c - a - b - d is the exponent the weighted integrand has at t = 1.
    s = c - a - b - d

    def left(v):
        t = v ** (1 / b)
        x = t ** k
        return (1 - t) ** (c - b - 1) * g(x, 1 - x) / b

    def right(w):  # 1 - t^k = u (1 + t + ... + t^(k-1)) stays exact near t = 1
        u = w ** (1 / s)
        t = 1 - u
        return t ** (b - 1) * u ** (c - b - s) * g(t ** k, u * sum(t ** j for j in range(k))) / s

    pref = mpmath.gamma(c) / (mpmath.gamma(b) * mpmath.gamma(c - b))
    return pref * (mpmath.quad(left, [0, mpf(0.5) ** b]) + mpmath.quad(right, [0, mpf(0.5) ** s]))


def series_reference(item: dict) -> complex:
    """The exact value of a series-eval input, at MP_DIGITS digits."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        fn = item["fn"]
        if fn == "neg1":
            ref = mpmath.hyp2f1(item["a"], item["b"], item["c"], -1)
        elif fn == "weighted":
            ref = _ladder_integral(item["a"], item["b"], item["c"], item["order"], item["weight"])
        elif "ladder" in item:
            a, b, c, k = item["ladder"]
            ref = _ladder_integral(a, b, c, k, "one")
        elif item["stratum"] == "shpot-at-1":
            # 3F2(a, b, c; b+1, c+1; 1) by the Shpot-Srivastava closed form.
            a, b, c = (mpmath.mpf(u[0]) for u in item["upper"])
            g = mpmath.gamma
            ref = b * c / (c - b) * g(1 - a) * (g(b) / g(1 - a + b) - g(c) / g(1 - a + c))
        else:
            upper = [mpmath.mpc(*u) for u in item["upper"]]
            lower = [mpmath.mpc(*l) for l in item["lower"]]
            ref = mpmath.hyper(upper, lower, mpmath.mpc(*item["z"]))
        return complex(ref)


def series_abs_sum(item: dict, ref: complex) -> float:
    """An upper bound on sum |t_n| over the series the input sums."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        if item["fn"] == "neg1":
            # two_f1_neg1 sums 2^(-a) 2F1(a, c-b; c; 1/2), c > 0.
            a, b, c = item["a"], item["b"], item["c"]
            return float(2.0 ** -a * mpmath.hyp2f1(abs(a), abs(c - b), c, 0.5))
        if item["fn"] == "weighted" or item["z"] == [1.0, 0.0]:
            return abs(ref)  # positive parameters: every term is positive
        # |(u)_n| <= (|u|)_n and |(l)_n| >= (Re l)_n for Re l > 0.
        upper = [abs(complex(*u)) for u in item["upper"]]
        lower = [l[0] for l in item["lower"]]
        return float(mpmath.hyper(upper, lower, abs(complex(*item["z"]))))


def _check_series(items, outcomes, seed):
    rng = _rng("series-eval", seed)
    by_stratum = defaultdict(list)
    for i, out in enumerate(outcomes):
        if not out["failed"]:
            by_stratum[items[i]["stratum"]].append(i)
    checked, wrong, known = set(), set(), set()
    for stratum in sorted(by_stratum):
        pool = by_stratum[stratum]
        for i in rng.sample(pool, min(SERIES_CHECKS_PER_STRATUM, len(pool))):
            checked.add(i)
            out = outcomes[i]
            ref = series_reference(items[i])
            err = abs(complex(*out["value"]) - ref)
            if err <= out["tail_bound"] + SERIES_ALLOWANCE_ULPS * U * abs(ref):
                continue
            wrong.add(i)
            if err <= out["tail_bound"] + ROUNDING_GATE * series_abs_sum(items[i], ref):
                known.add(i)
    return checked, wrong, known


# ------------------------------------------------------- identity-verify


def _unconverged_lemma(item: dict) -> bool:
    """Whether the closed-form side of a lemma residual reports no convergence."""
    from hypergft import DEFAULT_POLICY, closedforms
    from hypergft.families import Family, FamilyParams

    if not item["tag"].startswith("lemma-"):
        return False
    _, sec, part = item["tag"].split("-")
    lemma = closedforms.LemmaId(closedforms.Section(sec), int(part.removeprefix("part")))
    fp = FamilyParams(item["a"], item["b"], item["c"], Family(item["order"]))
    return not closedforms.lemma_closed_form(lemma, fp, DEFAULT_POLICY).converged


def _check_identity(items, outcomes, seed):
    from hypergft.cli import DEFAULT_TOLERANCES

    checked, wrong = set(), set()
    for i, out in enumerate(outcomes):
        if out["failed"]:
            continue
        checked.add(i)
        if not out["residual"] <= DEFAULT_TOLERANCES[items[i]["tag"]]:
            wrong.add(i)
    known = {i for i in wrong if _unconverged_lemma(items[i])}
    return checked, wrong, known


_CHECKS = {
    "grid-sweep": _check_grid,
    "certify-oracle": _check_certify,
    "series-eval": _check_series,
    "identity-verify": _check_identity,
}


def check(workload: str, items: list, outcomes: list, seed: int) -> dict:
    """Counts behind failed_share, wrong_share and inconclusive_share, and
    whether every wrong output is a known defect."""
    checked, wrong, known = _CHECKS[workload](items, outcomes, seed)
    verdicts = [v for out in outcomes for v in certificates(workload, out)]
    failed = sum(bool(out["failed"]) for out in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "checked": len(checked),
        "wrong": len(wrong),
        "wrong_known_defect": len(known),
        "known_defect": KNOWN_DEFECTS.get(workload),
        "wrong_unexpected": sorted(wrong - known),
        "certificates": len(verdicts),
        "inconclusive": verdicts.count("inconclusive"),
        "failed_share": failed / len(outcomes),
        "wrong_share": len(wrong) / len(checked) if checked else 0.0,
        "inconclusive_share": verdicts.count("inconclusive") / len(verdicts) if verdicts else 0.0,
        "correct": not (wrong - known),
    }
