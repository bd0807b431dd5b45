"""Command-line front end: evaluate, certify, verify, sweep.

All reports are reproducible: randomized suites take explicit seeds, floats
are serialized with repr (JSON) or %.17g (CSV), and keys are sorted, so a
fixed invocation yields byte-identical output.

Exit codes
  eval    0 ok / 1 bad input / 2 constraint violation / 3 convergence failure
  certify 0 certified / 4 hypothesis violated / 5 not certified / 6 inconclusive / 1 bad input
  verify  0 all residuals within tolerance / 5 residual failure / 1 bad input
  sweep   0 rows computed (per-row failures recorded) / 1 empty grid or bad input
"""
from __future__ import annotations

import argparse
import cmath
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import closedforms
from .certifier import (
    Certificate,
    certify_function_class,
    certify_operator_mapping,
    hadamard_convolve,
    hypergeometric_coefficients,
)
from .classes import ClassKind, ClassSpec, SourceClass, SourceKind
from .errors import (
    ConstraintError,
    DivergentError,
    HypergftError,
    HypothesisError,
    NoConvergenceError,
    PoleError,
    QuadratureError,
)
from .families import Family, FamilyParams, parse_family
from .numcore import DEFAULT_POLICY, PrecisionPolicy, pochhammer_split_residual
from .oracle import (
    OracleReport,
    coefficient_condition_check,
    disc_sample_check,
    identity_residual,
    worst_case_coefficients,
)
from .series import EvalResult, PFQParams, pfq_eval

SCHEMA = "hypergft/1"

IDENTITY_TAGS = (
    "pochhammer-split",
    "gauss",
    "shpot-srivastava",
    "4f3-at-1",
    "5f4-at-1",
    "lemma-sec2-part1",
    "lemma-sec2-part2",
    "lemma-sec2-part3",
    "lemma-sec2-part4",
    "lemma-sec3-part1",
    "lemma-sec3-part2",
    "lemma-sec3-part3",
    "lemma-sec3-part4",
    "euler-2f1",
    "euler-3f2quad",
    "euler-4f3",
)

DEFAULT_TOLERANCES = {
    "pochhammer-split": 1e-10,
    "gauss": 1e-8,
    "shpot-srivastava": 1e-7,
    "4f3-at-1": 1e-6,
    "5f4-at-1": 1e-6,
    "euler-2f1": 1e-7,
    "euler-3f2quad": 1e-7,
    "euler-4f3": 1e-7,
}
for _sec in (2, 3):
    for _part in (1, 2, 3, 4):
        DEFAULT_TOLERANCES[f"lemma-sec{_sec}-part{_part}"] = 1e-6


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its fully-resolved options."""

    command: str
    options: dict[str, Any] = field(default_factory=dict)
    policy: PrecisionPolicy = DEFAULT_POLICY
    fmt: str = "json"
    seed: int = 0


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as a number") from exc


def _parse_list(text: str) -> tuple[complex, ...]:
    if not text.strip():
        return ()
    return tuple(_parse_complex(p) for p in text.split(","))


def _parse_range(text: str) -> list[float]:
    """lo:hi:step inclusive grid, or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    out = []
    x = lo
    while x <= hi + 1e-12 * max(1.0, abs(hi)):
        out.append(round(x, 12))
        x += step
    return out


def _jsonify(value: Any) -> Any:
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, float):
        return float(value)
    return value


def _result_payload(res: EvalResult) -> dict[str, Any]:
    return {
        "value": _jsonify(complex(res.value)),
        "tail_bound": float(res.tail_bound),
        "terms": int(res.terms_used),
        "converged": bool(res.converged),
    }


def _oracle_payload(rep: OracleReport) -> dict[str, Any]:
    loc = rep.worst_location
    return {
        "check": rep.check.value,
        "passed": bool(rep.passed),
        "worst_value": float(rep.worst_value),
        "worst_location": _jsonify(complex(loc)) if isinstance(loc, complex) else int(loc),
        "budget": int(rep.budget),
        "skipped": int(rep.skipped),
        "truncation_warning": bool(rep.truncation_warning),
    }


def _certificate_payload(cert: Certificate) -> dict[str, Any]:
    return {
        "lhs": float(cert.lhs),
        "rhs": float(cert.rhs),
        "margin": float(cert.margin),
        "verdict": cert.verdict.value,
        "lhs_tail_bound": float(cert.lhs_tail_bound),
        "theorem_tag": cert.theorem_tag,
        "oracle": _oracle_payload(cert.oracle_report) if cert.oracle_report else None,
    }


def _report(config: RunConfig, body_key: str, body: Any, params: dict[str, Any]) -> str:
    doc = {
        "schema": SCHEMA,
        "command": config.command,
        "params": {k: _jsonify(v) for k, v in params.items()},
        body_key: body,
        "precision": {
            "rel_tol": config.policy.rel_tol,
            "abs_tol": config.policy.abs_tol,
            "max_terms": config.policy.max_terms,
        },
        "seed": config.seed,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


_CONFIG_FLOAT_KEYS = {"rel_tol", "abs_tol", "quad_tol", "tolerance", "beta", "lam", "c"}
_CONFIG_INT_KEYS = {"max_terms", "draws", "seed", "oracle_order"}


def _read_config_file(path: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be key=value: {raw.rstrip()}")
            key, val = (p.strip() for p in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lam"
            if key in _CONFIG_FLOAT_KEYS:
                out[key] = float(val)
            elif key in _CONFIG_INT_KEYS:
                out[key] = int(val)
            else:
                out[key] = val
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergft",
        description="Evaluate split-ladder hypergeometric identities and certify class membership.",
    )
    parser.add_argument("--config", help="key=value file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rel-tol", type=float, default=DEFAULT_POLICY.rel_tol)
        p.add_argument("--abs-tol", type=float, default=DEFAULT_POLICY.abs_tol)
        p.add_argument("--max-terms", type=int, default=DEFAULT_POLICY.max_terms)
        p.add_argument("--format", choices=("json", "csv", "text"), default=None)
        p.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("eval", help="evaluate a series, closed form, or integral")
    pe.add_argument("--pfq", help="series name like 2F1 (checked against the lists)")
    pe.add_argument("--closed", help="gauss | shpot | 4f3 | 5f4 | lemma-secS-partP")
    pe.add_argument("--euler", help="integral level: 2f1 | 3f2quad | 4f3 | pfq")
    pe.add_argument("--upper", default="", help="comma-separated upper parameters")
    pe.add_argument("--lower", default="", help="comma-separated lower parameters")
    pe.add_argument("--a", default=None)
    pe.add_argument("--b", default=None)
    pe.add_argument("--c", type=float, default=None)
    pe.add_argument("--z", default="0")
    pe.add_argument("--quad-tol", type=float, default=1e-10)
    common(pe)

    pc = sub.add_parser("certify", help="emit a membership certificate")
    pc.add_argument("--family", required=True, help="split3 | split4")
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)
    pc.add_argument("--c", type=float, required=True)
    pc.add_argument("--class", dest="klass", required=True,
                    choices=tuple(k.value for k in ClassKind))
    pc.add_argument("--lambda", dest="lam", type=float, default=None)
    pc.add_argument("--source", choices=tuple(s.value for s in SourceKind),
                    default="function")
    pc.add_argument("--beta", type=float, default=None)
    pc.add_argument("--with-oracle", action="store_true",
                    help="attach coefficient-sum and disc-sampling reports")
    pc.add_argument("--oracle-order", type=int, default=500)
    pc.add_argument("--allow-hypothesis-error", action="store_true",
                    help="report hypothesis violations instead of erroring out")
    common(pc)

    pv = sub.add_parser("verify", help="run seeded residual draws for an identity")
    pv.add_argument("--identity", required=True, choices=IDENTITY_TAGS)
    pv.add_argument("--draws", type=int, default=100)
    pv.add_argument("--tolerance", type=float, default=None)
    pv.add_argument("--a", default=None)
    pv.add_argument("--b", default=None)
    pv.add_argument("--c", type=float, default=None)
    common(pv)

    ps = sub.add_parser("sweep", help="certify over a parameter grid, CSV per row")
    ps.add_argument("--family", required=True)
    ps.add_argument("--class", dest="klass", required=True,
                    choices=tuple(k.value for k in ClassKind))
    ps.add_argument("--source", choices=tuple(s.value for s in SourceKind),
                    default="function")
    ps.add_argument("--a", default="0.5")
    ps.add_argument("--b", default="0.5")
    ps.add_argument("--c", default="10")
    ps.add_argument("--lambda", dest="lam", default=None)
    ps.add_argument("--beta", default=None)
    common(ps)
    return parser


def _policy_from(args: argparse.Namespace) -> PrecisionPolicy:
    return PrecisionPolicy(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_terms=args.max_terms
    )


# ---------------------------------------------------------------- eval


def _eval_series(args: argparse.Namespace, config: RunConfig, out) -> int:
    upper = _parse_list(args.upper)
    lower = _parse_list(args.lower)
    name = args.pfq.strip().lower()
    expect = f"{len(upper)}f{len(lower)}"
    if name != expect:
        raise ValueError(
            f"--pfq {args.pfq} does not match {len(upper)} upper / {len(lower)} lower parameters"
        )
    z = _parse_complex(args.z)
    res = pfq_eval(PFQParams(upper, lower), z, config.policy)
    params = {"upper": [_jsonify(u) for u in upper], "lower": [_jsonify(l) for l in lower], "z": z}
    _render_result(config, res, params, out)
    return 0


def _family_from_args(args: argparse.Namespace, family: Family) -> FamilyParams:
    if args.a is None or args.b is None or args.c is None:
        raise ValueError("--a, --b and --c are required here")
    return FamilyParams(_parse_complex(args.a), _parse_complex(args.b), args.c, family)


def _eval_closed(args: argparse.Namespace, config: RunConfig, out) -> int:
    tag = args.closed.strip().lower()
    if tag == "gauss":
        a, b = _parse_complex(args.a), _parse_complex(args.b)
        value = closedforms.gauss_2f1_at_1(a, b, args.c)
        res = EvalResult(value, 5e-14 * abs(value), 1, True)
        params = {"closed": tag, "a": a, "b": b, "c": args.c}
    elif tag in ("shpot", "shpot-srivastava"):
        a, b = _parse_complex(args.a).real, _parse_complex(args.b).real
        value = closedforms.shpot_srivastava_3f2(a, b, args.c)
        res = EvalResult(complex(value), 5e-14 * abs(value), 1, True)
        params = {"closed": tag, "a": a, "b": b, "c": args.c}
    elif tag in ("4f3", "5f4"):
        family = Family.SPLIT3 if tag == "4f3" else Family.SPLIT4
        fp = _family_from_args(args, family)
        fn = closedforms.four_f3_at_1 if tag == "4f3" else closedforms.five_f4_at_1
        res = fn(fp, config.policy)
        params = {"closed": tag, "a": fp.a, "b": fp.b, "c": fp.c, "family": family.name.lower()}
    elif tag.startswith("lemma-"):
        _, sec, part = tag.split("-")
        section = closedforms.Section(sec)
        fp = _family_from_args(args, section.family)
        res = closedforms.lemma_closed_form(
            closedforms.LemmaId(section, int(part.removeprefix("part"))), fp, config.policy
        )
        params = {"closed": tag, "a": fp.a, "b": fp.b, "c": fp.c}
    else:
        raise ValueError(f"unknown closed form {args.closed!r}")
    _render_result(config, res, params, out)
    return 0


def _eval_euler(args: argparse.Namespace, config: RunConfig, out) -> int:
    upper = _parse_list(args.upper)
    lower = _parse_list(args.lower)
    z = _parse_complex(args.z)
    res = closedforms.euler_integral(
        args.euler, PFQParams(upper, lower), z, args.quad_tol, config.policy
    )
    params = {
        "euler": args.euler,
        "upper": [_jsonify(u) for u in upper],
        "lower": [_jsonify(l) for l in lower],
        "z": z,
        "quad_tol": args.quad_tol,
    }
    _render_result(config, res, params, out)
    return 0


def _render_result(config: RunConfig, res: EvalResult, params: dict, out) -> None:
    if config.fmt == "json":
        _emit(_report(config, "result", _result_payload(res), params), out)
    elif config.fmt == "csv":
        _emit("value_re,value_im,tail_bound,terms,converged", out)
        v = complex(res.value)
        _emit(
            ",".join(
                (_g17(v.real), _g17(v.imag), _g17(res.tail_bound), str(res.terms_used), str(res.converged).lower())
            ),
            out,
        )
    else:
        v = complex(res.value)
        _emit(
            f"value = {v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j\n"
            f"tail_bound = {res.tail_bound!r}\nterms = {res.terms_used}\nconverged = {res.converged}",
            out,
        )


def cmd_eval(args: argparse.Namespace, config: RunConfig, out) -> int:
    chosen = [x for x in (args.pfq, args.closed, args.euler) if x]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --pfq, --closed, --euler")
    if args.pfq:
        return _eval_series(args, config, out)
    if args.closed:
        return _eval_closed(args, config, out)
    return _eval_euler(args, config, out)


# ---------------------------------------------------------------- certify


def cmd_certify(args: argparse.Namespace, config: RunConfig, out) -> int:
    family = parse_family(args.family)
    fp = _family_from_args(args, family)
    kind = ClassKind(args.klass)
    lam = args.lam
    if kind in (ClassKind.STARLIKE, ClassKind.CONVEX) and lam is None:
        lam = 1.0
    spec = ClassSpec(kind, lam)
    source_kind = SourceKind(args.source)
    if source_kind is not SourceKind.RBETA and args.beta is not None:
        raise ValueError("--beta is only meaningful with --source rbeta")
    if source_kind is SourceKind.RBETA and args.beta is None:
        raise ValueError("--source rbeta requires --beta")
    params = {
        "family": family.name.lower(),
        "a": fp.a,
        "b": fp.b,
        "c": fp.c,
        "class": kind.value,
        "lambda": lam,
        "source": source_kind.value,
        "beta": args.beta,
    }
    try:
        if source_kind is SourceKind.FUNCTION:
            cert = certify_function_class(fp, spec, config.policy)
        else:
            source = SourceClass(source_kind, args.beta)
            cert = certify_operator_mapping(fp, source, spec, config.policy)
    except HypothesisError as exc:
        if args.allow_hypothesis_error:
            body = {"hypothesis_error": str(exc)}
            _emit(_report(config, "certificate", body, params), out)
        else:
            print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 4

    disc_report = None
    if args.with_oracle:
        if source_kind is SourceKind.FUNCTION:
            target = hypergeometric_coefficients(fp, args.oracle_order)
        else:
            target = hadamard_convolve(
                hypergeometric_coefficients(fp, args.oracle_order),
                worst_case_coefficients(SourceClass(source_kind, args.beta), args.oracle_order),
            )
        cert = cert.with_oracle(coefficient_condition_check(target, spec))
        disc_report = disc_sample_check(target, spec)

    body = _certificate_payload(cert)
    if disc_report is not None:
        body["disc_oracle"] = _oracle_payload(disc_report)
    if config.fmt == "json":
        _emit(_report(config, "certificate", body, params), out)
    elif config.fmt == "csv":
        _emit("theorem_tag,lhs,rhs,margin,verdict", out)
        _emit(
            ",".join(
                (cert.theorem_tag, _g17(cert.lhs), _g17(cert.rhs), _g17(cert.margin), cert.verdict.value)
            ),
            out,
        )
    else:
        _emit(
            f"{cert.theorem_tag}: {cert.verdict.value}\n"
            f"lhs = {cert.lhs!r}  rhs = {cert.rhs!r}  margin = {cert.margin!r}",
            out,
        )
    return {"certified": 0, "not_certified": 5, "inconclusive": 6}[cert.verdict.value]


# ---------------------------------------------------------------- verify


def _draw_residual(tag: str, rng: random.Random, policy: PrecisionPolicy) -> float:
    """One seeded residual draw inside the identity's validity region."""
    if tag == "pochhammer-split":
        mag = rng.uniform(0.05, 10.0)
        phase = rng.uniform(-3.141592653589793, 3.141592653589793)
        a = cmath.rect(mag, phase)
        return pochhammer_split_residual(a, rng.randint(1, 5), rng.randint(0, 30))
    if tag == "gauss":
        a, b = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        fp = FamilyParams(a, b, a + b + rng.uniform(1.0, 5.0), Family.SPLIT3)
        return identity_residual(tag, fp, policy=policy)
    if tag == "shpot-srivastava":
        a = rng.uniform(0.05, 0.5)
        b = rng.uniform(0.1, 4.0)
        c = rng.uniform(0.1, 4.0)
        while abs(c - b) < 0.05:
            c = rng.uniform(0.1, 4.0)
        return identity_residual(tag, FamilyParams(a, b, c, Family.SPLIT3), policy=policy)
    if tag == "4f3-at-1":
        a, b = rng.uniform(0.05, 1.5), rng.uniform(0.1, 4.0)
        fp = FamilyParams(a, b, a + b + rng.uniform(0.75, 5.0), Family.SPLIT3)
        return identity_residual(tag, fp, policy=policy)
    if tag == "5f4-at-1":
        a, b = rng.uniform(0.05, 0.45), rng.uniform(0.1, 3.0)
        fp = FamilyParams(a, b, a + b + rng.uniform(1.25, 5.0), Family.SPLIT4)
        return identity_residual(tag, fp, policy=policy)
    if tag.startswith("lemma-"):
        part = int(tag[-1])
        family = Family.SPLIT3 if "sec2" in tag else Family.SPLIT4
        k = family.order
        if part == 4:
            a = rng.uniform(1.3, 2.8)
            b = rng.uniform(k + 0.6, k + 4.0)
            c = max(a + k - 1, a + b - 1) + rng.uniform(1.0, 4.0)
        else:
            a = rng.uniform(0.05, 0.5)
            b = rng.uniform(0.1, 2.5)
            c = a + b + part + rng.uniform(1.5, 4.0)
        return identity_residual(tag, FamilyParams(a, b, c, family), policy=policy)
    if tag.startswith("euler-"):
        a = rng.uniform(0.2, 1.2)
        b = rng.uniform(0.4, 2.0)
        c = a + b + rng.uniform(0.8, 3.0)
        z = rng.uniform(0.05, 0.7)
        fp = FamilyParams(a, b, c, Family.SPLIT3)
        return identity_residual(tag, fp, z=z, policy=policy)
    raise ValueError(f"unknown identity tag {tag!r}")


def cmd_verify(args: argparse.Namespace, config: RunConfig, out) -> int:
    tag = args.identity
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCES[tag]
    residuals: list[float] = []
    if args.a is not None:
        a = _parse_complex(args.a)
        b = _parse_complex(args.b) if args.b is not None else 1.0
        c = args.c if args.c is not None else 4.0
        if tag == "gauss":
            # plain 2F1 parameters: no ladder carrier needed, a = 0 is fine
            closed = closedforms.gauss_2f1_at_1(a, b, c)
            series = pfq_eval(PFQParams((a, b), (c,)), 1.0, config.policy)
            residuals.append(float(abs(series.value - closed) / max(abs(closed), 1e-300)))
        elif tag == "shpot-srivastava":
            closed = closedforms.shpot_srivastava_3f2(complex(a).real, complex(b).real, c)
            series = pfq_eval(
                PFQParams((complex(a).real, complex(b).real, c), (complex(b).real + 1, c + 1)),
                1.0,
                config.policy,
            )
            residuals.append(float(abs(series.value - closed) / max(abs(closed), 1e-300)))
        else:
            family = Family.SPLIT4 if "sec3" in tag or tag == "5f4-at-1" else Family.SPLIT3
            fp = FamilyParams(a, b, c, family)
            residuals.append(float(identity_residual(tag, fp, policy=config.policy)))
    else:
        rng = random.Random(config.seed)
        for _ in range(args.draws):
            residuals.append(float(_draw_residual(tag, rng, config.policy)))
    worst = float(max(residuals))
    passed = bool(worst <= tolerance)
    body: dict[str, Any] = {
        "identity": tag,
        "draws": len(residuals),
        "tolerance": tolerance,
        "max_residual": worst,
        "passed": passed,
        "residuals": residuals,
    }
    if not passed:
        body["typo_ledger_entry"] = {
            "identity": tag,
            "max_residual": worst,
            "tolerance": tolerance,
            "seed": config.seed,
            "note": "systematic residual failure; reconcile the printed form "
                    "against the direct series and record the corrected formula",
        }
    if config.fmt == "json":
        _emit(_report(config, "verification", body, {"identity": tag}), out)
    elif config.fmt == "csv":
        _emit("draw,residual", out)
        for i, r in enumerate(residuals):
            _emit(f"{i},{_g17(r)}", out)
    else:
        _emit(
            f"{tag}: {len(residuals)} draws, max residual {worst!r} "
            f"({'pass' if passed else 'FAIL'} at {tolerance!r})",
            out,
        )
    return 0 if passed else 5


# ---------------------------------------------------------------- sweep


def cmd_sweep(args: argparse.Namespace, config: RunConfig, out) -> int:
    family = parse_family(args.family)
    kind = ClassKind(args.klass)
    source_kind = SourceKind(args.source)
    a_grid = _parse_range(args.a)
    b_grid = _parse_range(args.b)
    c_grid = _parse_range(args.c)
    lam_grid = _parse_range(args.lam) if args.lam is not None else [None]
    beta_grid = _parse_range(args.beta) if args.beta is not None else [None]
    if kind in (ClassKind.STARLIKE, ClassKind.CONVEX) and lam_grid == [None]:
        lam_grid = [1.0]
    if source_kind is SourceKind.RBETA and beta_grid == [None]:
        beta_grid = [0.0]
    rows = [
        (a, b, c, lam, beta)
        for a in a_grid
        for b in b_grid
        for c in c_grid
        for lam in lam_grid
        for beta in beta_grid
    ]
    if not rows:
        print("empty grid", file=sys.stderr)
        return 1
    header = "family,source,class,a,b,c,lambda,beta,verdict,lhs,rhs,margin,error"
    lines = [header]
    for a, b, c, lam, beta in rows:
        base = [
            family.name.lower(),
            source_kind.value,
            kind.value,
            _g17(a),
            _g17(b),
            _g17(c),
            _g17(lam) if lam is not None else "",
            _g17(beta) if beta is not None else "",
        ]
        try:
            fp = FamilyParams(a, b, c, family)
            spec = ClassSpec(kind, lam)
            if source_kind is SourceKind.FUNCTION:
                cert = certify_function_class(fp, spec, config.policy)
            else:
                cert = certify_operator_mapping(fp, SourceClass(source_kind, beta), spec, config.policy)
            lines.append(
                ",".join(
                    base
                    + [cert.verdict.value, _g17(cert.lhs), _g17(cert.rhs), _g17(cert.margin), ""]
                )
            )
        except HypergftError as exc:
            lines.append(",".join(base + ["error", "", "", "", type(exc).__name__]))
    if config.fmt == "json":
        _emit(_report(config, "rows", lines[1:], {"header": header}), out)
    else:
        for line in lines:
            _emit(line, out)
    return 0


# ---------------------------------------------------------------- entry


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        prelim, _ = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    overrides: dict[str, Any] = {}
    if getattr(prelim, "config", None):
        try:
            overrides = _read_config_file(prelim.config)
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # Config entries apply only where no explicit flag was given; subparser
    # defaults would otherwise shadow set_defaults on the root parser.
    given = set(argv or sys.argv[1:])
    for key, value in overrides.items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        if flag not in given and hasattr(args, key):
            setattr(args, key, value)

    try:
        policy = _policy_from(args)
    except ValueError as exc:
        print(f"bad precision policy: {exc}", file=sys.stderr)
        return 1
    fmt = args.format or ("csv" if args.command == "sweep" else "json")
    config = RunConfig(command=args.command, policy=policy, fmt=fmt, seed=args.seed)

    handler = {
        "eval": cmd_eval,
        "certify": cmd_certify,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return handler(args, config, out)
    except (ValueError, KeyError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, PoleError, DivergentError) as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, QuadratureError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
