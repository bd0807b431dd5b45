"""Command-line front end: evaluate, certify, verify, sweep.

All reports are reproducible: randomized suites take explicit seeds, floats
are serialized with repr (JSON) or %.17g (CSV), and keys are sorted, so a
fixed invocation yields byte-identical output.

Exit codes
  eval    0 ok / 1 bad input / 2 constraint violation / 3 convergence failure
  certify 0 certified / 4 hypothesis violated / 5 not certified / 6 inconclusive / 1 bad input
  verify  0 all residuals within tolerance / 5 residual failure / 1 bad input
  sweep   0 rows computed (per-row failures recorded) / 1 empty grid or bad input
  any     2 constraint violation, gamma pole or zero gamma ratio / 3 no convergence
          / 1 any other package error
"""
from __future__ import annotations

import argparse
import json
import random
import sys
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
    ZeroError,
)
from .families import Family, FamilyParams, parse_family
from .numcore import DEFAULT_POLICY, GAMMA_EVAL_REL, PrecisionPolicy
from .oracle import (
    IDENTITIES,
    IdentityPoint,
    OracleReport,
    coefficient_condition_check,
    disc_sample_check,
    worst_case_coefficients,
)
from .series import EvalResult, PFQParams, pfq_eval

SCHEMA = "hypergft/1"

DEFAULT_TOLERANCES = {tag: identity.tolerance for tag, identity in IDENTITIES.items()}


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


def _report(args: argparse.Namespace, body_key: str, body: Any, params: dict[str, Any]) -> str:
    doc = {
        "schema": SCHEMA,
        "command": args.command,
        "params": {k: _jsonify(v) for k, v in params.items()},
        body_key: body,
        "precision": {
            "rel_tol": args.policy.rel_tol,
            "abs_tol": args.policy.abs_tol,
            "max_terms": args.policy.max_terms,
        },
        "seed": args.seed,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines, keys spelled as dests (lambda -> lam, - -> _)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be key=value: {raw.rstrip()}")
            key, val = (p.strip() for p in line.split("=", 1))
            key = key.replace("-", "_")
            out["lam" if key == "lambda" else key] = val
    return out


def _apply_config(command: argparse.ArgumentParser, entries: dict[str, str]) -> None:
    """Make config entries the command's defaults, which satisfy required flags.

    Values stay strings for argparse to parse, so explicit flags win; a
    store_true flag takes true or false.
    """
    for action in command._actions:
        if action.dest not in entries or action.default is argparse.SUPPRESS:
            continue
        value: str | bool = entries[action.dest]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in ("true", "false"):
                raise ValueError(f"{action.dest} must be true or false, got {value!r}")
            value = value.lower() == "true"
        action.default = value
        action.required = False


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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
    pv.add_argument("--identity", required=True, choices=tuple(IDENTITIES))
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
    return parser, sub.choices


# ---------------------------------------------------------------- eval


def _eval_series(args: argparse.Namespace, out) -> int:
    upper = _parse_list(args.upper)
    lower = _parse_list(args.lower)
    name = args.pfq.strip().lower()
    expect = f"{len(upper)}f{len(lower)}"
    if name != expect:
        raise ValueError(
            f"--pfq {args.pfq} does not match {len(upper)} upper / {len(lower)} lower parameters"
        )
    z = _parse_complex(args.z)
    res = pfq_eval(PFQParams(upper, lower), z, args.policy)
    params = {"upper": [_jsonify(u) for u in upper], "lower": [_jsonify(l) for l in lower], "z": z}
    _render_result(args, res, params, out)
    return 0


def _family_from_args(args: argparse.Namespace, family: Family) -> FamilyParams:
    if args.a is None or args.b is None or args.c is None:
        raise ValueError("--a, --b and --c are required here")
    return FamilyParams(_parse_complex(args.a), _parse_complex(args.b), args.c, family)


def _eval_closed(args: argparse.Namespace, out) -> int:
    tag = args.closed.strip().lower()
    if tag == "gauss":
        a, b = _parse_complex(args.a), _parse_complex(args.b)
        value = closedforms.gauss_2f1_at_1(a, b, args.c)
        res = EvalResult(value, GAMMA_EVAL_REL * abs(value), 1, True)
        params = {"closed": tag, "a": a, "b": b, "c": args.c}
    elif tag in ("shpot", "shpot-srivastava"):
        a, b = _parse_complex(args.a).real, _parse_complex(args.b).real
        value = closedforms.shpot_srivastava_3f2(a, b, args.c)
        res = EvalResult(complex(value), GAMMA_EVAL_REL * abs(value), 1, True)
        params = {"closed": tag, "a": a, "b": b, "c": args.c}
    elif tag in ("4f3", "5f4"):
        family = Family.SPLIT3 if tag == "4f3" else Family.SPLIT4
        fp = _family_from_args(args, family)
        fn = closedforms.four_f3_at_1 if tag == "4f3" else closedforms.five_f4_at_1
        res = fn(fp, args.policy)
        params = {"closed": tag, "a": fp.a, "b": fp.b, "c": fp.c, "family": family.name.lower()}
    elif tag in closedforms.LEMMAS:
        lemma = closedforms.LEMMAS[tag]
        fp = _family_from_args(args, lemma.section.family)
        res = closedforms.lemma_closed_form(lemma, fp, args.policy)
        params = {"closed": tag, "a": fp.a, "b": fp.b, "c": fp.c}
    else:
        raise ValueError(f"unknown closed form {args.closed!r}")
    _render_result(args, res, params, out)
    return 0


def _eval_euler(args: argparse.Namespace, out) -> int:
    upper = _parse_list(args.upper)
    lower = _parse_list(args.lower)
    z = _parse_complex(args.z)
    res = closedforms.euler_integral(
        args.euler, PFQParams(upper, lower), z, args.quad_tol, args.policy
    )
    params = {
        "euler": args.euler,
        "upper": [_jsonify(u) for u in upper],
        "lower": [_jsonify(l) for l in lower],
        "z": z,
        "quad_tol": args.quad_tol,
    }
    _render_result(args, res, params, out)
    return 0


def _render_result(args: argparse.Namespace, res: EvalResult, params: dict, out) -> None:
    if args.format == "json":
        _emit(_report(args, "result", _result_payload(res), params), out)
    elif args.format == "csv":
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


def cmd_eval(args: argparse.Namespace, out) -> int:
    chosen = [x for x in (args.pfq, args.closed, args.euler) if x]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --pfq, --closed, --euler")
    if args.pfq:
        return _eval_series(args, out)
    if args.closed:
        return _eval_closed(args, out)
    return _eval_euler(args, out)


# ---------------------------------------------------------------- certify


def _default_lambda(kind: ClassKind, lam: float | None) -> float | None:
    """The given lambda; starlike and convex default to 1."""
    if lam is None and kind in (ClassKind.STARLIKE, ClassKind.CONVEX):
        return 1.0
    return lam


def _reject_stray_beta(source_kind: SourceKind, beta: Any) -> None:
    """--beta belongs to --source rbeta alone."""
    if source_kind is not SourceKind.RBETA and beta is not None:
        raise ValueError("--beta is only meaningful with --source rbeta")


def _certify(
    fp: FamilyParams, spec: ClassSpec, source_kind: SourceKind, beta: float | None,
    policy: PrecisionPolicy,
) -> Certificate:
    """The function's own certificate, or the operator's from the source class."""
    if source_kind is SourceKind.FUNCTION:
        return certify_function_class(fp, spec, policy)
    return certify_operator_mapping(fp, SourceClass(source_kind, beta), spec, policy)


def cmd_certify(args: argparse.Namespace, out) -> int:
    family = parse_family(args.family)
    fp = _family_from_args(args, family)
    kind = ClassKind(args.klass)
    lam = _default_lambda(kind, args.lam)
    spec = ClassSpec(kind, lam)
    source_kind = SourceKind(args.source)
    _reject_stray_beta(source_kind, args.beta)
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
        cert = _certify(fp, spec, source_kind, args.beta, args.policy)
    except HypothesisError as exc:
        if args.allow_hypothesis_error:
            body = {"hypothesis_error": str(exc)}
            _emit(_report(args, "certificate", body, params), out)
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
    if args.format == "json":
        _emit(_report(args, "certificate", body, params), out)
    elif args.format == "csv":
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


def cmd_verify(args: argparse.Namespace, out) -> int:
    tag = args.identity
    identity = IDENTITIES[tag]
    tolerance = args.tolerance if args.tolerance is not None else identity.tolerance
    if args.a is not None:
        a = _parse_complex(args.a)
        b = _parse_complex(args.b) if args.b is not None else 1.0
        c = args.c if args.c is not None else 4.0
        points = [IdentityPoint(a, b, c, identity.family.order)]
    else:
        if args.draws < 1:
            raise ValueError(f"--draws must be at least 1, got {args.draws}")
        rng = random.Random(args.seed)
        points = [identity.sample(rng) for _ in range(args.draws)]
    residuals = [float(identity.residual(p, args.policy)) for p in points]
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
            "seed": args.seed,
            "note": "systematic residual failure; reconcile the printed form "
                    "against the direct series and record the corrected formula",
        }
    if args.format == "json":
        _emit(_report(args, "verification", body, {"identity": tag}), out)
    elif args.format == "csv":
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


def cmd_sweep(args: argparse.Namespace, out) -> int:
    family = parse_family(args.family)
    kind = ClassKind(args.klass)
    source_kind = SourceKind(args.source)
    _reject_stray_beta(source_kind, args.beta)
    a_grid = _parse_range(args.a)
    b_grid = _parse_range(args.b)
    c_grid = _parse_range(args.c)
    lam_grid = _parse_range(args.lam) if args.lam is not None else [_default_lambda(kind, None)]
    beta_grid = _parse_range(args.beta) if args.beta is not None else [None]
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
            cert = _certify(fp, ClassSpec(kind, lam), source_kind, beta, args.policy)
            lines.append(
                ",".join(
                    base
                    + [cert.verdict.value, _g17(cert.lhs), _g17(cert.rhs), _g17(cert.margin), ""]
                )
            )
        except HypergftError as exc:
            lines.append(",".join(base + ["error", "", "", "", type(exc).__name__]))
    if args.format == "json":
        _emit(_report(args, "rows", lines[1:], {"header": header}), out)
    else:
        for line in lines:
            _emit(line, out)
    return 0


# ---------------------------------------------------------------- entry


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser, commands = _build_parser()
    # Read --config first so its values can fill required flags (no
    # abbreviations: --c must not match --config).
    early = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    early.add_argument("--config")
    try:
        config_path = early.parse_known_args(argv)[0].config
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if config_path:
        try:
            entries = _read_config_file(config_path)
            for command in commands.values():
                _apply_config(command, entries)
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        args.policy = PrecisionPolicy(args.rel_tol, args.abs_tol, args.max_terms)
    except ValueError as exc:
        print(f"bad precision policy: {exc}", file=sys.stderr)
        return 1
    args.format = args.format or ("csv" if args.command == "sweep" else "json")

    handler = {
        "eval": cmd_eval,
        "certify": cmd_certify,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        return handler(args, out)
    except (ValueError, KeyError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, PoleError, ZeroError, DivergentError) as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, QuadratureError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    except HypergftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
