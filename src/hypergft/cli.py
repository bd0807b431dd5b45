"""Command-line front end: evaluate, certify, verify, sweep.

All reports are reproducible: randomized suites take explicit seeds, floats
are serialized with repr (JSON; a non-finite one as the string "Infinity",
"-Infinity" or "NaN", since RFC 8259 has no such number) or %.17g (CSV), and
keys are sorted, so a fixed invocation yields byte-identical output.

Exit codes
  eval    0 ok / 1 bad input / 2 constraint violation / 3 convergence failure or unconverged result
  certify 0 certified / 4 hypothesis violated / 5 not certified / 6 inconclusive / 1 bad input
          (--allow-hypothesis-error writes the violation as a report in --format, still exit 4)
  verify  0 all residuals within tolerance / 5 residual failure / 3 a side did not converge
          / 1 bad input
  sweep   0 rows computed (per-row failures recorded) / 1 bad input or over 1,000,000 points
  any     2 constraint violation, gamma pole, zero or overflowing gamma ratio
          / 3 no convergence / 1 any other package error, or stdout closed early

Bad input (exit 1) includes an invalid number, reported with the name of its
flag, and an eval flag that the chosen mode does not read.
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import decimal
import enum
import itertools
import json
import math
import os
import random
import sys
from typing import Any, Sequence

import numpy as np

from . import closedforms
from .certifier import certify_operator_mapping, hadamard_convolve, hypergeometric_coefficients
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
from .numcore import DEFAULT_POLICY, PrecisionPolicy
from .oracle import (
    IDENTITIES,
    IdentityPoint,
    coefficient_condition_check,
    disc_sample_check,
    worst_case_coefficients,
)
from .series import EvalResult, PFQParams, pfq_eval

SCHEMA = "hypergft/1"

DEFAULT_TOLERANCES = {tag: identity.tolerance for tag, identity in IDENTITIES.items()}


def _finite(parse, text: str):
    """text parsed by float or complex; ArgumentTypeError, which argparse
    reports with the flag's name, unless it is a finite number."""
    try:
        value = parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a number") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def finite_float(text: str) -> float:
    """The type of every float flag and of each number of a range."""
    return _finite(float, text)


def _parse_complex(text: str) -> complex:
    return _finite(complex, text.replace(" ", ""))


def _glue_numbers(tokens: list[str]) -> list[str]:
    """A flag and the number after it as one token, `--z -0.5+0.3j` as `--z=-0.5+0.3j`.

    argparse reads a token that starts with '-' as a flag unless it is a plain
    negative real, so a negative complex value, list or range would be lost.
    A token counts as a number when each of its ',' and ':' parts parses as one.
    """
    def numeric(token: str) -> bool:
        try:
            for part in token.replace(":", ",").split(","):
                complex(part.replace(" ", ""))
        except ValueError:
            return False
        return True

    out: list[str] = []
    for token in tokens:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and token.startswith("-") and numeric(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _parse_list(text: str) -> tuple[complex, ...]:
    if not text.strip():
        return ()
    return tuple(_parse_complex(p) for p in text.split(","))


MAX_GRID_POINTS = 1_000_000


def _parse_range(text: str) -> list[float]:
    """The points of a lo:hi:step inclusive grid, each the float nearest to the
    decimal lo + i step up to hi, or a single value as given."""
    parts = text.split(":")
    if len(parts) == 1:
        return [finite_float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (finite_float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    lo, hi, step = (decimal.Decimal(p) for p in parts)  # as typed: no rounding to mend
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    return [float(lo + i * step) for i in range(math.floor(span) + 1)]


def _jsonify(value: Any) -> Any:
    """The json.dumps default of every report: a dataclass field by field, an
    enum by its value, a complex number as {"re", "im"}, a numpy scalar as a
    Python one (a numpy float is a float, which json writes itself)."""
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value.item()


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _csv_quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _render(
    args: argparse.Namespace, body_key: str, body: Any, params: dict[str, Any],
    rows: list[str], text: str, out,
) -> None:
    """Write one report in --format: the JSON document, the CSV rows (header first) or the text."""
    if args.format == "json":
        doc = {"schema": SCHEMA, "command": args.command, "params": params, body_key: body,
               "precision": args.policy, "seed": args.seed}
        doc = json.loads(json.dumps(doc, default=_jsonify), parse_constant=str)
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    elif args.format == "csv":
        text = "\n".join(rows)
    out.write(text)
    # The newline is a write of its own because it is what surfaces a closed
    # pipe: a reader leaving mid-text cuts the write above short, and the text
    # layer counts a short write as done; this one then raises BrokenPipeError.
    out.write("\n")


# ---------------------------------------------------------------- eval


def _series_args(args: argparse.Namespace) -> tuple[PFQParams, complex, dict[str, Any]]:
    """--upper/--lower/--z as series parameters, argument and report params.

    A --pfq name must match the list lengths.
    """
    upper, lower = args.upper or (), args.lower or ()
    if args.pfq and args.pfq.strip().lower() != f"{len(upper)}f{len(lower)}":
        raise ValueError(
            f"--pfq {args.pfq} does not match {len(upper)} upper / {len(lower)} lower parameters"
        )
    z = args.z if args.z is not None else 0j
    return PFQParams(upper, lower), z, {"upper": upper, "lower": lower, "z": z}


def _eval_series(args: argparse.Namespace) -> tuple[EvalResult, dict[str, Any]]:
    pfq, z, params = _series_args(args)
    return pfq_eval(pfq, z, args.policy), params


def _eval_closed(args: argparse.Namespace) -> tuple[EvalResult, dict[str, Any]]:
    tag = args.closed.strip().lower()
    if tag not in ("gauss", "shpot", "shpot-srivastava", "4f3", "5f4", *closedforms.LEMMAS):
        raise ValueError(f"unknown closed form {args.closed!r}")
    a, b, c = args.a, args.b, args.c
    if a is None or b is None or c is None:
        raise ValueError("--a, --b and --c are required here")
    params = {"closed": tag, "a": a, "b": b, "c": c}
    if tag == "gauss":
        res = closedforms.gauss_2f1_at_1(a, b, c)
    elif tag in ("shpot", "shpot-srivastava"):
        params.update(a=a.real, b=b.real)
        res = closedforms.shpot_srivastava_3f2(a.real, b.real, c)
    elif tag in ("4f3", "5f4"):
        family = Family.SPLIT3 if tag == "4f3" else Family.SPLIT4
        fn = closedforms.four_f3_at_1 if tag == "4f3" else closedforms.five_f4_at_1
        res = fn(FamilyParams(a, b, c, family), args.policy)
        params["family"] = family.name.lower()
    else:
        lemma = closedforms.LEMMAS[tag]
        fp = FamilyParams(a, b, c, lemma.section.family)
        res = closedforms.lemma_closed_form(lemma, fp, args.policy)
    return res, params


def _eval_euler(args: argparse.Namespace) -> tuple[EvalResult, dict[str, Any]]:
    pfq, z, params = _series_args(args)
    quad_tol = args.quad_tol if args.quad_tol is not None else 1e-10
    res = closedforms.euler_integral(args.euler, pfq, z, quad_tol, args.policy)
    return res, {**params, "euler": args.euler, "quad_tol": quad_tol}


# Each mode of eval and the flags it reads; a flag of another mode is bad input.
_EVAL_MODES = {
    "pfq": (_eval_series, ("upper", "lower", "z")),
    "closed": (_eval_closed, ("a", "b", "c")),
    "euler": (_eval_euler, ("upper", "lower", "z", "quad_tol")),
}


def cmd_eval(args: argparse.Namespace, out) -> int:
    chosen = [mode for mode in _EVAL_MODES if getattr(args, mode)]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --pfq, --closed, --euler")
    evaluate, reads = _EVAL_MODES[chosen[0]]
    for _, flags in _EVAL_MODES.values():
        for flag in flags:
            if flag not in reads and getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} is not read by --{chosen[0]}")
    # an overflowing sum ends with converged = false (exit 3), not numpy warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        res, params = evaluate(args)
    v = complex(res.value)
    row = (_g17(v.real), _g17(v.imag), _g17(res.tail_bound), str(res.terms_used), str(res.converged).lower())
    rows = ["value_re,value_im,tail_bound,terms,converged", ",".join(row)]
    text = (
        f"value = {v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j\n"
        f"tail_bound = {res.tail_bound!r}\nterms = {res.terms_used}\nconverged = {res.converged}"
    )
    body = {**dataclasses.asdict(res), "value": v}
    body["terms"] = body.pop("terms_used")
    _render(args, "result", body, params, rows, text, out)
    return 0 if res.converged else 3


# ---------------------------------------------------------------- certify


def _default_lambda(kind: ClassKind, lam: float | None) -> float | None:
    """The given lambda; starlike and convex default to 1."""
    if lam is None and kind in (ClassKind.STARLIKE, ClassKind.CONVEX):
        return 1.0
    return lam


def _target_args(args: argparse.Namespace) -> tuple[Family, ClassKind, SourceKind]:
    """--family, --class and --source; --beta belongs to --source rbeta alone."""
    family = parse_family(args.family)
    kind = ClassKind(args.klass)
    source_kind = SourceKind(args.source)
    if source_kind is not SourceKind.RBETA and args.beta is not None:
        raise ValueError("--beta is only meaningful with --source rbeta")
    return family, kind, source_kind


def cmd_certify(args: argparse.Namespace, out) -> int:
    family, kind, source_kind = _target_args(args)
    fp = FamilyParams(args.a, args.b, args.c, family)
    lam = _default_lambda(kind, args.lam)
    spec = ClassSpec(kind, lam)
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
    source = SourceClass(source_kind, args.beta)
    try:
        cert = certify_operator_mapping(fp, source, spec, args.policy)
    except HypothesisError as exc:
        msg = str(exc)
        if args.allow_hypothesis_error:
            rows = ["hypothesis_error", _csv_quoted(msg)]
            text = f"hypothesis violated: {msg}"
            _render(args, "certificate", {"hypothesis_error": msg}, params, rows, text, out)
        else:
            print(f"hypothesis violated: {msg}", file=sys.stderr)
        return 4

    body = {**dataclasses.asdict(cert), "oracle": None}
    if args.with_oracle:
        target = hadamard_convolve(
            hypergeometric_coefficients(fp, args.oracle_order),
            worst_case_coefficients(source, args.oracle_order),
        )
        body["oracle"] = coefficient_condition_check(target, spec)
        body["disc_oracle"] = disc_sample_check(target, spec)
    verdict = cert.verdict.value
    rows = [
        "theorem_tag,lhs,rhs,margin,verdict",
        ",".join((cert.theorem_tag, _g17(cert.lhs), _g17(cert.rhs), _g17(cert.margin), verdict)),
    ]
    text = (
        f"{cert.theorem_tag}: {verdict}\n"
        f"lhs = {cert.lhs!r}  rhs = {cert.rhs!r}  margin = {cert.margin!r}"
    )
    _render(args, "certificate", body, params, rows, text, out)
    return {"certified": 0, "not_certified": 5, "inconclusive": 6}[verdict]


# ---------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace, out) -> int:
    tag = args.identity
    identity = IDENTITIES[tag]
    tolerance = args.tolerance if args.tolerance is not None else identity.tolerance
    if args.a is not None:
        b = args.b if args.b is not None else 1.0
        c = args.c if args.c is not None else 4.0
        points = [IdentityPoint(args.a, b, c, identity.family.order)]
    elif args.b is not None or args.c is not None:
        raise ValueError("--b and --c need --a (they give a single point)")
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
    rows = ["draw,residual"] + [f"{i},{_g17(r)}" for i, r in enumerate(residuals)]
    text = (
        f"{tag}: {len(residuals)} draws, max residual {worst!r} "
        f"({'pass' if passed else 'FAIL'} at {tolerance!r})"
    )
    _render(args, "verification", body, {"identity": tag}, rows, text, out)
    return 0 if passed else 5


# ---------------------------------------------------------------- sweep


def cmd_sweep(args: argparse.Namespace, out) -> int:
    family, kind, source_kind = _target_args(args)
    axes = [args.a, args.b, args.c]
    default_beta = 0.0 if source_kind is SourceKind.RBETA else None
    for axis, default in ((args.lam, _default_lambda(kind, None)), (args.beta, default_beta)):
        axes.append(axis or [default])
    size = math.prod(map(len, axes))
    if size > MAX_GRID_POINTS:
        raise ValueError(f"the grid has {size} points, more than {MAX_GRID_POINTS}")
    points = itertools.product(*axes)
    header = "family,source,class,a,b,c,lambda,beta,verdict,lhs,rhs,margin,error"
    lines = [header]
    with closedforms.shared_blocks():  # rows along a lambda or beta grid share every G_m
        for a, b, c, lam, beta in points:
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
                source = SourceClass(source_kind, beta)
                cert = certify_operator_mapping(fp, source, spec, args.policy)
                base += [cert.verdict.value, _g17(cert.lhs), _g17(cert.rhs), _g17(cert.margin), ""]
            except HypergftError as exc:
                base += ["error", "", "", "", _csv_quoted(f"{type(exc).__name__}: {exc}")]
            lines.append(",".join(base))
    _render(args, "rows", lines[1:], {"header": header}, lines, "\n".join(lines), out)
    return 0


# ---------------------------------------------------------------- entry


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The key = value lines of a config file as the command's own flags.

    A key is a flag name (_ or -) and becomes --key=value, so argparse checks
    the value as it checks a typed flag; an on/off flag takes true or false.
    """
    flags: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be key=value: {raw.rstrip()}")
            key, value = (p.strip() for p in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            action = command._option_string_actions.get(flag)
            if action is None:
                raise ValueError(f"unknown key {key!r} for {command.prog}")
            if isinstance(action, argparse._StoreTrueAction):
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"{key} must be true or false, got {value!r}")
                flags += [flag] if value.lower() == "true" else []
            else:
                flags.append(f"{flag}={value}")
    return flags


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser (--config, the command, the rest) and one parser per command."""
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help: str, handler) -> argparse.ArgumentParser:
        # A flag's invalid value raises ArgumentError, reported by main as bad input.
        p = commands[name] = argparse.ArgumentParser(
            prog=f"hypergft {name}", description=help, exit_on_error=False
        )
        p.set_defaults(command=name, handler=handler)
        return p

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rel-tol", type=finite_float, default=DEFAULT_POLICY.rel_tol)
        p.add_argument("--abs-tol", type=finite_float, default=DEFAULT_POLICY.abs_tol)
        p.add_argument("--max-terms", type=int, default=DEFAULT_POLICY.max_terms)
        p.add_argument("--format", choices=("json", "csv", "text"), default=None)
        p.add_argument("--seed", type=int, default=0)

    def target(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, help="split3 | split4")
        p.add_argument("--class", dest="klass", required=True,
                       choices=tuple(k.value for k in ClassKind))
        p.add_argument("--source", choices=tuple(s.value for s in SourceKind),
                       default="function")

    pe = command("eval", "evaluate a series, closed form, or integral", cmd_eval)
    pe.add_argument("--pfq", help="series name like 2F1 (checked against the lists)")
    pe.add_argument("--closed", help="gauss | shpot | 4f3 | 5f4 | lemma-secS-partP")
    pe.add_argument("--euler", help="integral level: " + " | ".join(closedforms.EULER_LEVELS))
    pe.add_argument("--upper", type=_parse_list, help="comma-separated upper parameters")
    pe.add_argument("--lower", type=_parse_list, help="comma-separated lower parameters")
    pe.add_argument("--a", type=_parse_complex)
    pe.add_argument("--b", type=_parse_complex)
    pe.add_argument("--c", type=finite_float)
    pe.add_argument("--z", type=_parse_complex, help="default 0")
    pe.add_argument("--quad-tol", type=finite_float, help="default 1e-10")
    common(pe)

    pc = command("certify", "emit a membership certificate", cmd_certify)
    target(pc)
    pc.add_argument("--a", type=_parse_complex, required=True)
    pc.add_argument("--b", type=_parse_complex, required=True)
    pc.add_argument("--c", type=finite_float, required=True)
    pc.add_argument("--lambda", dest="lam", type=finite_float)
    pc.add_argument("--beta", type=finite_float)
    pc.add_argument("--with-oracle", action="store_true",
                    help="attach coefficient-sum and disc-sampling reports")
    pc.add_argument("--oracle-order", type=int, default=500)
    pc.add_argument("--allow-hypothesis-error", action="store_true",
                    help="report hypothesis violations instead of erroring out")
    common(pc)

    pv = command("verify", "run seeded residual draws for an identity", cmd_verify)
    pv.add_argument("--identity", required=True, choices=tuple(IDENTITIES))
    pv.add_argument("--draws", type=int, default=100)
    pv.add_argument("--tolerance", type=finite_float)
    pv.add_argument("--a", type=_parse_complex)
    pv.add_argument("--b", type=_parse_complex)
    pv.add_argument("--c", type=finite_float)
    common(pv)

    ps = command("sweep", "certify over a parameter grid, CSV per row", cmd_sweep)
    target(ps)
    ps.add_argument("--a", type=_parse_range, default="0.5")
    ps.add_argument("--b", type=_parse_range, default="0.5")
    ps.add_argument("--c", type=_parse_range, default="10")
    ps.add_argument("--lambda", dest="lam", type=_parse_range)
    ps.add_argument("--beta", type=_parse_range)
    common(ps)

    parser = argparse.ArgumentParser(
        prog="hypergft", allow_abbrev=False,  # --c is not --config
        description="Evaluate split-ladder hypergeometric identities and certify class membership.",
    )
    parser.add_argument("--config", help="key=value file of the command's flags; "
                        "flags given after the command override it")
    parser.add_argument("command", choices=tuple(commands),
                        help="; ".join(f"{n}: {p.description}" for n, p in commands.items()))
    parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="FLAGS",
                        help="the command's flags; hypergft COMMAND -h lists them")
    return parser, commands


_PARSER, _COMMANDS = _build_parsers()


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        top = _PARSER.parse_args(argv)
        command = _COMMANDS[top.command]
        try:
            flags = _config_flags(top.config, command) if top.config else []
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 1
        # Config flags go first, so a flag given on the command line wins.
        args = command.parse_args(flags + _glue_numbers(top.rest))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except argparse.ArgumentError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 1

    try:
        args.policy = PrecisionPolicy(args.rel_tol, args.abs_tol, args.max_terms)
    except ValueError as exc:
        print(f"bad precision policy: {exc}", file=sys.stderr)
        return 1
    args.format = args.format or ("csv" if args.command == "sweep" else "json")

    try:
        code = args.handler(args, out)
        out.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader went away (| head).  Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again (Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
