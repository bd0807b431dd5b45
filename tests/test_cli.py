import argparse
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hypergft
from hypergft import closedforms
from hypergft.certifier import certify_function_class
from hypergft.classes import ClassKind, ClassSpec
from hypergft.cli import _COMMANDS, DEFAULT_TOLERANCES, _parse_range, main
from hypergft.errors import InsufficientOrderError, NoConvergenceError
from hypergft.families import Family, FamilyParams
from hypergft.numcore import DEFAULT_POLICY
from hypergft.oracle import IDENTITIES, identity_residual


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _child_env():
    """The environment of a child process that imports this hypergft."""
    src = str(Path(hypergft.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run_capped(argv, seconds=20, memory=1 << 30):
    """hypergft ARGV in a child process limited to SECONDS and MEMORY bytes."""
    return subprocess.run(
        [sys.executable, "-m", "hypergft.cli", *argv], capture_output=True, env=_child_env(),
        timeout=seconds, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)),
    )


def run_json(*argv):
    code, text = run(*argv)
    return code, json.loads(text) if text.strip() else None


class TestEval:
    def test_pfq_log_point(self):
        code, doc = run_json("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "2", "--z", "0.5")
        assert code == 0
        assert doc["schema"] == "hypergft/1"
        assert abs(doc["result"]["value"]["re"] - 2.0 * math.log(2.0)) < 1e-10

    def test_closed_gauss_zero_a(self):
        code, doc = run_json("eval", "--closed", "gauss", "--a", "0", "--b", "1", "--c", "3")
        assert code == 0
        assert abs(doc["result"]["value"]["re"] - 1.0) < 1e-12

    @pytest.mark.parametrize("tag, a, b, c", [
        ("shpot", "0.948", "26.7652", "26.7652012"),  # two gamma terms cancel as c -> b
        ("gauss", "0.5", "0.5", "170"),  # log-gamma values near 700
    ])
    def test_closed_gamma_forms_within_bound(self, tag, a, b, c):
        mpmath = pytest.importorskip("mpmath")
        code, doc = run_json("eval", "--closed", tag, "--a", a, "--b", b, "--c", c)
        assert code == 0
        with mpmath.workdps(30):
            a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
            if tag == "gauss":
                ref = mpmath.hyp2f1(a, b, c, 1)
            else:
                ref = mpmath.hyp3f2(a, b, c, b + 1, c + 1, 1)
        res = doc["result"]
        assert abs(res["value"]["re"] - float(ref)) <= res["tail_bound"]

    def test_divergent_exits_two(self):
        code, _ = run("eval", "--pfq", "3F2", "--upper", "1,1,1", "--lower", "2,0.5",
                      "--z", "2.0")
        assert code == 2

    def test_region_violation_exits_two(self):
        code, _ = run("eval", "--closed", "gauss", "--a", "3", "--b", "1", "--c", "3")
        assert code == 2

    def test_conditional_case_exits_three(self):
        # conditionally convergent boundary: only terminating sums are taken
        code, _ = run("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "1.5",
                      "--z", "-1")
        assert code == 3

    def test_bad_input_exits_one(self):
        code, _ = run("eval", "--pfq", "2F1", "--upper", "1", "--lower", "2", "--z", "0.5")
        assert code == 1
        code, _ = run("eval", "--closed", "nonsense", "--a", "1", "--b", "1", "--c", "3")
        assert code == 1

    @pytest.mark.parametrize("tag", ["gauss", "shpot", "shpot-srivastava", "4f3", "5f4",
                                     "lemma-sec2-part1"])
    @pytest.mark.parametrize("given", [("--b", "1", "--c", "3"), ("--a", "0.3", "--c", "3"),
                                       ("--a", "0.3", "--b", "1")])
    def test_closed_form_missing_parameter_is_bad_input(self, tag, given, capsys):
        code, text = run("eval", "--closed", tag, *given)
        assert code == 1
        assert text == ""
        assert "bad input: --a, --b and --c are required here" in capsys.readouterr().err

    def test_zero_gamma_ratio_exits_two(self, capsys):
        # Gamma(b) with b = -1 sits in the prefactor's denominator: ZeroError.
        code, text = run("eval", "--closed", "4f3", "--a", "0.5", "--b", "-1", "--c", "5")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("constraint violated: ")

    def test_other_package_error_exits_one(self, monkeypatch, capsys):
        def fail(fp, policy):
            raise InsufficientOrderError("too few coefficients")

        monkeypatch.setattr(closedforms, "four_f3_at_1", fail)
        code, text = run("eval", "--closed", "4f3", "--a", "0.5", "--b", "1", "--c", "5")
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: too few coefficients\n"

    @pytest.mark.parametrize("level, upper, lower", [
        ("2f1", "0.3,0.9", "1.7"), ("pfq", "0.9,0.7,1.3", "2.1,1.8"),
    ])
    @pytest.mark.parametrize("quad_tol", ["0", "-1"])
    def test_unreachable_quad_tol_exits_one(self, level, upper, lower, quad_tol, capsys):
        code, text = run("eval", "--euler", level, "--upper", upper, "--lower", lower,
                         "--z", "0.4", "--quad-tol", quad_tol)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("bad input: quad_tol must be finite and positive")

    def test_negative_abs_tol_exits_one(self, capsys):
        code, _ = run("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "2", "--z", "0.5",
                      "--abs-tol", "-1")
        assert code == 1
        assert capsys.readouterr().err.startswith("bad precision policy: abs_tol")

    def test_euler_level(self):
        code, doc = run_json(
            "eval", "--euler", "2f1", "--upper", "1,1", "--lower", "2", "--z", "0.5",
            "--quad-tol", "1e-10",
        )
        assert code == 0
        assert abs(doc["result"]["value"]["re"] - 2.0 * math.log(2.0)) < 1e-8

    def test_lemma_closed_form(self):
        code, doc = run_json("eval", "--closed", "lemma-sec2-part1", "--a", "0.5", "--b", "1", "--c", "6")
        assert code == 0
        assert doc["result"]["value"]["re"] > 1.0

    @pytest.mark.parametrize("argv", [
        ("--pfq", "2F1", "--upper", "1.5,2", "--lower", "3", "--z", "0.5"),
        ("--closed", "4f3", "--a", "0.3", "--b", "0.7", "--c", "6"),
    ])
    def test_text_format_prints_plain_floats(self, argv):
        code, text = run("eval", *argv, "--format", "text")
        assert code == 0
        assert "tail_bound = " in text
        assert "np." not in text

    def test_csv_format(self):
        code, text = run("eval", "--pfq", "1F0", "--upper", "2", "--lower", "", "--z", "0.25",
                         "--format", "csv")
        assert code == 0
        header, row = text.strip().splitlines()
        assert header.startswith("value_re")
        assert abs(float(row.split(",")[0]) - 16.0 / 9.0) < 1e-12

    PFQ = ("--pfq", "2F1", "--upper", "1,1", "--lower", "2", "--z", "0.5")
    CLOSED = ("--closed", "4f3", "--a", "0.3", "--b", "0.5", "--c", "6")
    EULER = ("--euler", "2f1", "--upper", "1,1", "--lower", "2", "--z", "0.5")

    @pytest.mark.parametrize("mode, foreign", [
        (PFQ, ("--a", "0.3")),
        (PFQ, ("--c", "6")),
        (PFQ, ("--quad-tol", "1e-3")),
        (CLOSED, ("--z", "0.5")),
        (CLOSED, ("--upper", "1")),
        (CLOSED, ("--lower", "")),
        (CLOSED, ("--quad-tol", "1e-3")),
        (EULER, ("--b", "0.5")),
    ])
    def test_flag_of_another_mode_is_bad_input(self, mode, foreign, capsys):
        assert run("eval", *mode)[0] == 0
        code, text = run("eval", *mode, *foreign)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"bad input: {foreign[0]} is not read by {mode[0]}\n"

    @pytest.mark.parametrize("line, flag", [("z = 0.5", "--z"), ("quad_tol = 1e-3", "--quad-tol")])
    def test_flag_of_another_mode_from_config_is_bad_input(self, tmp_path, capsys, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, text = run("--config", str(cfg), "eval", *self.CLOSED)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"bad input: {flag} is not read by --closed\n"

    @pytest.mark.parametrize("flag, value", [
        ("--z", "-0.5+0.3j"),
        ("--z", "-0.5-0.3j"),
        ("--z", "-1e-1+0.3j"),
        ("--z", "-0.5"),
        ("--upper", "-0.1,0.7,1.3"),
    ])
    def test_negative_number_after_its_flag_is_its_value(self, flag, value):
        # argparse alone reads '-0.5+0.3j' as an option and exits 1 with
        # 'expected one argument'; the spaced form must equal --flag=value
        args = {"--upper": "0.9,0.7,1.3", "--lower": "2.1,1.8", "--z": "0.4"}
        del args[flag]
        argv = ["eval", "--pfq", "3F2", *(tok for pair in args.items() for tok in pair)]
        spaced = run_json(*argv, flag, value)
        joined = run_json(*argv, f"{flag}={value}")
        assert spaced[0] == 0 and spaced == joined
        params = spaced[1]["params"]
        got = params["z"] if flag == "--z" else params["upper"][0]
        assert complex(got["re"], got["im"]) == complex(value.split(",")[0])

    def test_flag_after_a_flag_is_still_a_missing_value(self, capsys):
        code, _ = run("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "2", "--z", "--format", "json")
        assert code == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_unset_flags_report_their_defaults(self):
        code, doc = run_json("eval", "--euler", "2f1", "--upper", "1,1", "--lower", "2")
        assert code == 0
        assert doc["params"]["z"] == {"re": 0.0, "im": 0.0}
        assert doc["params"]["quad_tol"] == 1e-10
        code, doc = run_json("eval", "--pfq", "0F0")
        assert code == 0
        assert (doc["params"]["upper"], doc["params"]["lower"]) == ([], [])


class TestCertify:
    def test_overflowing_prefactor_exits_two_with_one_line(self, capsys):
        code, text = run(
            "certify", "--family", "split3", "--a", "0.5", "--b", "0.5", "--c", "175",
            "--class", "starlike",
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("constraint violated: gamma ratio Gamma(175) Gamma(174) / ")
        assert "overflows the float range" in err

    def test_certified_exit_zero(self):
        code, doc = run_json(
            "certify", "--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "20",
            "--class", "starlike", "--lambda", "1",
        )
        assert code == 0
        assert doc["certificate"]["verdict"] == "certified"
        assert doc["certificate"]["theorem_tag"] == "split3.function.starlike"

    def test_hypothesis_error_exit_four(self):
        code, _ = run(
            "certify", "--family", "split4", "--a", "0.1", "--b", "0.1", "--c", "2.2",
            "--class", "ucv",
        )
        assert code == 4

    def test_allow_hypothesis_error_still_exits_four_with_report(self):
        code, doc = run_json(
            "certify", "--family", "split4", "--a", "0.1", "--b", "0.1", "--c", "2.2",
            "--class", "ucv", "--allow-hypothesis-error",
        )
        assert code == 4
        assert "hypothesis_error" in doc["certificate"]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_allow_hypothesis_error_honours_format(self, fmt):
        # R(beta) -> sp has a part-4 region message, which holds commas.
        argv = (
            "certify", "--family", "split3", "--a", "0.5", "--b", "0.5", "--c", "1.5",
            "--class", "sp", "--source", "rbeta", "--beta", "0", "--allow-hypothesis-error",
        )
        code, doc = run_json(*argv)
        assert code == 4
        message = doc["certificate"]["hypothesis_error"]
        assert "," in message
        code, text = run(*argv, "--format", fmt)
        assert code == 4
        lines = text.splitlines()
        if fmt == "csv":
            assert list(csv.reader(lines)) == [["hypothesis_error"], [message]]
        else:
            assert lines == [f"hypothesis violated: {message}"]

    def test_beta_out_of_range_exit_one(self):
        code, _ = run(
            "certify", "--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "25",
            "--class", "starlike", "--lambda", "1", "--source", "rbeta", "--beta", "1.2",
        )
        assert code == 1

    def test_not_certified_exit_five(self):
        code, _ = run(
            "certify", "--family", "split3", "--a", "2", "--b", "3", "--c", "6.2",
            "--class", "starlike", "--lambda", "1",
        )
        assert code == 5

    def test_with_oracle_attaches_reports(self):
        code, doc = run_json(
            "certify", "--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "25",
            "--class", "starlike", "--lambda", "1", "--source", "rbeta", "--beta", "0",
            "--with-oracle",
        )
        assert code == 0
        oracle = doc["certificate"]["oracle"]
        assert oracle["passed"] is True
        assert oracle["check"] == "coeff_sum"
        disc = doc["certificate"]["disc_oracle"]
        assert disc["passed"] is True
        assert disc["check"] == "disc_sample"

    @pytest.mark.parametrize("source", [(), ("--source", "rbeta", "--beta", "0.3"), ("--source", "s")])
    def test_oracle_order_one(self, source):
        code, doc = run_json(
            "certify", "--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "20",
            "--class", "starlike", *source, "--with-oracle", "--oracle-order", "1",
        )
        assert code == 0
        assert doc["certificate"]["oracle"]["budget"] == 1
        assert doc["certificate"]["disc_oracle"]["passed"] is True

    def test_text_format_prints_plain_floats(self):
        code, text = run(
            "certify", "--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "20",
            "--class", "starlike", "--lambda", "1", "--format", "text",
        )
        assert code == 0
        assert "lhs = 1.0000" in text
        assert "np." not in text

    def test_divergent_band_not_certified_with_infinite_lhs(self):
        # |a| + |b| - 1 < c <= |a| + |b| lies in the part-4 region, but sum T_n diverges.
        code, text = run(
            "certify", "--family", "split4", "--a", "1.5", "--b", "5.2", "--c", "6.2",
            "--class", "sp", "--source", "rbeta", "--beta", "0.5",
        )
        assert code == 5
        cert = json.loads(text)["certificate"]
        assert cert["verdict"] == "not_certified"
        assert cert["lhs"] == math.inf

    def test_lambda_out_of_range(self):
        code, _ = run(
            "certify", "--family", "split4", "--a", "0.1", "--b", "0.1", "--c", "20",
            "--class", "starlike", "--lambda", "1.5",
        )
        assert code == 1


class TestVerify:
    def test_pochhammer_split_sweep(self):
        code, doc = run_json("verify", "--identity", "pochhammer-split", "--draws", "200", "--seed", "7")
        assert code == 0
        assert doc["verification"]["max_residual"] < 1e-10

    def test_overflowing_point_exits_two_with_one_line(self, capsys):
        # (1e7)_48 is beyond the float range: a constraint violation, not a
        # residual failure with a NaN residual.
        code, text = run("verify", "--identity", "pochhammer-split", "--a", "1e7", "--b", "1", "--c", "4")
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("constraint violated: ") and err.count("\n") == 1
        assert "NaN" not in err

    def test_single_point_gauss_zero_a(self):
        code, doc = run_json("verify", "--identity", "gauss", "--a", "0", "--b", "1", "--c", "3")
        assert code == 0
        assert doc["verification"]["max_residual"] < 1e-12

    def test_lemma_draws(self):
        code, doc = run_json("verify", "--identity", "lemma-sec2-part1", "--draws", "10", "--seed", "3")
        assert code == 0

    def test_failure_emits_ledger_entry(self):
        code, doc = run_json(
            "verify", "--identity", "gauss", "--draws", "5", "--seed", "1",
            "--tolerance", "1e-18",
        )
        assert code == 5
        entry = doc["verification"]["typo_ledger_entry"]
        assert entry["identity"] == "gauss"

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_draws_below_one_rejected(self, draws, capsys):
        code, _ = run("verify", "--identity", "gauss", "--draws", draws)
        assert code == 1
        assert "--draws" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [("--b", "2"), ("--c", "4"), ("--b", "2", "--c", "4")])
    def test_point_parameters_without_a_rejected(self, given, capsys):
        code, text = run("verify", "--identity", "gauss", *given)
        assert code == 1
        assert text == ""
        assert "--a" in capsys.readouterr().err

    def test_tags_are_the_registry_keys(self):
        choices = next(a.choices for a in _COMMANDS["verify"]._actions if a.dest == "identity")
        assert len(IDENTITIES) == 16
        assert tuple(choices) == tuple(IDENTITIES)
        assert tuple(DEFAULT_TOLERANCES) == tuple(IDENTITIES)

    @pytest.mark.parametrize(
        "tag, a, b, c",
        [("gauss", 0.5, 1.0, 3.0), ("shpot-srivastava", 0.3, 1.0, 2.0), ("lemma-sec2-part1", 0.3, 1.0, 6.0)],
    )
    def test_single_point_is_identity_residual(self, tag, a, b, c):
        code, doc = run_json("verify", "--identity", tag, "--a", str(a), "--b", str(b), "--c", str(c))
        assert code == 0
        expected = identity_residual(tag, FamilyParams(a, b, c, Family.SPLIT3), policy=DEFAULT_POLICY)
        assert doc["verification"]["residuals"] == [expected]

    def test_single_point_uses_the_package_default_policy(self):
        # A draw of the gauss sampler (seed 7) whose residual depends on the policy.
        a, b, c = 1.3023316079704164, 2.489213767782512, 5.28675322035151
        code, doc = run_json("verify", "--identity", "gauss", "--a", repr(a), "--b", repr(b), "--c", repr(c))
        assert code == 0
        assert doc["verification"]["residuals"] == [identity_residual("gauss", FamilyParams(a, b, c))]

    def test_unconverged_side_exits_three(self, capsys):
        # 64 terms leave the weighted sum at z = 1 unconverged: no residual is reported
        code, text = run("verify", "--identity", "lemma-sec3-part2", "--max-terms", "64")
        assert (code, text) == (3, "")
        assert capsys.readouterr().err.startswith("no convergence: ")

    def test_deterministic_reports(self):
        _, first = run("verify", "--identity", "5f4-at-1", "--draws", "5", "--seed", "11")
        _, second = run("verify", "--identity", "5f4-at-1", "--draws", "5", "--seed", "11")
        assert first == second


class TestSweep:
    def test_margin_monotone_in_c(self):
        code, text = run(
            "sweep", "--family", "split3", "--class", "starlike", "--lambda", "1",
            "--a", "0.5", "--b", "0.5", "--c", "4:24:4",
        )
        assert code == 0
        rows = text.strip().splitlines()
        assert rows[0].startswith("family,source,class")
        margins = [float(r.split(",")[11]) for r in rows[1:]]
        assert all(x <= y + 1e-12 for x, y in zip(margins, margins[1:]))

    def test_beta_sweep_margins_nondecreasing(self):
        code, text = run(
            "sweep", "--family", "split3", "--class", "starlike", "--lambda", "1",
            "--source", "rbeta", "--beta", "0:0.9:0.3",
            "--a", "0.2", "--b", "0.2", "--c", "25",
        )
        assert code == 0
        rows = text.strip().splitlines()[1:]
        margins = [float(r.split(",")[11]) for r in rows]
        assert all(x <= y + 1e-12 for x, y in zip(margins, margins[1:]))

    @pytest.mark.parametrize("source", ["function", "s"])
    def test_beta_without_rbeta_source_rejected(self, source, capsys):
        code, text = run(
            "sweep", "--family", "split3", "--class", "sp", "--source", source,
            "--a", "0.3", "--b", "0.4", "--c", "9", "--beta", "0:0.2:0.1",
        )
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert "--beta is only meaningful with --source rbeta" in err
        code, _ = run(
            "certify", "--family", "split3", "--class", "sp", "--source", source,
            "--a", "0.3", "--b", "0.4", "--c", "9", "--beta", "0.1",
        )
        assert code == 1
        assert capsys.readouterr().err == err

    def test_row_level_errors_recorded(self):
        code, text = run(
            "sweep", "--family", "split4", "--class", "ucv",
            "--a", "0.5", "--b", "0.5", "--c", "2:14:4",
        )
        assert code == 0
        rows = text.strip().splitlines()[1:]
        assert any("HypothesisError" in r for r in rows)
        assert any("certified" in r for r in rows)

    def test_overflowing_prefactor_rows_are_error_rows(self):
        # The ladder prefactor leaves the float range near c = 175 (a = b = 0.5).
        code, text = run(
            "sweep", "--family", "split3", "--class", "starlike",
            "--a", "0.5", "--b", "0.5", "--c", "20:200:90",
        )
        assert code == 0
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        assert [(r[5], r[8], r[12]) for r in rows] == [
            ("20", "certified", ""), ("110", "certified", ""), ("200", "error", "ConstraintError"),
        ]

    def test_closed_stdout_ends_without_traceback(self):
        # The reader closes after the first line. The write of the report is
        # cut short without an error; the newline written after it meets the
        # broken pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "hypergft.cli", "sweep", "--family", "split3",
             "--class", "starlike", "--lambda", "0.001:1:0.001", "--a", "0.1", "--b", "0.1",
             "--c", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"family,source,class,")
        assert b"Traceback" not in err and b"Error" not in err

    @pytest.mark.parametrize("grid", [
        ("--c", "1e20:2e20:1"),  # step 1 is below the float spacing at 1e20
        ("--c", "0:1e9:1e-3"),
        ("--c=-1e308:1e308:1",),  # hi - lo overflows
        ("--lambda", "0:1:1e-320"),
        ("--a", "0:1000:1", "--b", "0:999:1"),  # 1001 x 1000 points
    ])
    def test_oversized_grid_is_bad_input(self, grid):
        # In a child process under a time and memory cap: a grid that is
        # built before it is checked would hang or fill the memory.
        proc = _run_capped(["sweep", "--family", "split3", "--class", "starlike", *grid])
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"bad input: ") and b"1000000" in proc.stderr

    def test_range_points_are_lo_plus_i_step(self):
        # A running sum x += step would drift to 103.299999999999.
        code, text = run("sweep", "--family", "split3", "--class", "sp", "--c", "49.6:106.3:0.3")
        assert code == 0
        cs = [row.split(",")[5] for row in text.splitlines()[1:]]
        assert len(cs) == 190 and cs[-1] == "106.3" and "103.3" in cs

    def test_a_step_below_the_old_pad_ends_at_hi(self):
        code, text = run("sweep", "--family", "split3", "--class", "sp", "--source", "rbeta",
                         "--beta", "0:3e-12:1e-12", "--c", "9")
        assert code == 0
        betas = [float(row.split(",")[7]) for row in text.splitlines()[1:]]
        assert betas == [0.0, 1e-12, 2e-12, 3e-12]

    @pytest.mark.parametrize("text, points", [
        ("1000000:1000000.000003:0.000001",
         [1000000.0, 1000000.000001, 1000000.000002, 1000000.000003]),
        # hi - lo rounds to 8.99995 steps in float64; the decimal grid still reaches hi
        ("1000000:1000000.000009:0.000001", [float(f"1000000.00000{i}") for i in range(10)]),
        ("1e-13:5e-13:1e-13", [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]),
    ])
    def test_range_points_are_the_decimal_grid(self, text, points):
        assert _parse_range(text) == points

    def test_empty_grid_exit_one(self):
        code, _ = run(
            "sweep", "--family", "split3", "--class", "ucv", "--a", "", "--b", "0.5",
            "--c", "10",
        )
        assert code == 1

    def test_byte_identical_csv(self):
        args = ("sweep", "--family", "split4", "--class", "sp",
                "--a", "0.3", "--b", "0.4", "--c", "8:16:4")
        _, one = run(*args)
        _, two = run(*args)
        assert one == two


def _count_blocks(monkeypatch):
    """Record the arguments (order, a, b, c, m, policy) of every block evaluated,
    and the memo its batch ran under."""
    calls = []
    blocks = closedforms._ladder_blocks

    def counted(order, a, b, c, shifts, policy):
        memo = closedforms._SHARED_BLOCKS.get()
        calls.extend(((order, a, b, c, m, policy), memo) for m in shifts)
        return blocks(order, a, b, c, shifts, policy)

    monkeypatch.setattr(closedforms, "_ladder_blocks", counted)
    return calls


# A lambda grid and an rbeta beta grid per family; the lowest c of each
# breaks the hypothesis, and c = 6.2 of the beta grid lies in the R(beta)
# band |a| + |b| - 1 < c <= |a| + |b| (lhs = inf).
_SHARED_SWEEPS = [
    (f"split{k}", grid)
    for k in (3, 4)
    for grid in (
        ("--class", "convex", "--lambda", "0.2:1:0.2", "--a", "0.3", "--b", "0.4", "--c", "2:10:4"),
        ("--class", "sp", "--source", "rbeta", "--beta", "0:0.8:0.4",
         "--a", "1.5", "--b", "5.2", "--c", "4.2:8.2:2"),
    )
]


class TestSharedBlocks:
    """sweep evaluates each block G_m once per call and nothing across calls."""

    @pytest.mark.parametrize("family, grid", _SHARED_SWEEPS)
    def test_rows_equal_the_certify_reports(self, family, grid):
        code, doc = run_json("sweep", "--family", family, *grid, "--format", "json")
        assert code == 0
        header = doc["params"]["header"].split(",")
        kinds = set()
        for line in doc["rows"]:
            row = dict(zip(header, line.split(",")))
            argv = ["certify", "--family", family, "--class", row["class"], "--source", row["source"],
                    "--a", row["a"], "--b", row["b"], "--c", row["c"]]
            argv += ["--lambda", row["lambda"]] if row["lambda"] else []
            argv += ["--beta", row["beta"]] if row["beta"] else []
            cert_code, cert_doc = run_json(*argv)
            if row["verdict"] == "error":
                assert (row["error"], cert_code, cert_doc) == ("HypothesisError", 4, None)
                kinds.add("error")
                continue
            cert = cert_doc["certificate"]
            numbers = [float(row[key]) for key in ("lhs", "rhs", "margin")]
            assert numbers == [cert["lhs"], cert["rhs"], cert["margin"]], row
            assert row["verdict"] == cert["verdict"]
            kinds.add("band" if cert["lhs"] == math.inf else "finite")
        expected = {"error", "finite"} | ({"band"} if "rbeta" in grid else set())
        assert kinds == expected

    @pytest.mark.parametrize("family, grid", _SHARED_SWEEPS)
    def test_each_block_is_evaluated_once_per_sweep(self, family, grid, monkeypatch):
        calls = _count_blocks(monkeypatch)
        code, text = run("sweep", "--family", family, *grid)
        assert code == 0
        keys = [args for args, _ in calls]
        assert keys and len(set(keys)) == len(keys)
        # Every row with a finite lhs needs at least two blocks of its own.
        finite = [r for r in text.splitlines()[1:] if r.split(",")[9] not in ("", "inf")]
        assert len(keys) < 2 * len(finite)
        assert all(isinstance(memo, dict) for _, memo in calls)
        assert closedforms._SHARED_BLOCKS.get() is None

    def test_second_sweep_evaluates_its_blocks_again(self, monkeypatch):
        calls = _count_blocks(monkeypatch)
        argv = ("sweep", "--family", "split4", *_SHARED_SWEEPS[2][1])
        first = run(*argv)
        once = [args for args, _ in calls]
        assert once and run(*argv) == first
        assert [args for args, _ in calls] == once + once

    def test_certify_outside_a_sweep_sees_no_memo(self, monkeypatch):
        calls = _count_blocks(monkeypatch)
        fp = FamilyParams(0.3, 0.4, 8.0, Family.SPLIT4)
        first = certify_function_class(fp, ClassSpec(ClassKind.CONVEX, 0.5))
        assert certify_function_class(fp, ClassSpec(ClassKind.CONVEX, 0.5)) == first
        assert len(calls) == 6
        assert all(memo is None for _, memo in calls)

    def test_raised_blocks_are_not_kept(self, monkeypatch):
        calls = []

        def fail(*args):
            calls.append(args)
            raise NoConvergenceError("no tail certificate")

        monkeypatch.setattr(closedforms, "_ladder_blocks", fail)
        code, text = run("sweep", "--family", "split3", "--class", "starlike",
                         "--lambda", "0.2:1:0.2", "--a", "0.3", "--b", "0.4", "--c", "8")
        rows = text.splitlines()[1:]
        assert code == 0 and len(rows) == 5
        assert all(r.endswith(",error,,,,NoConvergenceError") for r in rows)
        assert len(calls) == len(rows) and len(set(calls)) == 1


class TestConfigFile:
    def test_config_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_terms = 50\nseed = 9\n# comment\n")
        code, doc = run_json(
            "--config", str(cfg), "verify", "--identity", "pochhammer-split", "--draws", "3",
        )
        assert code == 0
        assert doc["precision"]["max_terms"] == 50
        assert doc["seed"] == 9
        code, doc = run_json(
            "--config", str(cfg), "verify", "--identity", "pochhammer-split", "--draws", "3",
            "--seed", "4",
        )
        assert doc["seed"] == 4

    def test_equals_form_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 30\n")
        base = ("certify", "--family", "split3", "--a", "0.1", "--b", "0.1",
                "--class", "starlike", "--lambda", "1")
        for given in (("--c=20",), ("--c", "20")):
            code, doc = run_json("--config", str(cfg), *base, *given)
            assert code == 0
            assert doc["params"]["c"] == 20.0

    def test_sweep_takes_config_ranges(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 30\nlambda = 0.5\n")
        code, text = run(
            "--config", str(cfg), "sweep", "--family", "split3", "--class", "starlike",
            "--a", "0.5", "--b", "0.5",
        )
        assert code == 0
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        assert [(r[5], r[6]) for r in rows] == [("30", "0.5")]

    @pytest.mark.parametrize("value,attached", [("false", False), ("False", False), ("true", True)])
    def test_store_true_key_is_a_strict_boolean(self, tmp_path, value, attached):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"with-oracle = {value}\noracle-order = 50\n")
        code, doc = run_json(
            "--config", str(cfg), "certify", "--family", "split3", "--a", "0.1", "--b", "0.1",
            "--c", "25", "--class", "sp",
        )
        assert code == 0
        assert (doc["certificate"]["oracle"] is not None) is attached
        assert ("disc_oracle" in doc["certificate"]) is attached

    def test_store_true_key_rejects_non_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("with-oracle = maybe\n")
        code, _ = run(
            "--config", str(cfg), "certify", "--family", "split3", "--a", "0.1", "--b", "0.1",
            "--c", "25", "--class", "sp",
        )
        assert code == 1
        assert "bad config file" in capsys.readouterr().err

    def test_config_satisfies_required_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 30\n")
        code, doc = run_json(
            "--config", str(cfg), "certify", "--family", "split3", "--a", "0.5", "--b", "0.5",
            "--class", "ucv",
        )
        assert code == 0
        assert doc["params"]["c"] == 30.0

    def test_class_key_satisfies_required_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 30\nclass = ucv\n")
        code, doc = run_json(
            "--config", str(cfg), "certify", "--family", "split3", "--a", "0.5", "--b", "0.5",
        )
        assert code == 0
        assert doc["params"]["class"] == "ucv"

    def test_invalid_choice_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, text = run("--config", str(cfg), "verify", "--identity", "gauss", "--draws", "2")
        assert code == 1
        assert text == ""
        assert "xml" in capsys.readouterr().err

    @pytest.mark.parametrize("line,command", [
        ("lamda = 0.5", ("sweep", "--family", "split3", "--class", "starlike")),
        ("draws = 5", ("certify", "--family", "split3", "--a", "0.1", "--b", "0.1",
                       "--c", "25", "--class", "sp")),
    ])
    def test_unknown_key_exits_one_and_names_it(self, tmp_path, capsys, line, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, text = run("--config", str(cfg), *command)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert "bad config file" in err and repr(line.split()[0]) in err

    def test_negative_complex_value_is_not_an_option(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = -0.3+0.2j\nb = 1\nc = 3\n")
        code, doc = run_json("--config", str(cfg), "eval", "--closed", "gauss")
        assert code == 0
        assert doc["params"]["a"] == {"re": -0.3, "im": 0.2}

    def test_calls_do_not_rebuild_the_parser(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 30\n")
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k),
        )
        argv = ("certify", "--family", "split3", "--a", "0.5", "--b", "0.5", "--class", "ucv")
        assert run("--config", str(cfg), *argv)[0] == 0
        assert run(*argv, "--c", "30")[0] == 0
        assert built == []


class TestNonFiniteInput:
    """inf, nan and overflowing literals are bad input on one line, whether
    they come as a float flag, a complex number or a range end."""

    CERTIFY = ("certify", "--family", "split3", "--b", "0.5", "--class", "sp")

    @pytest.mark.parametrize("argv", [
        (*CERTIFY, "--a", "0.5", "--c", "inf"),
        (*CERTIFY, "--a", "nan", "--c", "10"),
        (*CERTIFY, "--a", "0.5", "--c", "10", "--source", "rbeta", "--beta", "nan"),
        ("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "inf", "--z", "0.5"),
        ("eval", "--pfq", "1F0", "--upper", "1", "--z", "1e400"),
        ("eval", "--closed", "gauss", "--a", "0.5", "--b", "infj", "--c", "3"),
        ("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "2", "--z", "0.5",
         "--rel-tol", "nan"),
        ("verify", "--identity", "gauss", "--draws", "2", "--tolerance", "inf"),
        ("sweep", "--family", "split3", "--class", "sp", "--c", "4:inf:1"),
        ("sweep", "--family", "split3", "--class", "sp", "--c=-inf"),
        ("sweep", "--family", "split3", "--class", "starlike", "--lambda", "0.2:1:nan"),
    ])
    def test_exits_one_with_one_line(self, argv, capsys):
        code, text = run(*argv)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("bad input: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("argv, flag", [
        (("eval", "--closed", "gauss", "--a", "nan", "--b", "0.5", "--c", "3"), "--a"),
        (("eval", "--pfq", "2F1", "--upper", "1,1", "--lower", "inf", "--z", "0.5"), "--lower"),
        (("eval", "--pfq", "1F0", "--upper", "1", "--z", "1e400"), "--z"),
        (("verify", "--identity", "gauss", "--a", "0.5", "--b", "x"), "--b"),
        (("sweep", "--family", "split3", "--class", "sp", "--c", "4:x:1"), "--c"),
        (("sweep", "--family", "split3", "--class", "starlike", "--lambda", "0.2:1:nan"), "--lambda"),
    ])
    def test_message_names_the_flag(self, argv, flag, capsys):
        assert run(*argv) == (1, "")
        assert capsys.readouterr().err.startswith(f"bad input: argument {flag}: ")

    def test_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = inf\n")
        code, text = run("--config", str(cfg), *self.CERTIFY, "--a", "0.5")
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err.startswith("bad input: argument --c: ")

    def test_finite_values_still_parse(self):
        code, doc = run_json(*self.CERTIFY, "--a", "0.5", "--c", "1e1")
        assert code == 0
        assert doc["params"]["c"] == 10.0


class TestFormatsAgree:
    """Every --format of a command carries the numbers of its JSON report."""

    @staticmethod
    def formats(*argv):
        outs = {}
        for fmt in ("json", "csv", "text"):
            code, text = run(*argv, "--format", fmt)
            outs[fmt] = (code, text)
        assert len({code for code, _ in outs.values()}) == 1
        return json.loads(outs["json"][1]), outs["csv"][1], outs["text"][1]

    @pytest.mark.parametrize("argv", [
        ("--pfq", "2F1", "--upper", "0.5,1+0.5j", "--lower", "1.5", "--z", "0.3-0.2j"),
        ("--closed", "5f4", "--a", "0.3", "--b", "0.5", "--c", "6"),
        ("--closed", "lemma-sec2-part4", "--a", "1.5", "--b", "4.5", "--c", "8"),
        ("--euler", "2f1", "--upper", "1,1", "--lower", "2", "--z", "0.5"),
    ])
    def test_eval(self, argv):
        doc, csv, text = self.formats("eval", *argv)
        res = doc["result"]
        expected = [res["value"]["re"], res["value"]["im"], res["tail_bound"], res["terms"]]
        header, row = csv.splitlines()
        assert header == "value_re,value_im,tail_bound,terms,converged"
        fields = row.split(",")
        assert [float(x) for x in fields[:4]] == expected
        assert fields[4] == str(res["converged"]).lower()
        lines = dict(line.split(" = ") for line in text.splitlines())
        value = complex(lines["value"])
        assert [value.real, value.imag, float(lines["tail_bound"]), int(lines["terms"])] == expected
        assert lines["converged"] == str(res["converged"])

    @pytest.mark.parametrize("argv", [
        ("--family", "split3", "--a", "0.1", "--b", "0.1", "--c", "20", "--class", "convex",
         "--lambda", "0.5"),
        ("--family", "split4", "--a", "1.5", "--b", "5.2", "--c", "6.2", "--class", "sp",
         "--source", "rbeta", "--beta", "0.5"),
    ])
    def test_certify(self, argv):
        doc, csv, text = self.formats("certify", *argv)
        cert = doc["certificate"]
        numbers = [cert["lhs"], cert["rhs"], cert["margin"]]
        header, row = csv.splitlines()
        assert header == "theorem_tag,lhs,rhs,margin,verdict"
        tag, *values, verdict = row.split(",")
        assert (tag, [float(x) for x in values], verdict) == (cert["theorem_tag"], numbers, cert["verdict"])
        head, body = text.splitlines()
        assert head == f"{cert['theorem_tag']}: {cert['verdict']}"
        assert [float(part.split(" = ")[1]) for part in body.split("  ")] == numbers

    @pytest.mark.parametrize("extra", [(), ("--tolerance", "1e-18")])
    def test_verify(self, extra):
        doc, csv, text = self.formats("verify", "--identity", "gauss", "--draws", "4", "--seed", "2", *extra)
        ver = doc["verification"]
        header, *rows = csv.splitlines()
        assert header == "draw,residual"
        assert [r.split(",")[0] for r in rows] == [str(i) for i in range(ver["draws"])]
        assert [float(r.split(",")[1]) for r in rows] == ver["residuals"]
        assert text.strip() == (
            f"gauss: {ver['draws']} draws, max residual {ver['max_residual']!r} "
            f"({'pass' if ver['passed'] else 'FAIL'} at {ver['tolerance']!r})"
        )

    def test_sweep(self):
        doc, csv, text = self.formats(
            "sweep", "--family", "split4", "--class", "ucv", "--a", "0.5", "--b", "0.5",
            "--c", "2:14:4",
        )
        header, *rows = csv.splitlines()
        assert doc["params"]["header"] == header
        assert doc["rows"] == rows
        assert text == csv


def test_euler_4f3_verify_exits_zero():
    code, doc = run_json("verify", "--identity", "euler-4f3", "--draws", "20", "--seed", "7")
    assert code == 0
    assert doc["verification"]["passed"] is True
