import io
import json
import math

import pytest

from hypergft import closedforms
from hypergft.cli import DEFAULT_TOLERANCES, _build_parser, main
from hypergft.errors import InsufficientOrderError
from hypergft.families import Family, FamilyParams
from hypergft.numcore import DEFAULT_POLICY
from hypergft.oracle import IDENTITIES, identity_residual


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


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


class TestCertify:
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

    def test_tags_are_the_registry_keys(self):
        _, commands = _build_parser()
        choices = next(a.choices for a in commands["verify"]._actions if a.dest == "identity")
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
