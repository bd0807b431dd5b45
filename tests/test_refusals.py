"""Every refusal of outside input, one parametrized test per module: each case
checks the exception type and a fragment of its message, and each CLI case
its exit code 1 and the message on stderr."""
import io

import numpy as np
import pytest

from hypergft import certifier, closedforms, families, numcore, quadrature, series
from hypergft.cli import main
from hypergft.errors import ConstraintError, PoleError
from hypergft.families import Family, FamilyParams
from hypergft.series import PFQParams

FP3 = FamilyParams(0.5, 0.5, 6.0, Family.SPLIT3)


@pytest.mark.parametrize("call, error, match", [
    (lambda: families.parse_family("split5"), ValueError, "unknown family 'split5'"),
    (lambda: FamilyParams(0.0, 1.0, 1.0), ValueError, "a must be nonzero"),
    (lambda: FamilyParams(1.0, 0.0, 1.0), ValueError, "b must be nonzero"),
    (lambda: FamilyParams(1.0, 1.0, -1.0), ValueError, "c must be positive"),
    (lambda: FamilyParams(1.0, 1.0, 1e-13), PoleError, r"lower ladder entry \(c\+0\)/3"),
])
def test_families(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: numcore.pochhammer(1.0, -1), ValueError, "order must be a natural number"),
    (lambda: numcore.pochhammer_split_residual(1.0, 0, 3), ValueError, "split order k must be >= 1"),
])
def test_numcore(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: closedforms.split_outer_sum(5, 0.5, 0.5, 6.0), ValueError,
     "split order must be 3 or 4"),
    (lambda: closedforms.euler_integral("3f2quad", PFQParams((0.7, 0.6, 0.9), (1.5, 2.0)), 0.3),
     ConstraintError, r"upper ladder must be a half-step ladder"),
    (lambda: closedforms.euler_integral("5f4", PFQParams((0.3, 0.9), (1.7,)), 0.3), ValueError,
     "unknown level '5f4'"),
    (lambda: closedforms.euler_integral("pfq", PFQParams((0.5, 1.0, 1.0), (2.0,)), 0.3),
     ConstraintError, r"^pfq needs 2 <= p <= q \+ 1, got 3F1$"),
    (lambda: closedforms.euler_integral("pfq", PFQParams((0.5,), ()), 0.3),
     ConstraintError, r"^pfq needs 2 <= p <= q \+ 1, got 1F0$"),
])
def test_closedforms(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: quadrature.adaptive_quad(np.sqrt, 1.0, 1.0, 1e-8), ValueError, "must have b > a"),
])
def test_quadrature(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: series.weighted_pochhammer_sum(FP3, "quartic"), ValueError, "unknown weight 'quartic'"),
])
def test_series(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: certifier.hypergeometric_coefficients(FP3, 0), ValueError, "need N >= 1"),
])
def test_certifier(call, error, match):
    with pytest.raises(error, match=match):
        call()


_SWEEP = ("sweep", "--family", "split3", "--class", "sp")


@pytest.mark.parametrize("argv, message", [
    (_SWEEP + ("--c", "1:2"), "range must be lo:hi:step, got '1:2'"),
    (_SWEEP + ("--c", "2:1:0.5"), "bad range '2:1:0.5'"),
    (_SWEEP + ("--c", "1:2:0"), "bad range '1:2:0'"),
    (_SWEEP + ("--a", "1:100:1", "--b", "1:100:1", "--c", "100:200:1"),
     f"the grid has {100 * 100 * 101} points, more than 1000000"),
    (("eval", "--upper", "1,1", "--lower", "2", "--z", "0.5"),
     "pick exactly one of --pfq, --closed, --euler"),
    (("eval", "--pfq", "2F1", "--euler", "2f1", "--upper", "1,1", "--lower", "2", "--z", "0.5"),
     "pick exactly one of --pfq, --closed, --euler"),
    (("certify", "--family", "split3", "--class", "sp", "--source", "rbeta",
      "--a", "0.5", "--b", "0.5", "--c", "9"), "--source rbeta requires --beta"),
])
def test_cli(argv, message, capsys):
    out = io.StringIO()
    assert main(list(argv), out=out) == 1
    assert out.getvalue() == ""
    assert message in capsys.readouterr().err


def test_cli_config_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("c = 20\nclass starlike\n")
    out = io.StringIO()
    code = main(["--config", str(cfg), "certify", "--family", "split3", "--a", "0.1", "--b", "0.1",
                 "--lambda", "1"], out=out)
    assert (code, out.getvalue()) == (1, "")
    assert capsys.readouterr().err == "bad config file: config line must be key=value: class starlike\n"

