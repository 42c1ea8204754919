from __future__ import annotations

import json
import math

import numpy as np
import pytest

from weylsys import MFunctionEvaluator, Potential, half_integer_bessel_m, m_alpha_info
from weylsys import cli
from weylsys.cli import UsageError, eval_number, main, parse_grid
from weylsys.mfunc import NAMED_GRIDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# numeric expressions and grid specs
# ---------------------------------------------------------------------------

def test_eval_number_accepts_common_forms():
    assert eval_number("1.5") == 1.5
    assert eval_number("1+2i") == 1 + 2j
    assert eval_number("i") == 1j
    assert eval_number("-i") == -1j
    assert eval_number("tan(pi/3)") == pytest.approx(math.tan(math.pi / 3))
    assert eval_number("inf") == complex(math.inf)
    assert eval_number("2*(1+i)/4") == pytest.approx(0.5 + 0.5j)


def test_eval_number_normalizes_negative_zero():
    val = eval_number("-0.0")
    assert math.copysign(1.0, val.real) == 1.0


def test_eval_number_rejects_garbage():
    for bad in ("", "1+*2", "foo", "__import__('os')", "x=1", "log(0)", "exp(1000)", "atan(i)"):
        with pytest.raises(UsageError):
            eval_number(bad)


def test_parse_grid_rectangular():
    pts = parse_grid("re=-2:2:5,im=0.5:2:3")
    assert len(pts) == 15
    assert complex(-2.0, 0.5) in pts and complex(2.0, 2.0) in pts


def test_parse_grid_real_axis_and_log():
    pts = parse_grid("re=-10:-1:4")
    assert all(p.imag == 0.0 for p in pts)
    logpts = parse_grid("re=1:100:3:log")
    assert [p.real for p in logpts] == pytest.approx([1.0, 10.0, 100.0])


@pytest.mark.parametrize("name, count", [
    ("default", 25), ("complex-default", 19), ("negative-default", 6), ("classify-default", 102),
])
def test_parse_grid_named_grids(name, count):
    pts = parse_grid(name)
    assert len(pts) == count
    assert pts == list(NAMED_GRIDS[name])
    with pytest.raises(UsageError):
        parse_grid(name + "s")


def test_parse_grid_rejects_bad_specs():
    for bad in ("re=1:2", "im=0:1:5", "re=a:b:c:d:e", "re=-1:10:4:log", "nonsense"):
        with pytest.raises(UsageError):
            parse_grid(bad)


# ---------------------------------------------------------------------------
# m-eval
# ---------------------------------------------------------------------------

def test_m_eval_closed_form_values(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--z", "i,-1")
    assert code == 0
    assert doc["command"] == "m-eval"
    assert doc["mode"] == "closed_form"
    rows = doc["rows"]
    assert rows[0][:2] == [0.0, 1.0]
    assert rows[0][2] == pytest.approx(1.2071067811865475)
    assert rows[0][3] == pytest.approx(-0.5)
    assert rows[0][4] == 0.0  # closed form carries no truncation error
    assert rows[1][2] == pytest.approx(1.5)
    assert rows[1][3] == 0.0


def test_m_eval_numeric_matches_closed_form(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--mode", "numeric", "--z", "i")
    assert code == 0
    row = doc["rows"][0]
    assert row[2] == pytest.approx(1.2071067811865475, rel=1e-8)
    assert row[3] == pytest.approx(-0.5, rel=1e-8)
    assert 0.0 < row[4] < 1e-6


def test_m_eval_free_potential(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--potential", "free", "--z", "-1")
    assert code == 0
    assert doc["mode"] == "closed_form"  # free is the nu = 1/2 Bessel closed form
    assert doc["rows"][0][2] == 1.0
    code, doc, _ = run_json(capsys, "m-eval", "--potential", "free", "--z=-1",
                            "--mode", "numeric")
    assert code == 0 and doc["mode"] == "numeric"
    assert doc["rows"][0][2] == pytest.approx(1.0, rel=1e-8)


def test_m_eval_half_integer_bessel_picks_the_closed_form(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--potential", "bessel:2.5", "--ell", "2",
                            "--z=-1")
    assert code == 0 and doc["mode"] == "closed_form"
    # nu = 5/2, ell = 2, k = 1: m = 2/ell + k p_1(2)/p_2(2) = 1 + (3/2)/(13/4)
    assert doc["rows"][0][2] == pytest.approx(19.0 / 13.0, rel=1e-15)
    code, doc, _ = run_json(capsys, "m-eval", "--potential", "bessel:2.2", "--z=-1")
    assert code == 0 and doc["mode"] == "numeric"


def test_m_eval_rotated_boundary(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--alpha", "pi/3", "--z", "-1")
    assert code == 0
    assert doc["rows"][0][2] == pytest.approx(-2.0224634999302356, rel=1e-10)


def test_m_eval_csv(capsys):
    code, out, _ = run(capsys, "m-eval", "--z=-1,-4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_z,im_z,re_m,im_m,error_bound"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "1.5"


def test_m_eval_grid_flag(capsys):
    code, doc, _ = run_json(capsys, "m-eval", "--grid", "re=-4:-1:4")
    assert code == 0
    assert len(doc["rows"]) == 4


def test_m_eval_usage_errors(capsys, tmp_path):
    # no points at all
    code, _, err = run(capsys, "m-eval")
    assert code == 2 and "grid" in err
    # a grid axis with no points, or a count that is not an integer
    code, out, err = run(capsys, "m-eval", "--grid", "re=0:1:0")
    assert code == 2 and out == "" and "grid count must be >= 1" in err
    code, out, err = run(capsys, "m-eval", "--grid", "re=0:1:x")
    assert code == 2 and out == "" and "bad grid count" in err
    # a potential file that does not exist
    missing = tmp_path / "no-such-table.txt"
    code, out, err = run(capsys, "m-eval", "--potential", str(missing), "--z", "i")
    assert code == 2 and out == "" and "cannot read potential file" in err
    # unparseable z
    code, _, err = run(capsys, "m-eval", "--z", "1+*2")
    assert code == 2
    # alpha outside (0, pi]
    code, _, err = run(capsys, "m-eval", "--alpha", "0", "--z", "i")
    assert code == 2
    # unknown mode, and the one spelling of each mode
    for mode in ("magic", "closed_form"):
        code, out, err = run(capsys, "m-eval", "--mode", mode, "--z", "i")
        assert code == 2 and out == "" and "--mode" in err
    # a function outside its domain, and a non-finite Bessel order
    code, out, err = run(capsys, "m-eval", "--z", "log(0)")
    assert code == 2 and out == "" and "cannot evaluate" in err
    code, out, err = run(capsys, "m-eval", "--potential", "bessel:inf", "--z", "i")
    assert code == 2 and out == "" and "finite nu > 0" in err
    # closed form demanded for a potential without one
    code, _, err = run(capsys, "m-eval", "--potential", "bessel:2.2",
                       "--mode", "closed-form", "--z", "i")
    assert code == 2 and "nu - 1/2 a non-negative integer" in err


def test_m_eval_on_a_tabulated_potential(capsys, tmp_path):
    # a 400-knot table of the example's q = 2/x^2 on [1, 60]: numeric m agrees
    # with the nu = 3/2 closed form to the table's spline error
    table = tmp_path / "q.txt"
    table.write_text("".join(f"{x} {2.0 / x**2}\n" for x in np.linspace(1.0, 60.0, 400)))
    code, doc, _ = run_json(capsys, "m-eval", "--potential", str(table), "--mode", "numeric",
                            "--z=-1,1+i")
    assert code == 0 and doc["potential"]["kind"] == "sampled"
    for row in doc["rows"]:
        z = complex(row[0], row[1])
        exact = half_integer_bessel_m(1.5, 1.0, z)
        assert abs(complex(row[2], row[3]) - exact) <= 1e-3 * abs(exact), z


def test_m_eval_solver_error_record(capsys):
    # z = +1 sits on [0, inf) where m is undefined
    code, doc, _ = run_json(capsys, "m-eval", "--z", "1")
    assert code == 3
    assert doc["error"]["type"] == "DomainError"


def test_m_eval_near_axis_is_a_solver_error(capsys):
    # at Im z = 1e-9 the backward Riccati flow cannot contract within X_max
    code, doc, _ = run_json(capsys, "m-eval", "--z", "5+1e-9i", "--mode", "numeric")
    assert code == 3
    assert doc["error"]["type"] == "ConvergenceError"
    assert "too close to [0, inf)" in doc["error"]["message"]


def test_m_eval_batch_agrees_with_the_scalar_evaluations(capsys):
    # one stacked sweep over the grid, then the alpha rotation and its bound
    code, doc, _ = run_json(capsys, "m-eval", "--z", "i,-2+0.5i,1-i,-1e-3,-10",
                            "--mode", "numeric", "--alpha", "pi/3")
    assert code == 0
    evaluator = MFunctionEvaluator(Potential.bessel())
    for re_z, im_z, re_m, im_m, bound in doc["rows"]:
        scalar = m_alpha_info(evaluator, math.pi / 3, complex(re_z, im_z))
        assert abs(complex(re_m, im_m) - scalar.value) <= bound + scalar.error_bound
        if im_z == 0.0:
            assert im_m == 0.0


@pytest.mark.parametrize("points, error", [
    ("i,5+1e-9i,1", "ConvergenceError"),
    ("i,1,5+1e-9i", "DomainError"),
])
def test_m_eval_reports_the_first_failing_point(capsys, points, error):
    code, doc, _ = run_json(capsys, "m-eval", "--z", points, "--mode", "numeric")
    assert code == 3
    assert doc["error"]["type"] == error


def test_m_eval_pole_error_carries_z(capsys):
    # cot(alpha) = m(-1) = 3/2 makes the rotation singular at z = -1
    code, doc, _ = run_json(capsys, "m-eval", "--alpha", "atan(2/3)", "--z", "-1")
    assert code == 3
    assert doc["error"]["type"] == "PoleError"
    assert doc["error"]["z"] == [-1.0, 0.0]
    assert "m_alpha" in doc["error"]["message"]


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_mu_infinity(capsys):
    code, doc, _ = run_json(capsys, "classify", "--mu", "inf")
    assert code == 0
    assert doc["pass"] is True
    cls = doc["classification"]
    assert cls["beta1"] == pytest.approx(0.0, abs=1e-6)
    assert cls["beta2"] == pytest.approx(math.pi / 4.0, abs=1e-6)
    names = [c["name"] for c in doc["checks"]]
    assert "herglotz-impedance" in names
    assert "stieltjes-impedance" in names
    assert "kernel-psd" in names
    accr = doc["accretivity"]
    assert accr["m0"] == pytest.approx(1.0, abs=1e-4)
    assert accr["system_sectorial"] is True


def test_classify_numeric_matches_the_closed_form_run(capsys):
    argv = ("classify", "--mu", "inf", "--h", "i", "--trials", "10")
    _, closed, _ = run_json(capsys, *argv, "--mode", "closed-form")
    code, doc, _ = run_json(capsys, *argv, "--mode", "numeric")
    assert code == 0 and doc["pass"] is True
    assert [c["name"] for c in doc["checks"]] == [c["name"] for c in closed["checks"]]
    assert abs(doc["classification"]["tan_beta1"]) <= 1e-3
    assert abs(doc["classification"]["tan_beta2"] - 1.0) <= 1e-3
    assert abs(doc["accretivity"]["tan_theta"] - 1.0) <= 1e-3


def test_classify_near_axis_grid_is_a_solver_error(capsys):
    code, doc, _ = run_json(capsys, "classify", "--mode", "numeric", "--trials", "3",
                            "--grid", "re=5:5:1,im=1e-9:1e-9:1")
    assert code == 3
    assert doc["error"]["type"] == "ConvergenceError"
    assert "too close to [0, inf)" in doc["error"]["message"]


def test_classify_mu_zero_fails_stieltjes(capsys):
    code, doc, _ = run_json(capsys, "classify", "--mu", "0")
    assert code == 1
    assert doc["pass"] is False
    assert doc["classification"] is None
    stj = [c for c in doc["checks"] if c["name"] == "stieltjes-impedance"][0]
    assert stj["pass"] is False


def test_classify_mu_expression(capsys):
    code, doc, _ = run_json(capsys, "classify", "--mu", "tan(pi/3)", "--h", "i")
    assert code == 0
    cls = doc["classification"]
    assert cls["beta1"] == pytest.approx(math.pi / 6.0, abs=1e-6)
    assert cls["beta2"] == pytest.approx(5.0 * math.pi / 12.0, abs=1e-6)
    assert cls["tan_sector_angle_product"] == pytest.approx(3.5131299192244385, rel=1e-4)
    assert cls["tan_sector_angle_gap"] == pytest.approx(6.431211569767402, rel=1e-4)
    assert doc["system"]["xi"] == pytest.approx(-1.0 / math.tan(math.pi / 3.0), rel=1e-9)


def test_classify_alpha_shorthand(capsys):
    code, doc, _ = run_json(capsys, "classify", "--alpha", "pi/3")
    assert code == 0
    assert doc["system"]["mu"] == pytest.approx(math.tan(math.pi / 3.0))


@pytest.mark.parametrize("alpha, mu", [("pi/2", "inf"), ("pi", "0")])
def test_classify_alpha_corners_are_the_exact_couplings(capsys, alpha, mu):
    # tan(pi/2) and tan(pi) in floating point are 1.6e16 and -1.2e-16
    argv = ("classify", "--h", "i", "--trials", "2")
    assert run(capsys, *argv, "--alpha", alpha) == run(capsys, *argv, "--mu", mu)


@pytest.mark.parametrize("argv", [
    ("--alpha", "4"),
    ("--alpha", "0"),
    ("--alpha", "1)+(2"),
    ("--mu", "1", "--alpha", "0.3"),
], ids=["above-pi", "zero", "not-a-number", "with-mu"])
def test_classify_bad_alpha(capsys, no_solve, argv):
    code, out, err = run(capsys, "classify", "--mode", "numeric", "--trials", "2", *argv)
    assert code == 2 and out == ""
    assert "alpha" in err or "number" in err


def test_classify_accretivity_details(capsys):
    code, doc, _ = run_json(capsys, "classify", "--mu", "2", "--h", "i")
    assert code == 0
    accr = doc["accretivity"]
    assert accr["tan_theta"] == pytest.approx(1.0, abs=1e-4)
    assert accr["mu_threshold"] == pytest.approx(1.0, abs=1e-4)
    assert accr["system_accretive"] is True and accr["system_extremal"] is False


def test_classify_bad_trials(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "classify", "--mode", "numeric", "--trials", trials)
        assert code == 2 and out == ""
        assert "--trials must be >= 1" in err


@pytest.mark.parametrize("beta", ["0", "2", "1+i"])
@pytest.mark.parametrize("mu", [[], ["--mu", "0"]], ids=["mu-inf", "mu-zero"])
def test_classify_bad_beta(capsys, beta, mu):
    # rejected before any solve, including when the Stieltjes check would fail
    code, out, err = run(capsys, "classify", "--mode", "numeric", *mu,
                         "--beta", beta, "--trials", "2")
    assert code == 2 and out == ""
    assert "beta" in err or "real number" in err


def test_classify_rejects_bad_h(capsys):
    code, _, err = run(capsys, "classify", "--mu", "1", "--h", "2")
    assert code == 2 and "h" in err


@pytest.mark.parametrize("argv", [
    ("m-eval", "--z", "i", "--seed", "1"),
    ("classify", "--system", "mu=1,h=i"),
    ("verify", "--suite", "moebius", "--potential", "free"),
    ("verify", "--suite", "moebius", "--ell", "2"),
    ("verify", "--suite", "moebius", "--mode", "numeric"),
    ("verify", "--suite", "moebius", "--grid", "default"),
])
def test_unread_flags_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_moebius_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "moebius", "--seed", "42")
    assert code == 0
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["moebius-roundtrip-max-rel-err", "transfer-vs-impedance-max-err"]


def test_verify_duality_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "duality", "--seed", "11",
                            "--trials", "25")
    assert code == 0
    assert doc["trials"] == 25
    assert all(c["pass"] for c in doc["checks"])


def test_verify_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "moebius", "--seed", "42")
    _, second, _ = run(capsys, "verify", "--suite", "moebius", "--seed", "42")
    assert first == second
    assert first.endswith("\n")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "suite" in err


def test_verify_bad_trials(capsys):
    code, _, err = run(capsys, "verify", "--suite", "moebius", "--trials", "0")
    assert code == 2


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "moebius", "--seed", "42",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,pass,value,expected,tol"
    assert len(lines) == 3
    assert all(line.split(",")[1] == "true" for line in lines[1:])


@pytest.mark.slow
def test_verify_forms_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "forms", "--seed", "42")
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "form-ratio-never-exceeds-one" in names
    assert "sharpness-peak-at-zero-perturbation" in names


@pytest.mark.slow
def test_verify_example_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "example")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["checks"]) >= 20


# ---------------------------------------------------------------------------
# settings and output redirection
# ---------------------------------------------------------------------------

def test_tol_reaches_the_solver(capsys):
    def bound(*extra):
        code, doc, _ = run_json(capsys, "m-eval", "--mode", "numeric", "--z", "i", *extra)
        assert code == 0
        return doc["rows"][0][4]

    default = bound()
    assert bound("--tol", "1e-4") > default
    assert bound("--tol", "1e-8") == default


@pytest.fixture
def no_solve(monkeypatch):
    """Make any m-function solve or verification suite fail the test."""
    def reached(*_args, **_kwargs):
        raise AssertionError("a bad setting reached the solver")

    monkeypatch.setattr(cli, "m_infinity_batch", reached)
    monkeypatch.setattr(cli, "SUITES", dict.fromkeys(cli.SUITES, reached))


@pytest.mark.parametrize("tol", ["0", "1", "2", "inf", "nan"])
@pytest.mark.parametrize("command", [
    ("m-eval", "--mode", "numeric", "--z", "i"),
    ("classify", "--mode", "numeric", "--trials", "2"),
    ("verify",),
], ids=["m-eval", "classify", "verify"])
def test_tol_outside_zero_one_is_a_usage_error(capsys, no_solve, command, tol):
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2 and out == ""
    assert "tol must lie in (0, 1)" in err


@pytest.mark.parametrize("command", [("classify", "--trials", "2"), ("verify",)],
                         ids=["classify", "verify"])
def test_negative_seed_is_a_usage_error(capsys, no_solve, command):
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed must be >= 0" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "m-eval", "--z", "-1", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"][0][2] == pytest.approx(1.5)


def test_error_record_respects_out_flag(capsys, tmp_path):
    target = tmp_path / "error.json"
    code, out, _ = run(capsys, "m-eval", "--z", "1", "--out", str(target))
    assert code == 3
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["error"]["type"] == "DomainError"
