from __future__ import annotations

import json
import math

import pytest

from weylsys import MFunctionEvaluator, Potential, m_alpha_info
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
    for bad in ("", "1+*2", "foo", "__import__('os')", "x=1"):
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


def test_m_eval_usage_errors(capsys):
    # no points at all
    code, _, err = run(capsys, "m-eval")
    assert code == 2 and "grid" in err
    # unparseable z
    code, _, err = run(capsys, "m-eval", "--z", "1+*2")
    assert code == 2
    # alpha outside (0, pi]
    code, _, err = run(capsys, "m-eval", "--alpha", "0", "--z", "i")
    assert code == 2
    # unknown mode
    code, _, err = run(capsys, "m-eval", "--mode", "magic", "--z", "i")
    assert code == 2
    # closed form demanded for a potential without one
    code, _, err = run(capsys, "m-eval", "--potential", "bessel:2.2",
                       "--mode", "closed-form", "--z", "i")
    assert code == 2 and "nu - 1/2 a non-negative integer" in err


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
# config files and output redirection
# ---------------------------------------------------------------------------

def test_config_file_overrides_settings(capsys, tmp_path):
    cfg = tmp_path / "weylsys.cfg"
    cfg.write_text("# solver knobs\ntol = 1e-6\nseed = 7\n")
    code, doc, _ = run_json(capsys, "verify", "--suite", "moebius",
                            "--config", str(cfg))
    assert code == 0
    assert doc["seed"] == 7


def test_config_file_errors(capsys, tmp_path):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "verify", "--suite", "moebius", "--config", str(missing))
    assert code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    code, _, err = run(capsys, "verify", "--suite", "moebius", "--config", str(bad))
    assert code == 2
    for name, text, key in (("tol.cfg", "tol = banana\n", "tol"),
                            ("unknown.cfg", "bogus = 1\n", "bogus")):
        cfg = tmp_path / name
        cfg.write_text(text)
        code, _, err = run(capsys, "verify", "--suite", "moebius", "--config", str(cfg))
        assert code == 2 and key in err
    for name, text in (("seed.cfg", "seed = 1.5\n"), ("trials.cfg", "trials = abc\n")):
        cfg = tmp_path / name
        cfg.write_text(text)
        for command in (("verify", "--suite", "moebius"), ("classify",)):
            code, _, err = run(capsys, *command, "--config", str(cfg))
            assert code == 2 and "must be an integer" in err


def test_tol_reaches_the_solver(capsys, tmp_path):
    def bound(*extra):
        code, doc, _ = run_json(capsys, "m-eval", "--mode", "numeric", "--z", "i", *extra)
        assert code == 0
        return doc["rows"][0][4]

    loose = tmp_path / "loose.cfg"
    loose.write_text("tol = 1e-4\n")
    default = bound()
    assert bound("--tol", "1e-4") > default
    assert bound("--config", str(loose)) == bound("--tol", "1e-4")
    # the flag beats the config file
    assert bound("--config", str(loose), "--tol", "1e-8") == default


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
