from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylsys.sectorial
from weylsys import (
    AccretivityReport,
    Check,
    DomainError,
    MFunctionEvaluator,
    Potential,
    WeylsysError,
    accretivity_and_sectoriality,
    bessel_m_closed_form,
    bessel_neg_m_alpha_closed_form,
    class_angles_from_alpha,
    class_angles_from_limits,
    classify_s_beta12,
    herglotz_test,
    impedance,
    impedance_class_limits,
    kernel_matrix,
    kernel_point_sets,
    kernel_psd_test,
    limit_at_minus_zero,
    m_infinity,
    make_lsystem,
    sampled_points,
    sector_angle_from_gap,
    sector_angle_from_product,
    stieltjes_test,
    verify_example_suite,
)

HALF_PI = math.pi / 2.0


def one_over_m(z):
    return 1.0 / bessel_m_closed_form(z)


def minus_m(z):
    return -bessel_m_closed_form(z)


# ---------------------------------------------------------------------------
# grid verdicts
# ---------------------------------------------------------------------------

def test_herglotz_verdicts():
    assert herglotz_test(one_over_m).passed
    assert herglotz_test(minus_m).passed
    bad = herglotz_test(bessel_m_closed_form)
    assert isinstance(bad, Check) and bad.name == "herglotz"
    assert not bad.passed
    assert bad.witness is not None and bad.witness["value"][1] < 0.0


def test_herglotz_fails_on_non_finite_values():
    # a NaN never compares below the running minimum, so it must be caught
    verdict = herglotz_test(lambda z: complex(math.nan, math.nan))
    assert verdict.passed is False
    assert verdict.value == "f is not finite on the grid"
    first = weylsys.sectorial._UPPER_GRID[0]
    assert verdict.witness["point"] == [first.real, first.imag]


def test_a_sampling_error_names_its_point():
    def fail(message):
        def f(z):
            raise WeylsysError(message)
        return f

    def carrying(z):
        def f(_):
            exc = WeylsysError(f"no value at z = {z}")
            exc.z = z
            raise exc
        return f

    with pytest.raises(WeylsysError, match=r"^no value \(while sampling at z = 2j\)$"):
        herglotz_test(fail("no value"), [2j])
    # an error that carries its point in z names it already, and is left alone
    with pytest.raises(WeylsysError, match=r"^no value at z = 3j$"):
        herglotz_test(carrying(3j), [2j])


def test_herglotz_grid_validation():
    with pytest.raises(DomainError):
        herglotz_test(one_over_m, grid=[])
    with pytest.raises(DomainError):
        herglotz_test(one_over_m, grid=[1j, -1j])


def test_one_over_m_is_stieltjes():
    verdict = stieltjes_test(one_over_m)
    assert isinstance(verdict, Check) and verdict.name == "stieltjes"
    assert verdict.passed
    assert "negative-axis checks passed" in verdict.value


def test_minus_m_is_not_stieltjes():
    verdict = stieltjes_test(minus_m)
    assert not verdict.passed
    assert verdict.witness is not None


def test_m_itself_fails_stieltjes_on_the_complex_grid():
    # m is positive on (-inf, 0) but z m(z) is not Herglotz
    verdict = stieltjes_test(bessel_m_closed_form)
    assert not verdict.passed
    assert "Im(z f(z))/Im z negative" in verdict.value


def test_stieltjes_detects_a_decreasing_axis_profile():
    # healthy off the axis, decreasing along (-inf, 0): only the
    # monotonicity check can catch it
    def f(z):
        z = complex(z)
        return one_over_m(z) if z.imag != 0.0 else complex(-z.real)

    verdict = stieltjes_test(f)
    assert not verdict.passed
    assert "nondecreasing" in verdict.value


def _profile(axis):
    """1/m off the real axis, ``axis(x)`` on it."""
    def f(z):
        z = complex(z)
        return one_over_m(z) if z.imag != 0.0 else complex(axis(z.real))
    return f


@pytest.mark.parametrize(
    "f, detail, point",
    [
        (lambda z: -1.0, "Im(z f(z))/Im z negative on the complex grid", [0.0, 1.0]),
        (lambda z: complex(math.nan, math.nan), "f is not finite on the complex grid",
         [0.0, 1.0]),
        (_profile(lambda x: 1j), "f is not real on (-inf, 0)", [-2.0, 0.0]),
        (_profile(lambda x: math.inf), "f is not finite on (-inf, 0)", [-2.0, 0.0]),
        (_profile(lambda x: complex(0.0, math.inf)), "f is not finite on (-inf, 0)", [-2.0, 0.0]),
        (_profile(lambda x: -1.0), "f takes negative values on (-inf, 0)", [-2.0, 0.0]),
        (_profile(lambda x: -x), "f is not nondecreasing on (-inf, 0)", [-1.0, 0.0]),
    ],
    ids=["complex-grid", "complex-grid-nan", "not-real", "not-finite", "not-finite-imag",
         "negative", "decreasing"],
)
def test_stieltjes_failure_branches(f, detail, point):
    verdict = stieltjes_test(f, complex_grid=[1j, 2.0 + 1j], negative_grid=[-1.0, -2.0])
    assert verdict.passed is False
    assert verdict.value == detail
    assert verdict.witness["point"] == point


def test_stieltjes_rejects_bad_grids():
    with pytest.raises(DomainError):
        stieltjes_test(one_over_m, complex_grid=[1.0])
    with pytest.raises(DomainError):
        stieltjes_test(one_over_m, negative_grid=[-1.0, 2.0])


# ---------------------------------------------------------------------------
# sector kernel
# ---------------------------------------------------------------------------

def test_kernel_single_point_frozen_value():
    kern = kernel_matrix(one_over_m, math.pi / 4.0, [1j])
    assert kern.shape == (1, 1)
    assert kern[0, 0].real == pytest.approx(3.0 / math.sqrt(2.0) - 2.0, rel=1e-12)
    assert kern[0, 0].real == pytest.approx(0.12132034355964239, rel=1e-12)
    assert kern[0, 0].imag == 0.0


def test_kernel_matrix_is_hermitian():
    pts = [0.5 + 1j, -2.0 + 0.3j, 1.0 + 2.5j, 3.0 + 0.7j]
    kern = kernel_matrix(one_over_m, 1.1, pts)
    assert np.allclose(kern, kern.conj().T, atol=0)


def test_kernel_validation():
    with pytest.raises(DomainError):
        kernel_matrix(one_over_m, 0.0, [1j])
    with pytest.raises(DomainError):
        kernel_matrix(one_over_m, 2.0, [1j])  # beta > pi/2
    with pytest.raises(DomainError):
        kernel_matrix(one_over_m, 1.0, [])
    with pytest.raises(DomainError):
        kernel_matrix(one_over_m, 1.0, [1.0 - 1j])


def test_kernel_psd_names_a_non_finite_point():
    # on a NaN matrix eigvalsh raises numpy's LinAlgError or returns a NaN
    # eigenvalue that passes the PSD comparison; the error must be a
    # WeylsysError, which the CLI turns into exit 3
    pts = (1j, 0.5 + 2j)

    def f(z):
        return complex(math.nan, 0.0) if z == pts[1] else one_over_m(z)

    with pytest.raises(WeylsysError, match=r"not finite at z = \(0\.5\+2j\)"):
        kernel_psd_test(f, math.pi / 4.0, points=pts)
    with pytest.raises(WeylsysError, match="not finite at z = "):
        kernel_psd_test(lambda z: complex(math.nan, 0.0), 0.5, trials=2)


def _recording(f):
    """f, and the list of the points it is called at, in call order."""
    seen = []

    def recorded(z):
        seen.append(complex(z))
        return f(z)

    return recorded, seen


def test_kernel_psd_at_the_class_angle():
    f, seen = _recording(one_over_m)
    report = kernel_psd_test(f, math.pi / 4.0, trials=100)
    assert isinstance(report, Check) and report.name == "kernel-psd"
    assert report.passed
    # every drawn set is evaluated once, in draw order
    assert seen == [z for pts in kernel_point_sets(100, weylsys.sectorial.DEFAULT_KERNEL_SEED)
                    for z in pts]
    assert report.witness["beta"] == math.pi / 4.0
    worst = [complex(*p) for p in report.witness["points"]]
    scale = max(1.0, float(np.abs(kernel_matrix(one_over_m, math.pi / 4.0, worst)).max()))
    assert report.value >= -report.tol * scale


def test_kernel_fails_well_below_the_class_angle():
    report = kernel_psd_test(one_over_m, math.pi / 100.0, trials=20)
    assert not report.passed
    assert report.value < 0.0
    assert bool(report) is False


def test_kernel_psd_with_explicit_points_is_deterministic():
    f, seen = _recording(one_over_m)
    pts = (1j, 0.5 + 0.5j, -1.0 + 2j)
    a = kernel_psd_test(f, math.pi / 4.0, points=pts)
    b = kernel_psd_test(f, math.pi / 4.0, points=pts)
    assert a.value == b.value
    assert seen == list(pts) * 2  # one point set per call
    assert a.witness["points"] == [[p.real, p.imag] for p in pts]
    with pytest.raises(DomainError, match="open upper half-plane"):
        kernel_psd_test(f, math.pi / 4.0, points=(1j, 1.0 - 1j))
    with pytest.raises(DomainError, match="at least one point"):
        kernel_psd_test(f, math.pi / 4.0, points=())


def test_kernel_psd_draws_the_kernel_point_sets():
    f, seen = _recording(one_over_m)
    kernel_psd_test(f, math.pi / 4.0, trials=7, seed=11)
    sets = kernel_point_sets(7, 11)
    assert seen == [z for pts in sets for z in pts]
    assert all(1 <= len(s) <= 6 for s in sets)


def _kernel_reference(f, beta, pts):
    """The kernel of one set as kernel_matrix built it set by set, in its operand order."""
    fs = np.array([complex(f(z)) for z in pts], dtype=complex)
    for z, val in zip(pts, fs):
        if not np.isfinite(val):
            raise DomainError(f"kernel function value {complex(val)} is not finite at z = {z}")
    zs = np.array(pts, dtype=complex)
    cot = 0.0 if beta == math.pi / 2.0 else 1.0 / math.tan(beta)
    zf = zs * fs
    num = zf[:, None] - np.conj(zf)[None, :]
    den = zs[:, None] - np.conj(zs)[None, :]
    kern = num / den - cot * np.conj(fs)[None, :] * fs[:, None]
    return (kern + kern.conj().T) / 2.0


def _kernel_psd_reference(f, beta, trials, seed):
    """kernel_psd_test's (passed, value, witness) as a loop of one kernel and eigvalsh a set."""
    sets = kernel_point_sets(trials, seed)
    psd, worst_margin, worst_eig, worst_pts = True, math.inf, math.inf, sets[0]
    for pts in sets:
        kern = kernel_matrix(f, beta, pts)
        assert kern.tobytes() == _kernel_reference(f, beta, pts).tobytes()
        scale = max(1.0, float(np.abs(kern).max()))
        min_eig = float(np.linalg.eigvalsh(kern).min())
        if min_eig / scale < worst_margin:
            worst_margin, worst_eig, worst_pts = min_eig / scale, min_eig, pts
        if min_eig < -1e-8 * scale:
            psd = False
    return psd, worst_eig, {"beta": beta, "points": [[p.real, p.imag] for p in worst_pts]}


def _sector_function(z):
    """A second kernel function: 1/m shifted and scaled off the class, of another size."""
    return 3.0 / bessel_m_closed_form(z) + 0.25j * z


def _outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001  compared, not handled
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 150),
       beta=st.floats(0.0, math.pi / 2.0, exclude_min=True), other=st.booleans())
def test_the_stacked_kernel_pass_is_the_loop_of_kernel_matrix(seed, trials, beta, other):
    # bit for bit: each set's kernel, scale and least eigenvalue are those of
    # kernel_matrix and eigvalsh on that set alone; where cot(beta) overflows,
    # both refuse beta with the same error
    f = _sector_function if other else one_over_m

    def stacked():
        report = kernel_psd_test(f, beta, trials=trials, seed=seed)
        return report.passed, repr(report.value), report.witness

    def loop():
        passed, value, witness = _kernel_psd_reference(f, beta, trials, seed)
        return passed, repr(value), witness

    assert _outcome(stacked) == _outcome(loop)


def test_the_stacked_kernel_pass_names_the_first_non_finite_value():
    sets = kernel_point_sets(30, 5)
    bad = {sets[4][0], sets[9][-1]}

    def f(z):
        return complex(math.inf, 0.0) if z in bad else one_over_m(z)

    with pytest.raises(DomainError) as caught:
        _kernel_psd_reference(f, 1.0, 30, 5)
    with pytest.raises(DomainError, match=re.escape(str(caught.value))):
        kernel_psd_test(f, 1.0, trials=30, seed=5)
    assert str(caught.value) == (f"kernel function value (inf+0j) is not finite "
                                 f"at z = {sets[4][0]}")


@pytest.mark.parametrize("grids", [
    (None, None),
    ([1j, -2.0 + 0.5j], [-3.0, -0.5]),
], ids=["default-grids", "given-grids"])
def test_sampled_points_cover_every_point_the_checks_read(grids):
    # what classify reads: the three tests and the limit at -0; its limit
    # at -inf is exact and reads no point
    complex_grid, negative_grid = grids
    read = []

    def f(z):
        read.append(complex(z))
        return one_over_m(z)

    herglotz_test(f, grid=complex_grid)
    stieltjes_test(f, complex_grid=complex_grid, negative_grid=negative_grid)
    limit_at_minus_zero(f)
    kernel_psd_test(f, math.pi / 4.0, trials=5, seed=3)
    points = sampled_points(complex_grid, negative_grid, trials=5, seed=3)
    assert set(read) == set(points)


def test_the_classify_stack_holds_no_point_below_the_negative_grid():
    # -10 ... -1e6 of the -inf ladder are on the negative grid; -1e7 and -1e8 left it
    points = set(sampled_points(trials=10, seed=1))
    assert len(points) == 145
    assert min(z.real for z in points) == -1e6


# ---------------------------------------------------------------------------
# class angles
# ---------------------------------------------------------------------------

def test_classify_one_over_m():
    beta1, beta2 = classify_s_beta12(lambda x: one_over_m(x))
    assert beta1 == pytest.approx(0.0, abs=1e-6)
    assert beta2 == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_classify_divergent_limit_gives_half_pi():
    # f(x) = 1/sqrt(-x) is Stieltjes with f(-0) = +inf and f(-inf) = 0
    beta1, beta2 = classify_s_beta12(lambda x: 1.0 / math.sqrt(-x))
    assert beta1 == pytest.approx(0.0, abs=1e-6)
    assert beta2 == HALF_PI


def test_classify_m_raises_on_disordered_limits():
    with pytest.raises(DomainError):
        classify_s_beta12(lambda x: bessel_m_closed_form(x))


@pytest.mark.parametrize("f, message", [
    (lambda x: 0.5 if x < -1.0 else math.nan, "limit at -0 is NaN"),
    (lambda x: x, "limit at -infinity diverges to -infinity"),
    # 2 at -infinity, -1 at -0
    (lambda x: (-1.0 - 2.0 * x) / (1.0 - x), r"limit at -0 is negative \(-1\.0"),
], ids=["nan", "minus-infinity", "negative"])
def test_classify_rejects_a_limit_no_stieltjes_function_has(f, message):
    with pytest.raises(DomainError, match=message):
        classify_s_beta12(f)


def test_class_angles_from_limits_are_the_arctangents():
    assert class_angles_from_limits(0.1, 1.0) == (math.atan(0.1), math.pi / 4.0)
    assert class_angles_from_limits(0.0, math.inf) == (0.0, HALF_PI)
    # a limit a hair below 0, or below the other, is clamped
    assert class_angles_from_limits(-1e-12, 0.0) == (0.0, 0.0)
    assert class_angles_from_limits(1.0 + 1e-12, 1.0).beta2 == math.atan(1.0 + 1e-12)


def test_class_angles_from_alpha_frozen_example():
    beta1, beta2 = class_angles_from_alpha(math.pi / 3.0, m0=1.0)
    assert beta1 == pytest.approx(math.pi / 6.0, rel=1e-14)
    assert beta2 == pytest.approx(5.0 * math.pi / 12.0, rel=1e-14)


def test_class_angles_match_the_limit_classification():
    alpha = math.pi / 3.0
    got = classify_s_beta12(lambda x: bessel_neg_m_alpha_closed_form(alpha, x))
    want = class_angles_from_alpha(alpha, m0=1.0)
    assert got.beta1 == pytest.approx(want.beta1, abs=1e-6)
    assert got.beta2 == pytest.approx(want.beta2, abs=1e-6)


def test_class_angles_domain_errors():
    with pytest.raises(DomainError):
        class_angles_from_alpha(0.0, m0=1.0)
    with pytest.raises(DomainError):
        class_angles_from_alpha(HALF_PI, m0=1.0)
    with pytest.raises(DomainError):
        class_angles_from_alpha(math.pi / 6.0, m0=1.0)  # tan(alpha) * m0 = 0.577 <= 1
    with pytest.raises(DomainError):
        class_angles_from_alpha(1.0, m0=0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(math.pi / 4.0 + 1e-3, HALF_PI - 1e-3))
def test_class_gap_is_quarter_pi_when_m0_is_one(alpha):
    beta1, beta2 = class_angles_from_alpha(alpha, m0=1.0)
    assert beta2 - beta1 == pytest.approx(math.pi / 4.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, HALF_PI - 1e-3), st.floats(0.2, 8.0))
def test_class_angles_are_ordered(alpha, m0):
    t = math.tan(alpha)
    if t * m0 <= 1.0 + 1e-9:
        return
    beta1, beta2 = class_angles_from_alpha(alpha, m0=m0)
    assert 0.0 < beta1 < beta2 < HALF_PI


# ---------------------------------------------------------------------------
# sector angle formulas
# ---------------------------------------------------------------------------

def test_sector_angle_frozen_tangents():
    b1, b2 = math.pi / 6.0, 5.0 * math.pi / 12.0
    assert math.tan(sector_angle_from_product(b1, b2)) == pytest.approx(
        3.5131299192244385, rel=1e-9)
    assert math.tan(sector_angle_from_gap(b1, b2)) == pytest.approx(
        6.431211569767402, rel=1e-9)


def test_sector_angle_formulas_disagree_in_general():
    b1, b2 = math.pi / 6.0, 5.0 * math.pi / 12.0
    assert sector_angle_from_product(b1, b2) < sector_angle_from_gap(b1, b2)


def test_sector_angle_edge_cases():
    assert sector_angle_from_product(0.0, 1.0) == 0.0
    assert sector_angle_from_product(0.3, HALF_PI) == HALF_PI
    assert sector_angle_from_gap(0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert sector_angle_from_gap(0.8, 0.8) == pytest.approx(0.8, rel=1e-14)
    with pytest.raises(DomainError):
        sector_angle_from_product(0.0, HALF_PI)
    with pytest.raises(DomainError):
        sector_angle_from_gap(0.3, HALF_PI)
    with pytest.raises(DomainError):
        sector_angle_from_gap(1.0, 0.5)  # beta1 > beta2


@pytest.mark.parametrize("mu", [10.0, math.inf])
def test_product_formula_falls_below_the_exact_sector_angle(mu):
    # on the built-in example with h = i the exact tan theta is 1; the class
    # angles of the impedance give tan beta = 0.80 (mu = 10) and 0 (mu = inf,
    # beta1 = 0) by the product formula, so it bounds nothing from above.
    # The gap formula lands at or above the exact angle in both cases.
    pot = Potential.bessel()
    closed = MFunctionEvaluator(pot, mode="closed_form")
    system = make_lsystem(pot, mu=mu, h=1j)
    angles = classify_s_beta12(lambda z: impedance(system, m_infinity(closed, z), z))
    exact = accretivity_and_sectoriality(1j, mu, 1.0).tan_theta
    assert exact == pytest.approx(1.0, rel=1e-12)
    assert math.tan(sector_angle_from_product(*angles)) < exact - 0.15
    assert math.tan(sector_angle_from_gap(*angles)) >= exact - 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1.2), st.floats(0.0, 0.3))
def test_sector_angle_bounds(beta1, gap):
    beta2 = min(beta1 + gap, HALF_PI - 1e-6)
    product = sector_angle_from_product(beta1, beta2)
    widened = sector_angle_from_gap(beta1, beta2)
    assert beta1 <= product + 1e-12 < HALF_PI
    assert beta2 <= widened + 1e-12 < HALF_PI


# ---------------------------------------------------------------------------
# accretivity and sectoriality
# ---------------------------------------------------------------------------

def test_accretivity_reference_case():
    # h = i, m0 = 1: threshold mu* = Re h + (Im h)^2/(m0 + Re h) = 1
    rep = accretivity_and_sectoriality(1j, 2.0, 1.0)
    assert rep.operator_accretive and rep.operator_sectorial
    assert rep.tan_theta == pytest.approx(1.0)
    assert rep.theta == pytest.approx(math.pi / 4.0)
    assert rep.mu_threshold == pytest.approx(1.0)
    assert rep.system_accretive and rep.system_sectorial and not rep.system_extremal


def test_accretivity_extremal_at_the_threshold():
    rep = accretivity_and_sectoriality(1j, 1.0, 1.0)
    assert rep.system_accretive and rep.system_extremal and not rep.system_sectorial


def test_accretivity_below_the_threshold():
    rep = accretivity_and_sectoriality(1j, 0.5, 1.0)
    assert not rep.system_accretive and not rep.system_sectorial


def test_accretivity_shifted_h():
    rep = accretivity_and_sectoriality(1.0 + 1j, 10.0, 1.0)
    assert rep.tan_theta == pytest.approx(0.5)
    assert rep.mu_threshold == pytest.approx(1.5)


def test_infinite_mu_preserves_the_operator_classification():
    rep = accretivity_and_sectoriality(1j, math.inf, 1.0)
    assert rep.system_sectorial and rep.preserves_exact_angle
    assert rep.theta == pytest.approx(math.pi / 4.0)


def test_non_accretive_operator():
    rep = accretivity_and_sectoriality(-2.0 + 1j, 5.0, 1.0)
    assert not rep.operator_accretive and not rep.operator_sectorial
    assert rep.mu_threshold is None
    assert rep.system_accretive is False
    assert any("not accretive" in n for n in rep.notes)


def test_accretive_but_extremal_operator():
    # Re h = -m0: accretive, never sectorial, no finite mu works
    rep = accretivity_and_sectoriality(-1.0 + 1j, 100.0, 1.0)
    assert rep.operator_accretive and not rep.operator_sectorial
    assert rep.tan_theta == math.inf
    assert rep.mu_threshold == math.inf
    assert rep.system_accretive is False
    at_inf = accretivity_and_sectoriality(-1.0 + 1j, math.inf, 1.0)
    assert at_inf.system_accretive is True and at_inf.system_extremal is True
    assert at_inf.system_sectorial is False


def test_infinite_m0_leaves_system_fields_undecided():
    rep = accretivity_and_sectoriality(1j, 1.0, math.inf)
    assert rep.operator_accretive and rep.operator_sectorial
    assert rep.system_accretive is None and rep.system_sectorial is None
    assert rep.mu_threshold is None
    assert any("m0 = +inf" in n for n in rep.notes)


@pytest.mark.parametrize("h", [1j, 0.5 + 2j, -3.0 + 0.1j])
@pytest.mark.parametrize("mu", [math.inf, 1.0, -2.5, 0.0])
def test_infinite_m0_report_is_the_degenerate_one(h, mu):
    # the operator fields follow from the finite-m0 formulas at m0 = +inf
    assert accretivity_and_sectoriality(h, mu, math.inf) == AccretivityReport(
        h=h, mu=mu, m0=math.inf, operator_accretive=True, operator_sectorial=True,
        tan_theta=0.0, theta=0.0, mu_threshold=None, system_accretive=None,
        system_extremal=None, system_sectorial=None, preserves_exact_angle=None,
        notes=("m0 = +inf: only mu-independent operator statements are decidable",))


@pytest.mark.parametrize("mu, h, m0, want", [
    (math.inf, 1j, 1.0, (0.0, 1.0)),  # V = 1/m
    (math.inf, 0.5 + 2j, 1.5, (0.0, 1.0)),  # Im h / (Re h + m0)
    (10.0, 1j, 1.0, (0.1, 11.0 / 9.0)),  # sectorial: V(m0) = (m0 + mu) / (mu m0 - 1)
    (1.0, 1j, 1.0, (1.0, math.inf)),  # extremal: V's pole sits at m0
    (0.5, 1j, 1.0, (2.0, math.inf)),  # below the threshold: not sectorial
    (math.inf, -1.0 + 1j, 1.0, (0.0, math.inf)),  # an extremal operator
    (math.inf, 1j, math.inf, (0.0, 0.0)),  # m0 = +inf: V(-0) is V at m = inf
])
def test_impedance_class_limits_follow_the_sectorial_verdict(mu, h, m0, want):
    system = make_lsystem(Potential.bessel(), mu, h)
    assert impedance_class_limits(system, accretivity_and_sectoriality(h, mu, m0)) == want


def test_accretivity_validation():
    with pytest.raises(DomainError):
        accretivity_and_sectoriality(1.0, 1.0, 1.0)  # real h
    for h in (complex(math.inf, 1.0), complex(math.nan, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            accretivity_and_sectoriality(h, 1.0, 1.0)
    with pytest.raises(DomainError):
        accretivity_and_sectoriality(1j, 1.0, -math.inf)
    with pytest.raises(DomainError):
        accretivity_and_sectoriality(1j, 1.0, math.nan)


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.9, 4.0), st.floats(0.1, 4.0), st.floats(0.2, 5.0))
def test_threshold_splits_the_mu_axis(re_h, im_h, m0):
    h = complex(re_h, im_h)
    rep = accretivity_and_sectoriality(h, 0.0, m0)
    if not rep.operator_sectorial:
        return
    thr = rep.mu_threshold
    above = accretivity_and_sectoriality(h, thr + 1e-6, m0)
    below = accretivity_and_sectoriality(h, thr - 1e-6, m0)
    assert above.system_accretive is True
    assert below.system_accretive is False


# ---------------------------------------------------------------------------
# the built-in example suite
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_example_suite_is_all_green():
    report = verify_example_suite()
    assert report.all_pass
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))  # check names are unique
    assert len(names) >= 20
    payload = report.to_dict()
    assert payload["pass"] is True
    # beta2 is V(m0) of mu = inf, h = i: 1/m0, the exact tan theta to the bit
    value = {c.name: c.value for c in report.checks}
    assert value["class-tan-beta2-at-one"] == value["exact-angle-tan-theta"]
    assert value["angle-from-limit-vs-quarter-pi"] == math.atan(value["exact-angle-tan-theta"])
