from __future__ import annotations

import math

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
    classify_s_beta12,
    herglotz_test,
    impedance,
    kernel_matrix,
    kernel_point_sets,
    kernel_psd_test,
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


def _count_kernel_matrices(monkeypatch) -> list[int]:
    calls = [0]
    original = weylsys.sectorial.kernel_matrix

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(weylsys.sectorial, "kernel_matrix", counted)
    return calls


def test_kernel_psd_at_the_class_angle(monkeypatch):
    calls = _count_kernel_matrices(monkeypatch)
    report = kernel_psd_test(one_over_m, math.pi / 4.0, trials=100)
    assert isinstance(report, Check) and report.name == "kernel-psd"
    assert report.passed
    assert calls[0] == 100
    assert report.witness["beta"] == math.pi / 4.0
    worst = [complex(*p) for p in report.witness["points"]]
    scale = max(1.0, float(np.abs(kernel_matrix(one_over_m, math.pi / 4.0, worst)).max()))
    assert report.value >= -report.tol * scale


def test_kernel_fails_well_below_the_class_angle():
    report = kernel_psd_test(one_over_m, math.pi / 100.0, trials=20)
    assert not report.passed
    assert report.value < 0.0
    assert bool(report) is False


def test_kernel_psd_with_explicit_points_is_deterministic(monkeypatch):
    calls = _count_kernel_matrices(monkeypatch)
    pts = (1j, 0.5 + 0.5j, -1.0 + 2j)
    a = kernel_psd_test(one_over_m, math.pi / 4.0, points=pts)
    b = kernel_psd_test(one_over_m, math.pi / 4.0, points=pts)
    assert a.value == b.value
    assert calls[0] == 2  # one point set per call
    assert a.witness["points"] == [[p.real, p.imag] for p in pts]


def test_kernel_psd_draws_the_kernel_point_sets(monkeypatch):
    seen = []
    original = weylsys.sectorial.kernel_matrix

    def recording(f, beta, points):
        seen.append(tuple(points))
        return original(f, beta, points)

    monkeypatch.setattr(weylsys.sectorial, "kernel_matrix", recording)
    kernel_psd_test(one_over_m, math.pi / 4.0, trials=7, seed=11)
    assert seen == kernel_point_sets(7, 11)
    assert all(1 <= len(s) <= 6 for s in seen)


@pytest.mark.parametrize("grids", [
    (None, None),
    ([1j, -2.0 + 0.5j], [-3.0, -0.5]),
], ids=["default-grids", "given-grids"])
def test_sampled_points_cover_every_point_the_checks_read(grids):
    complex_grid, negative_grid = grids
    read = []

    def f(z):
        read.append(complex(z))
        return one_over_m(z)

    herglotz_test(f, grid=complex_grid)
    stieltjes_test(f, complex_grid=complex_grid, negative_grid=negative_grid)
    classify_s_beta12(f)
    kernel_psd_test(f, math.pi / 4.0, trials=5, seed=3)
    points = sampled_points(complex_grid, negative_grid, trials=5, seed=3)
    assert set(read) == set(points)


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
    angles = classify_s_beta12(lambda z: impedance(system, z, closed))
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
