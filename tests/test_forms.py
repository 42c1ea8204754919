from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from weylsys import (
    DivergenceError,
    DomainError,
    TestFunction,
    evaluate_form,
    form_inner,
    generate_test_functions,
    sharpness_search,
)
from weylsys import forms


# ---------------------------------------------------------------------------
# construction and pointwise behavior
# ---------------------------------------------------------------------------

def test_power_profile():
    y = TestFunction.power()
    assert y.value(2.0) == pytest.approx(0.5)
    assert y.derivative(2.0) == pytest.approx(-0.25)
    assert y.boundary_value() == 1.0


def test_exp_poly_value_and_derivative():
    # y = (1 + u) e^{-2u} with u = x - 1: y' = (1 - 2(1 + u)) e^{-2u}
    y = TestFunction.exp_poly((1.0, 1.0), decay=2.0)
    u = 0.7
    x = 1.0 + u
    assert y.value(x) == pytest.approx((1 + u) * math.exp(-2 * u), rel=1e-12)
    assert y.derivative(x) == pytest.approx(
        (1 - 2 * (1 + u)) * math.exp(-2 * u), rel=1e-12)
    assert y.boundary_value() == 1.0


def test_derivatives_match_finite_differences():
    ys = [
        TestFunction.exp_poly((0.3, -1.2, 0.5), decay=0.8),
        TestFunction.mix(
            (TestFunction.power(), TestFunction.exp_poly((1.0,), 1.5)),
            (0.7, -0.4),
        ),
    ]
    eps = 1e-6
    for y in ys:
        for x in (1.0 + eps, 1.5, 3.0, 10.0):
            fd = (y.value(x + eps) - y.value(x - eps)) / (2 * eps)
            assert y.derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_mix_boundary_value_is_the_weighted_sum():
    y = TestFunction.mix(
        (TestFunction.power(), TestFunction.exp_poly((2.0,), 1.0)),
        (0.5, -0.25),
    )
    assert y.boundary_value() == pytest.approx(0.5 * 1.0 - 0.25 * 2.0)


def test_construction_validation():
    with pytest.raises(DomainError):
        TestFunction.exp_poly((), decay=1.0)
    with pytest.raises(DomainError):
        TestFunction.exp_poly((1.0,), decay=0.0)
    with pytest.raises(DomainError):
        TestFunction.exp_poly((math.inf,), decay=1.0)
    with pytest.raises(DomainError):
        TestFunction.sampled([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])  # < 4 points
    with pytest.raises(DomainError):
        TestFunction.sampled([2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TestFunction.sampled([1.0, 3.0, 2.0, 5.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TestFunction.mix((TestFunction.power(),), (1.0, 2.0))
    with pytest.raises(DomainError):
        TestFunction(kind="wavelet")
    with pytest.raises(DomainError):
        evaluate_form("not a test function")


def test_mix_rejects_sampled_parts():
    grid = np.linspace(1.0, 5.0, 9)
    sampled = TestFunction.sampled(grid, 1.0 / grid)
    with pytest.raises(DomainError):
        TestFunction.mix((sampled,), (1.0,))


# ---------------------------------------------------------------------------
# the two forms and their ratio
# ---------------------------------------------------------------------------

def test_equality_member_has_ratio_one():
    # for y = 1/x: integral of (1/x^4 + 2/x^4) over [1, inf) = 1 = y(1)^2
    report = evaluate_form(TestFunction.power())
    assert report.re_form == pytest.approx(1.0, rel=1e-10)
    assert report.im_form == 1.0
    assert report.ratio == pytest.approx(1.0, rel=1e-10)


def test_scaled_equality_member_keeps_ratio_one():
    y = TestFunction.mix((TestFunction.power(),), (-3.7,))
    report = evaluate_form(y)
    assert report.ratio == pytest.approx(1.0, rel=1e-10)
    assert report.im_form == pytest.approx(3.7**2)


def test_exponential_frozen_energy():
    report = evaluate_form(TestFunction.exp_poly((1.0,), decay=1.0))
    assert report.re_form == pytest.approx(1.0546855324471096, rel=1e-9)
    assert report.im_form == 1.0
    assert report.ratio < 1.0


def test_generated_functions_never_beat_the_bound():
    for y in generate_test_functions(40, seed=7):
        report = evaluate_form(y)
        assert report.ratio <= 1.0 + 1e-9
        assert report.re_form >= 0.0


def test_boundary_pairing_identity():
    # pairing against 1/x evaluates the boundary functional
    candidates = [
        TestFunction.exp_poly((1.3, 0.4), decay=0.9),
        TestFunction.power(),
        TestFunction.mix(
            (TestFunction.power(), TestFunction.exp_poly((0.5,), 2.0)),
            (1.1, -0.6),
        ),
    ]
    for y in candidates:
        assert form_inner(y, TestFunction.power()) == pytest.approx(
            y.boundary_value(), rel=1e-8, abs=1e-10)


def test_form_inner_is_symmetric():
    a = TestFunction.exp_poly((1.0, -0.5), decay=1.2)
    b = TestFunction.mix(
        (TestFunction.power(), TestFunction.exp_poly((0.7,), 0.6)), (0.4, 0.9))
    assert form_inner(a, b) == pytest.approx(form_inner(b, a), rel=1e-10)


def test_form_inner_rejects_sampled():
    grid = np.linspace(1.0, 5.0, 9)
    sampled = TestFunction.sampled(grid, 1.0 / grid)
    with pytest.raises(DomainError):
        form_inner(sampled, TestFunction.power())


# ---------------------------------------------------------------------------
# sampled profiles and tail control
# ---------------------------------------------------------------------------

def test_sampled_ratio_with_tail_stays_below_one():
    grid = np.linspace(1.0, 8.0, 141)
    report = evaluate_form(TestFunction.sampled(grid, 1.0 / grid))
    # truncating at x = 8 drops tail energy, so the raw ratio may exceed 1 ...
    assert report.ratio == pytest.approx(1.0, abs=5e-3)
    assert report.tail_error > 0.0
    # ... but the tail estimate restores the inequality
    assert report.im_form / (report.re_form + report.tail_error) <= 1.0 + 1e-9


def test_sampled_tail_estimate_covers_the_true_tail():
    grid = np.linspace(1.0, 8.0, 141)
    report = evaluate_form(TestFunction.sampled(grid, 1.0 / grid))
    true_tail = 1.0 / 8.0**3  # integral of 3/x^4 from 8 to infinity
    assert report.tail_error >= true_tail


def test_growing_sampled_tail_is_rejected():
    grid = np.linspace(1.0, 6.0, 11)
    with pytest.raises(DivergenceError):
        evaluate_form(TestFunction.sampled(grid, np.exp(0.3 * (grid - 1.0))))


def test_zero_tail_for_compactly_supported_samples():
    grid = np.linspace(1.0, 6.0, 21)
    vals = np.maximum(0.0, 1.0 - (grid - 1.0) / 4.0) ** 2
    vals[-1] = 0.0
    report = evaluate_form(TestFunction.sampled(grid, vals))
    assert report.tail_error == 0.0


# ---------------------------------------------------------------------------
# sharpness scans
# ---------------------------------------------------------------------------

def test_sharpness_peak_sits_at_the_equality_member():
    report = sharpness_search("power-plus-exp", n=21, span=0.1)
    assert report.best_param == 0.0
    assert report.best_ratio == pytest.approx(1.0, rel=1e-9)
    assert max(report.ratios) <= 1.0 + 1e-9


def test_exp_decay_family_stays_strictly_below_one():
    report = sharpness_search("exp-decay", n=15)
    assert all(r < 1.0 for r in report.ratios)
    assert report.best_ratio < 1.0


def test_custom_family_scan():
    members = [
        TestFunction.exp_poly((1.0,), 0.5),
        TestFunction.power(),
        TestFunction.exp_poly((1.0,), 2.0),
    ]
    report = sharpness_search("custom", members=members)
    assert report.best_index == 1
    assert report.best_member.kind == "power"


def test_sharpness_validation():
    with pytest.raises(DomainError):
        sharpness_search("power-plus-exp", n=2)
    with pytest.raises(DomainError):
        sharpness_search("custom")
    with pytest.raises(DomainError):
        sharpness_search("no-such-family")


# ---------------------------------------------------------------------------
# the adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

def _energy(y):
    return lambda x: y.derivative(x) ** 2 + 2.0 * y.value(x) ** 2 / x**2


def _scipy_quad(f, upper=np.inf, points=None):
    return scipy_quad(f, 1.0, upper, limit=400, epsabs=1e-12, epsrel=1e-10, points=points)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quad_matches_scipy_on_generated_functions(seed):
    for y in generate_test_functions(100, seed):
        value, _ = forms.quad(_energy(y), 1.0)
        assert value == pytest.approx(_scipy_quad(_energy(y)), rel=1e-12), y.label


@pytest.mark.parametrize("family", ["power-plus-exp", "exp-decay"])
def test_quad_matches_scipy_on_the_sharpness_families(family):
    report = sharpness_search(family, n=41)
    for param, ratio in zip(report.params, report.ratios):
        if family == "power-plus-exp":
            y = TestFunction.mix((TestFunction.power(), TestFunction.exp_poly((1.0,), 1.0)),
                                 (1.0, param))
        else:
            y = TestFunction.exp_poly((1.0,), param)
        expected = y.boundary_value() ** 2 / _scipy_quad(_energy(y))
        assert ratio == pytest.approx(expected, rel=1e-12), param


@pytest.mark.parametrize("n, profile", [
    (141, lambda x: 1.0 / x),
    (30, lambda x: np.exp(1.0 - x) * (1.0 + 0.3 * np.sin(3.0 * x))),
], ids=["power", "wavy-exp"])
def test_quad_matches_scipy_on_a_sampled_function(n, profile):
    # the spline's third derivative jumps at every knot, and the energy
    # integrand's second derivative with it; both quadratures start from
    # the knot intervals, so no rule spans a kink
    grid = np.linspace(1.0, 8.0, n)
    y = TestFunction.sampled(grid, profile(grid))
    value, _ = forms.quad(_energy(y), 1.0, grid[-1], grid)
    assert value == pytest.approx(_scipy_quad(_energy(y), grid[-1], grid[1:-1]), rel=1e-12)
    assert evaluate_form(y).re_form == value


def test_sampled_energy_sees_the_knot_kinks():
    # a 30-point Gauss-Legendre rule on each knot interval integrates the
    # piecewise-polynomial spline terms to round-off; one rule across many
    # knots lands 1.4e-9 away, 30 times its own error estimate
    grid = np.linspace(1.0, 8.0, 141)
    y = TestFunction.sampled(grid, 1.0 / grid)
    nodes, weights = np.polynomial.legendre.leggauss(30)
    half = 0.5 * np.diff(grid)[:, None]
    x = 0.5 * (grid[:-1] + grid[1:])[:, None] + half * nodes
    reference = float(np.sum(half * weights * _energy(y)(x)))
    assert reference == pytest.approx(0.9980540486798237, rel=1e-14)
    assert evaluate_form(y).re_form == pytest.approx(reference, rel=1e-12)


def test_quad_is_exact_for_a_polynomial_on_a_finite_interval():
    value, error = forms.quad(lambda x: 5.0 * x**4 - 3.0 * x**2, 1.0, 2.0)
    assert value == pytest.approx(24.0, rel=1e-15)
    assert error <= 1e-12


def test_quad_names_the_first_point_where_the_integrand_is_not_finite():
    calls = []

    def pole(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 2.0)

    # the centre node of [1, 3] is x = 2 itself
    with pytest.raises(DivergenceError, match=r"not finite at x = 2\.0$"):
        forms.quad(pole, 1.0, 3.0)
    assert calls == [21]          # one call, no subdivision

    calls.clear()

    def nan_tail(x):
        calls.append(x.size)
        return np.where(x > 10.0, np.nan, 1.0 / x**2)

    with pytest.raises(DivergenceError, match="not finite at x = ") as info:
        forms.quad(nan_tail, 1.0)
    assert float(str(info.value).rsplit("= ", 1)[1]) > 10.0
    assert calls == [21]


def test_quad_rejects_a_non_integrable_tail():
    with pytest.raises(DivergenceError, match="did not converge"):
        forms.quad(lambda x: 1.0 / x, 1.0)
