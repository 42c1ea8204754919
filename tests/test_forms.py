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
        TestFunction.mix((TestFunction.power(),), (1.0, 2.0))
    with pytest.raises(DomainError):
        TestFunction(kind="wavelet")
    with pytest.raises(DomainError):
        evaluate_form("not a test function")


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


def test_form_inner_rejects_a_non_test_function():
    with pytest.raises(DomainError):
        form_inner(lambda x: 1.0 / x, TestFunction.power())
    with pytest.raises(DomainError):
        form_inner(TestFunction.power(), "1/x")


# ---------------------------------------------------------------------------
# sharpness scans
# ---------------------------------------------------------------------------

def test_sharpness_peak_sits_at_the_equality_member():
    report = sharpness_search("power-plus-exp", n=21)
    assert report.best_param == 0.0
    assert report.best_ratio == pytest.approx(1.0, rel=1e-9)
    assert max(report.ratios) <= 1.0 + 1e-9
    assert (report.params[0], report.params[-1]) == (-0.1, 0.1)


def test_exp_decay_family_stays_strictly_below_one():
    report = sharpness_search("exp-decay", n=15)
    assert all(r < 1.0 for r in report.ratios)
    assert report.best_ratio < 1.0


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


def _scipy_quad(f):
    return scipy_quad(f, 1.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-10)[0]


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


def test_quad_is_exact_when_the_transformed_integrand_is_a_polynomial():
    # under x = 1 + t/(1 - t), 3/x^4 dx becomes 3 (1 - t)^2 dt on [0, 1)
    value, error = forms.quad(lambda x: 3.0 / x**4, 1.0)
    assert value == pytest.approx(1.0, rel=1e-15)
    assert error <= 1e-12


def test_quad_names_the_first_point_where_the_integrand_is_not_finite():
    calls = []

    def pole(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 2.0)

    # the centre node t = 1/2 of [0, 1) is x = 1 + 1 = 2 itself
    with pytest.raises(DivergenceError, match=r"not finite at x = 2\.0$"):
        forms.quad(pole, 1.0)
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
