from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from weylsys import (
    DivergenceError,
    DomainError,
    TestFunction,
    evaluate_form,
    evaluate_forms,
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
        TestFunction.mix((TestFunction.power(),), (math.nan,))
    with pytest.raises(DomainError):
        TestFunction.mix(("1/x",), (1.0,))
    with pytest.raises(DomainError):
        evaluate_form("not a test function")


def test_mix_is_the_flat_row_of_its_weighted_parts():
    bump = TestFunction.exp_poly((1.0, -2.0), 0.5)
    y = TestFunction.mix((TestFunction.power(), bump, TestFunction.mix((bump,), (3.0,))),
                         (2.0, -1.0, 0.5))
    assert y.reciprocal == 2.0
    assert y.bumps == ((-1.0, (1.0, -2.0), 0.5), (1.5, (1.0, -2.0), 0.5))


def test_an_overflowing_integrand_raises_only_its_divergence():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="not finite"):
            evaluate_form(TestFunction.exp_poly((1e200,), 1.0))


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
    """scipy's (integral, error estimate) over [1, inf) at quad's tolerances."""
    return scipy_quad(f, 1.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-10)


def _stacked(integrands):
    """The integrands as quad_stack calls them: row i of x is integrand owner[i, 0]'s."""
    def f(x, owner):
        return np.array([integrands[j](row) for j, row in zip(owner[:, 0].tolist(), x)])
    return f


def _assert_stack_agrees(ys, stack, alone, scipy):
    """A stacked integral equals quad alone and agrees with scipy within the error estimates."""
    for y, (value, error), (one, one_error), (ref, ref_error) in zip(ys, stack, alone, scipy):
        assert error <= max(1e-12, 1e-10 * abs(value))
        assert (value, error) == (one, one_error), y.label
        assert abs(value - ref) <= error + ref_error, y.label


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quad_matches_scipy_on_generated_functions(seed):
    ys = generate_test_functions(100, seed)
    alone = [forms.quad(_energy(y), 1.0) for y in ys]
    scipy = [_scipy_quad(_energy(y)) for y in ys]
    for y, (value, _), (ref, _) in zip(ys, alone, scipy):
        assert value == pytest.approx(ref, rel=1e-12), y.label
    # the same integrals as one stack, and through the table of evaluate_forms
    stack = forms.quad_stack(_stacked([_energy(y) for y in ys]), 1.0, len(ys))
    _assert_stack_agrees(ys, stack, alone, scipy)
    assert [r.re_form for r in evaluate_forms(ys)] == [value for value, _ in stack]


@pytest.mark.parametrize("family", ["power-plus-exp", "exp-decay"])
def test_quad_matches_scipy_on_the_sharpness_families(family):
    report = sharpness_search(family, n=41)
    ys = []
    for param, ratio in zip(report.params, report.ratios):
        if family == "power-plus-exp":
            y = TestFunction.mix((TestFunction.power(), TestFunction.exp_poly((1.0,), 1.0)),
                                 (1.0, param))
        else:
            y = TestFunction.exp_poly((1.0,), param)
        expected = y.boundary_value() ** 2 / _scipy_quad(_energy(y))[0]
        assert ratio == pytest.approx(expected, rel=1e-12), param
        ys.append(y)
    stack = forms.quad_stack(_stacked([_energy(y) for y in ys]), 1.0, len(ys))
    _assert_stack_agrees(ys, stack, [forms.quad(_energy(y), 1.0) for y in ys],
                         [_scipy_quad(_energy(y)) for y in ys])


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


# ---------------------------------------------------------------------------
# the stacked quadrature: many integrands in one adaptive loop
# ---------------------------------------------------------------------------

def test_a_hard_integrand_keeps_its_own_limit_among_easy_ones():
    ys = list(generate_test_functions(100, 3))
    energies = [_energy(y) for y in ys]
    energies.insert(37, lambda x: 1.0 / x)   # not integrable on [1, inf)
    rows = np.zeros(len(energies), dtype=int)
    stacked = _stacked(energies)

    def f(x, owner):
        rows[:] += np.bincount(owner[:, 0], minlength=len(energies))
        return stacked(x, owner)

    with pytest.raises(DivergenceError,
                       match="quadrature of integrand 37 did not converge: .* with 400 intervals"):
        forms.quad_stack(f, 1.0, len(energies))
    # 1 + 2 (400 - 1) intervals evaluated: its own 400, no more and no fewer
    assert rows[37] == 799


def test_a_stack_names_the_owner_and_the_point_where_it_is_not_finite():
    ys = list(generate_test_functions(10, 4))
    energies = [_energy(y) for y in ys]

    def pole(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 2.0)

    energies[5] = pole
    with pytest.raises(DivergenceError, match=r"^integrand 5 is not finite at x = 2\.0$"):
        forms.quad_stack(_stacked(energies), 1.0, len(energies))


def test_a_stack_of_many_converges_past_one_integrand_limit():
    # 600 integrands hold more than 400 intervals at once: the limit is each one's
    ys = generate_test_functions(600, 5)
    reports = evaluate_forms(ys)
    assert len(reports) == 600
    assert all(r.ratio <= 1.0 + 1e-9 for r in reports)
    assert forms.quad_stack(_stacked([]), 1.0, 0) == []
    assert evaluate_forms(()) == ()


def test_a_stack_of_500_is_the_stack_of_one_bit_for_bit():
    ys = generate_test_functions(500, 9)
    stack = evaluate_forms(ys)
    for y, report in zip(ys, stack):
        assert report == evaluate_forms((y,))[0], y.label


def test_evaluate_form_is_the_stack_of_one():
    ys = list(generate_test_functions(20, 6)) + [TestFunction.power()]
    for y in ys:
        assert evaluate_form(y) == evaluate_forms([y])[0]
    with pytest.raises(DomainError):
        evaluate_forms([TestFunction.power(), "1/x"])


def _polyval_value_and_slope(y, x):
    """y and y' at x bump by bump with numpy's polyval and polyder: the reference."""
    from numpy.polynomial import polynomial as P

    value, slope = y.reciprocal * (1.0 / x), y.reciprocal * (-1.0 / x**2)
    u = x - 1.0
    for weight, coefficients, decay in y.bumps:
        p = P.polyval(u, coefficients)
        dp = P.polyval(u, P.polyder(coefficients)) if len(coefficients) > 1 else 0.0
        value = value + weight * (p * np.exp(-decay * u))
        slope = slope + weight * ((dp - decay * p) * np.exp(-decay * u))
    return value, slope


def test_the_stacked_table_is_polyval_bit_for_bit():
    ys = (list(generate_test_functions(200, 8)) + [TestFunction.power()]
          + list(TestFunction.mix((TestFunction.power(), TestFunction.exp_poly((1.0,), 1.0)),
                                  (1.0, eps)) for eps in np.linspace(-0.1, 0.1, 41))
          + list(TestFunction.exp_poly((1.0,), c) for c in np.logspace(-1.0, 1.0, 21))
          + [_nested_mix()])
    table = forms._Table(ys)
    rng = np.random.default_rng(8)
    owner = rng.integers(0, len(ys), 500)
    x = 1.0 + rng.exponential(3.0, (owner.size, 21))
    values, slopes = table(x, owner[:, None])
    for j, row, value, slope in zip(owner.tolist(), x, values, slopes):
        ref_value, ref_slope = _polyval_value_and_slope(ys[j], row)
        assert value.tobytes() == ref_value.tobytes()
        assert slope.tobytes() == ref_slope.tobytes()


def _nested_mix():
    """0.5 (2/x + (1 - u) e^{-u}) - 3 u^2 e^{-2u}, with u = x - 1."""
    inner = TestFunction.mix((TestFunction.power(), TestFunction.exp_poly((1.0, -1.0), 1.0)),
                             (2.0, 1.0))
    return TestFunction.mix((inner, TestFunction.exp_poly((0.0, 0.0, 1.0), 2.0)), (0.5, -3.0))


def test_the_table_holds_nested_mixes_with_several_bumps():
    y = _nested_mix()
    for x in (1.0, 1.7, 4.0):
        u = x - 1.0
        value = 1.0 / x + 0.5 * (1 - u) * math.exp(-u) - 3.0 * u * u * math.exp(-2 * u)
        slope = (-1.0 / x**2 + 0.5 * (u - 2.0) * math.exp(-u)
                 - 3.0 * (2.0 * u - 2.0 * u * u) * math.exp(-2 * u))
        assert y.value(x) == pytest.approx(value, rel=1e-14)
        assert y.derivative(x) == pytest.approx(slope, rel=1e-14, abs=1e-15)
    report = evaluate_form(y)
    assert report.re_form == pytest.approx(_scipy_quad(_energy(y))[0], rel=1e-12)
    assert report.im_form == pytest.approx(y.boundary_value() ** 2)
