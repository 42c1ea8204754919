from __future__ import annotations

import cmath
import math
import time

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.special import h1vp, hankel1, kve

from weylsys import (
    ConvergenceError,
    DomainError,
    ExtrapolationError,
    MFunctionEvaluator,
    PoleError,
    Potential,
    StiffnessError,
    bessel_m_closed_form,
    bessel_neg_m_alpha_closed_form,
    bessel_w_closed_form,
    free_m_closed_form,
    limit_at_minus_infinity,
    limit_at_minus_zero,
    m_alpha,
    m_alpha_direct,
    m_alpha_info,
    m_infinity,
    m_infinity_info,
    m_infinity_limit_at_minus_infinity,
    m_infinity_limit_at_zero,
    safe_div,
    sqrt_upper,
)
from weylsys import mfunc

BESSEL = Potential.bessel()
CLOSED = MFunctionEvaluator(BESSEL, mode="closed_form")
NUMERIC = MFunctionEvaluator(BESSEL, mode="numeric")

finite_z = st.builds(
    complex,
    st.floats(-50.0, 50.0, allow_nan=False),
    st.floats(-50.0, 50.0, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)


# ---------------------------------------------------------------------------
# branch of the square root
# ---------------------------------------------------------------------------

@given(finite_z)
def test_sqrt_upper_is_a_square_root_in_the_closed_upper_half_plane(z):
    w = sqrt_upper(z)
    assert w.imag >= 0.0
    assert cmath.isclose(w * w, z, rel_tol=1e-12, abs_tol=1e-12)


def test_sqrt_upper_on_the_negative_axis():
    # arg in [0, 2 pi) puts sqrt(-4) at +2i, not -2i
    assert sqrt_upper(-4.0) == pytest.approx(2j)
    assert sqrt_upper(complex(-4.0, -0.0)) == pytest.approx(2j)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_bessel_closed_form_frozen_values():
    assert bessel_m_closed_form(-1.0) == pytest.approx(1.5)
    assert bessel_m_closed_form(-4.0) == pytest.approx(7.0 / 3.0)
    assert bessel_m_closed_form(1j) == pytest.approx(
        complex(1.0 + (math.sqrt(2.0) - 1.0) / 2.0, -0.5), abs=1e-15
    )


def test_free_closed_form_values():
    assert free_m_closed_form(-1.0) == pytest.approx(1.0)
    assert free_m_closed_form(1j) == pytest.approx(complex(2.0 ** -0.5, -(2.0 ** -0.5)))


@given(st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.01, 30.0)))
def test_closed_form_conjugate_symmetry(z):
    assert cmath.isclose(
        bessel_m_closed_form(z.conjugate()),
        bessel_m_closed_form(z).conjugate(),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


@given(st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.01, 30.0)))
def test_minus_m_closed_form_is_herglotz_in_the_upper_half_plane(z):
    # with the m = -psi'/psi normalization it is -m that maps the upper
    # half-plane to itself; m itself has Im m(i) = -1/2
    assert bessel_m_closed_form(z).imag <= 1e-12
    assert (1.0 / bessel_m_closed_form(z)).imag >= -1e-12


def test_rotated_closed_form_matches_the_transform():
    for alpha in (0.4, 1.0, math.pi / 2, 2.0, 3.0, math.pi):
        for z in (1j, -2.0 + 1j, 0.5 - 0.25j):
            m = bessel_m_closed_form(z)
            sa, ca = math.sin(alpha), math.cos(alpha)
            if alpha == math.pi:
                sa, ca = 0.0, -1.0
            elif alpha == math.pi / 2:
                sa, ca = 1.0, 0.0
            expected = -(sa + m * ca) / (ca - m * sa)
            assert bessel_neg_m_alpha_closed_form(alpha, z) == pytest.approx(expected, rel=1e-12)


def test_transfer_closed_form_is_unimodular_on_the_negative_axis():
    for x in (-0.5, -1.0, -9.0):
        assert abs(bessel_w_closed_form(x)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# off the real axis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [1j, -1.0 + 1j, 2.0 + 0.5j, 1.0 - 1j, 5.0 + 0.1j])
def test_disk_path_matches_closed_form(z):
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z)
    assert info.path == "weyl-disk"
    assert abs(info.value - exact) <= max(info.error_bound, 1e-9 * abs(exact))
    assert abs(info.value - exact) / abs(exact) < 1e-6


def test_disk_error_bound_is_honest():
    info = m_infinity_info(NUMERIC, 1j)
    assert abs(info.value - bessel_m_closed_form(1j)) <= info.error_bound


def test_disk_radius_contracts_with_truncation():
    # a tighter tol needs a larger truncation X, where the bound (the gap of
    # the X/2 truncation plus the integration term) is smaller
    infos = [m_infinity_info(MFunctionEvaluator(BESSEL, tol=tol), 1j)
             for tol in (1e-4, 1e-6, 1e-10)]
    assert all(b.truncation_X > a.truncation_X for a, b in zip(infos, infos[1:]))
    assert all(b.error_bound < a.error_bound for a, b in zip(infos, infos[1:]))


@pytest.mark.parametrize("z", [1j, -2.0 - 1j, -1.0, 1e-3 - 0.5j])
def test_evaluation_fields_are_python_scalars(z):
    for ev in (NUMERIC, CLOSED):
        info = m_infinity_info(ev, z)
        assert type(info.value) is complex
        assert type(info.error_bound) is float
        rotated = m_alpha_info(ev, math.pi / 3, z)
        assert type(rotated.value) is complex
        assert type(rotated.error_bound) is float
    assert type(m_alpha_direct(BESSEL, math.pi / 3, z)) is complex


@pytest.mark.parametrize("z", [1j, -2.0 + 0.5j, -1.0])
def test_riccati_boundary_data_at_ell(z):
    # the sweep's u(ell) = psi'/psi(ell) enters only through the boundary
    # data at ell: alpha = pi is m_inf itself and alpha = pi/2 is -1/m_inf
    m = m_infinity(NUMERIC, z)
    assert m_alpha_direct(BESSEL, math.pi, z) == m
    assert m_alpha_direct(BESSEL, math.pi / 2, z) == pytest.approx(-1.0 / m, rel=1e-14)


@pytest.mark.parametrize("z", [1j, -30.0 + 2.0j, 5.0 - 0.1j])
def test_riccati_start_is_the_decaying_fixed_point(z):
    # for q = c the start u(X) = -sqrt(c - z) (Re > 0 root) solves the
    # Riccati equation exactly, so m = sqrt(c - z) up to the step errors
    pot = Potential.expression(lambda x: 25.0, ell=0.0, label="plateau")
    info = m_infinity_info(MFunctionEvaluator(pot), z)
    assert info.value == pytest.approx(cmath.sqrt(25.0 - z), rel=1e-9)
    assert abs(info.value - cmath.sqrt(25.0 - z)) <= info.error_bound


def _counting_solve_ivp(monkeypatch):
    nfev = []

    def counting_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(mfunc, "solve_ivp", counting_solve_ivp)
    return nfev


@pytest.mark.parametrize("z", [5.0 + 0.1j, 100.0 + 1j, 1000.0 + 1j])
def test_complex_cost_follows_the_decay_length(monkeypatch, z):
    # u = psi'/psi does not oscillate, so over X - ell = ln(1/tol)/(2 Im sqrt z)
    # DOP853's step is held only by stability, about 6/|2u|; a path that
    # followed the oscillation of psi would need far more calls at 1000+i
    nfev = _counting_solve_ivp(monkeypatch)
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z)
    assert abs(info.value - exact) <= 1e-10 * abs(exact)
    assert abs(info.value - exact) <= info.error_bound
    assert info.truncation_X - BESSEL.ell <= 2.0 * math.log(1e8) / sqrt_upper(z).imag
    assert sum(nfev) < 100_000


@pytest.mark.parametrize("pot, z", [
    (BESSEL, 5.0 + 1e-9j),
    (Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4"), 5.0 + 0.1j),
])
def test_near_axis_and_limit_circle_fail_fast(monkeypatch, pot, z):
    # the WKB contraction exponent 2 int Re sqrt(q - z) cannot reach ln(1/tol)
    # within X_max, so no sweep starts
    nfev = _counting_solve_ivp(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="limit-circle behavior, or z too close"):
        m_infinity(MFunctionEvaluator(pot), z)
    assert time.perf_counter() - start < 2.0
    assert nfev == []


def test_numeric_m_keeps_conjugate_symmetry():
    up = m_infinity(NUMERIC, -1.0 + 1j)
    down = m_infinity(NUMERIC, -1.0 - 1j)
    assert up.real == pytest.approx(down.real, rel=1e-9)
    assert up.imag == pytest.approx(-down.imag, rel=1e-9)


def test_limit_circle_potential_is_detected():
    # q = -x^4 is limit-circle at infinity: the backward flow never contracts
    pot = Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4")
    ev = MFunctionEvaluator(pot, mode="numeric")
    with pytest.raises(ConvergenceError):
        m_infinity(ev, 5.0 + 0.1j)


def _bessel_m_off_the_axis(nu, ell, z):
    """m(z) for Bessel(nu, ell) from the decaying solution sqrt(x) H1_nu(k x), k = sqrt z."""
    k = sqrt_upper(z)
    return -(1.0 / (2.0 * ell) + k * complex(h1vp(nu, k * ell)) / complex(hankel1(nu, k * ell)))


@pytest.mark.parametrize("z", [1j, -3.0 + 0.5j, 4.0 + 0.3j, -1.0 - 2j, 2.0 - 0.5j])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.0])
def test_complex_path_matches_the_hankel_oracle(nu, ell, z):
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="numeric")
    exact = _bessel_m_off_the_axis(nu, ell, z)
    info = m_infinity_info(ev, z)
    assert info.value == pytest.approx(exact, rel=1e-8)
    assert abs(info.value - exact) <= info.error_bound


# ---------------------------------------------------------------------------
# Riccati path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-1e-3, -0.1, -1.0, -4.0, -100.0])
def test_riccati_path_matches_closed_form(x):
    info = m_infinity_info(NUMERIC, x)
    assert info.path == "riccati"
    assert info.value.imag == 0.0
    assert info.value.real == pytest.approx(bessel_m_closed_form(x).real, rel=1e-8)


@pytest.mark.parametrize("z", [-1e4, -1e6, -1e8])
def test_riccati_cost_follows_the_decay_length(monkeypatch, z):
    # the truncation error shrinks like exp(-2 sqrt|z| (X - ell)), so X - ell
    # is a few decay lengths 1/sqrt|z| and a few hundred RHS calls suffice;
    # a start X - ell of order 1 costs about 1e5 calls at z = -1e8
    nfev = _counting_solve_ivp(monkeypatch)
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z).real
    assert abs(info.value.real - exact) <= 1e-10 * abs(exact)
    assert info.truncation_X - BESSEL.ell <= 32.0 / math.sqrt(-z)
    assert sum(nfev) < 2000


def _bessel_m_on_negative_axis(nu, ell, s):
    """m(-s) for Bessel(nu, ell) from the decaying solution sqrt(x) K_nu(sqrt(s) x).

    The exponentially scaled kve keeps the ratio finite where kv underflows.
    """
    t = math.sqrt(s) * ell
    return -1.0 / (2.0 * ell) + math.sqrt(s) * (kve(nu - 1.0, t) + kve(nu + 1.0, t)) / (
        2.0 * kve(nu, t))


@pytest.mark.parametrize("k", [-6, -3, 0, 3, 6, 8])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.0])
def test_riccati_path_matches_the_k_bessel_oracle(nu, ell, k):
    s = 10.0 ** k
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="numeric")
    assert m_infinity(ev, -s).real == pytest.approx(
        _bessel_m_on_negative_axis(nu, ell, s), rel=1e-8)


def _exp_well(depth):
    return Potential.expression(lambda x: -depth * math.exp(-x), ell=0.0, label="exp-well")


def test_riccati_well_and_tail_keep_their_error_class():
    # a deep well below z: the tail is fine, but psi has a zero, u a pole,
    # and the step size underflows; this is not the tail's fault
    with pytest.raises(StiffnessError):
        m_infinity(MFunctionEvaluator(_exp_well(300.0)), -100.0)
    # a shallow well that dips below z only near ell
    assert m_infinity(MFunctionEvaluator(_exp_well(2.0)), -1.5).real == pytest.approx(
        0.548335997, abs=1e-9)
    # the tail itself is below z
    tail = Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4")
    with pytest.raises(DomainError, match="q\\(X\\) - z"):
        m_infinity(MFunctionEvaluator(tail), -1.0)


def test_riccati_free_potential():
    ev = MFunctionEvaluator(Potential.free(), mode="numeric")
    assert m_infinity(ev, -1.0) == pytest.approx(1.0)
    assert m_infinity(ev, -4.0) == pytest.approx(2.0)


def test_riccati_constant_potential_oracle():
    # for q = c the decaying solution is exp(-sqrt(c - z) x), so m = sqrt(c - z)
    pot = Potential.expression(lambda x: 25.0, ell=0.0, label="plateau")
    ev = MFunctionEvaluator(pot, mode="numeric")
    assert m_infinity(ev, -30.0).real == pytest.approx(math.sqrt(55.0), rel=1e-8)


def test_positive_real_axis_is_rejected():
    for z in (0.0, 1.0, 2.5):
        with pytest.raises(DomainError):
            m_infinity(NUMERIC, z)


# ---------------------------------------------------------------------------
# rotated boundary conditions
# ---------------------------------------------------------------------------

def test_m_alpha_at_pi_is_m_infinity():
    assert m_alpha(CLOSED, math.pi, 1j) == m_infinity(CLOSED, 1j)


def test_m_alpha_info_at_pi_is_m_infinity_info():
    assert m_alpha_info(NUMERIC, math.pi, 1j) == m_infinity_info(NUMERIC, 1j)


def test_m_alpha_info_propagates_the_error_bound():
    alpha = math.pi / 3
    base = m_infinity_info(NUMERIC, 1j)
    info = m_alpha_info(NUMERIC, alpha, 1j)
    assert info.value == m_alpha(NUMERIC, alpha, 1j)
    den = math.cos(alpha) - base.value * math.sin(alpha)
    assert info.error_bound == pytest.approx(base.error_bound / abs(den) ** 2, rel=1e-12)
    assert (info.truncation_X, info.path) == (base.truncation_X, base.path)


def test_m_alpha_at_half_pi_is_minus_reciprocal():
    m = m_infinity(CLOSED, 1j)
    assert m_alpha(CLOSED, math.pi / 2, 1j) == pytest.approx(-1.0 / m, rel=1e-14)


def test_m_alpha_frozen_example():
    # alpha = pi/3, z = -1: (sin a + 1.5 cos a) / (cos a - 1.5 sin a)
    expected = (math.sqrt(3.0) / 2.0 + 0.75) / (0.5 - 0.75 * math.sqrt(3.0))
    got = m_alpha(CLOSED, math.pi / 3.0, -1.0)
    assert got.real == pytest.approx(expected, rel=1e-12)
    assert got.real == pytest.approx(-2.0224635, abs=5e-7)


def test_m_alpha_direct_agrees_with_the_transform():
    for alpha, z in ((math.pi / 3, 1j), (1.2, -2.0 + 1j), (2.5, 1j), (0.9, -1.0)):
        direct = m_alpha_direct(BESSEL, alpha, z)
        via_lft = m_alpha(CLOSED, alpha, z)
        assert abs(direct - via_lft) < 1e-6


def test_m_alpha_pole_is_reported():
    # cos a - m sin a = 0 at z = -1 when cot(alpha) = m(-1) = 1.5
    alpha = math.atan(1.0 / 1.5)
    with pytest.raises(PoleError):
        m_alpha(CLOSED, alpha, -1.0)


def test_m_alpha_rejects_out_of_range_alpha():
    with pytest.raises(DomainError):
        m_alpha(CLOSED, 0.0, 1j)
    with pytest.raises(DomainError):
        m_alpha(CLOSED, 3.5, 1j)


# ---------------------------------------------------------------------------
# real-axis limits
# ---------------------------------------------------------------------------

def test_limit_at_minus_zero_closed_form():
    val = limit_at_minus_zero(lambda x: bessel_m_closed_form(x))
    assert val == pytest.approx(1.0, abs=1e-8)


def test_limit_at_minus_zero_numeric():
    assert m_infinity_limit_at_zero(NUMERIC) == pytest.approx(1.0, abs=1e-4)


def test_limit_at_minus_infinity_diverges():
    assert m_infinity_limit_at_minus_infinity(CLOSED) == math.inf


def test_limit_of_free_m_at_minus_zero_vanishes():
    ev = MFunctionEvaluator(Potential.free(), mode="closed_form") \
        if MFunctionEvaluator.has_closed_form(Potential.free()) else None
    assert ev is None  # the free potential has no registered closed form
    val = limit_at_minus_zero(lambda x: free_m_closed_form(x))
    assert val == pytest.approx(0.0, abs=1e-8)


def test_limit_extrapolation_rejects_oscillation():
    with pytest.raises(ExtrapolationError):
        limit_at_minus_zero(lambda x: math.cos(math.pi * math.log10(-x)))


def test_limit_of_constant_is_exact():
    assert limit_at_minus_infinity(lambda x: 0.75) == 0.75


def test_divergence_to_minus_infinity():
    assert limit_at_minus_infinity(lambda x: x) == -math.inf


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_safe_div_raises_near_pole():
    with pytest.raises(PoleError):
        safe_div(1.0, 1e-16)
    assert safe_div(1.0, 0.5) == 2.0


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
def test_tol_must_be_positive(tol):
    with pytest.raises(DomainError):
        MFunctionEvaluator(BESSEL, tol=tol)
    with pytest.raises(DomainError):
        m_alpha_direct(BESSEL, math.pi / 3, 1j, tol)


def test_closed_form_mode_requires_the_oracle_potential():
    with pytest.raises(DomainError):
        MFunctionEvaluator(Potential.bessel(nu=2.5), mode="closed_form")


@settings(max_examples=30, deadline=None)
@given(st.floats(0.3, math.pi), st.builds(complex, st.floats(-5, 5), st.floats(0.2, 5)))
def test_minus_m_alpha_is_herglotz_for_every_alpha(alpha, z):
    # the rotation acts on m by a real Moebius map with negative determinant,
    # so -m_alpha maps the upper half-plane to itself for every alpha
    try:
        val = m_alpha(CLOSED, alpha, z)
    except PoleError:
        return
    assert val.imag < 1e-10
