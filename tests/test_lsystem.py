from __future__ import annotations

import cmath
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import weylsys.lsystem
from weylsys import (
    MU_INFINITY,
    ConstructionError,
    DomainError,
    PoleError,
    Potential,
    bessel_m_closed_form,
    duality_check,
    impedance,
    impedance_from_transfer,
    lsystem_to_dict,
    make_lsystem,
    transfer,
    transfer_from_impedance,
    xi_parameter,
)

BESSEL = Potential.bessel()
M = bessel_m_closed_form  # m_inf of BESSEL, which the functions below take


def sys_at(mu, h=1j):
    return make_lsystem(BESSEL, mu=mu, h=h)


# ---------------------------------------------------------------------------
# construction and the coupling involution
# ---------------------------------------------------------------------------

def test_xi_parameter_reference_points():
    # h = i: xi = (mu * 0 - 1) / (mu - 0) = -1/mu
    assert xi_parameter(0.0, 1j) == MU_INFINITY
    assert xi_parameter(1.0, 1j) == -1.0
    assert xi_parameter(MU_INFINITY, 1j) == 0.0


def test_xi_parameter_general_h():
    h = 2.0 + 3.0j
    mu = 5.0
    expected = (mu * h.real - abs(h) ** 2) / (mu - h.real)
    assert xi_parameter(mu, h) == pytest.approx(expected)
    assert xi_parameter(MU_INFINITY, h) == h.real
    assert xi_parameter(h.real, h) == MU_INFINITY


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-20.0, 20.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 4.0),
)
def test_xi_is_an_involution(mu, re_h, im_h):
    h = complex(re_h, im_h)
    if abs(mu - h.real) < 1e-3:
        return
    xi = xi_parameter(mu, h)
    back = xi_parameter(xi, h)
    assert back == pytest.approx(mu, rel=1e-9, abs=1e-9)


def test_involution_swaps_zero_and_infinity():
    assert xi_parameter(xi_parameter(0.0, 1j), 1j) == pytest.approx(0.0)


def test_construction_validates_h():
    with pytest.raises(ConstructionError):
        sys_at(1.0, h=1.0)  # real h: zero imaginary part
    with pytest.raises(ConstructionError):
        sys_at(1.0, h=1.0 - 2.0j)  # wrong half-plane
    with pytest.raises(ConstructionError):
        make_lsystem(BESSEL, mu=None, h=1j)
    with pytest.raises(ConstructionError):
        make_lsystem(BESSEL, mu=1.0, h=None)


def test_channel_gain():
    sys = sys_at(2.0, h=1j)
    assert sys.channel_gain == pytest.approx(1.0 / abs(2.0 - 1j))

    at_inf = sys_at(MU_INFINITY, h=1j)
    assert at_inf.mu_is_infinite
    # at mu = inf the gain is normalized to 1 for every h
    assert at_inf.channel_gain == 1.0
    assert sys_at(MU_INFINITY, h=1.0 + 4.0j).channel_gain == 1.0

    general = sys_at(2.0, h=1.0 + 4.0j)
    assert general.channel_gain == pytest.approx(2.0 / math.sqrt(17.0))


# ---------------------------------------------------------------------------
# impedance
# ---------------------------------------------------------------------------

def test_impedance_at_mu_zero_is_minus_m():
    # mu = 0, h = i: the denominator collapses to -|h|^2 = -1, so V = -m
    m = bessel_m_closed_form(1j)
    v = impedance(sys_at(0.0), M(1j), 1j)
    assert v == pytest.approx(-m, rel=1e-14)


def test_impedance_at_mu_infinity_is_one_over_m_plus_re_h():
    m = bessel_m_closed_form(-2.0 + 1j)
    v = impedance(sys_at(MU_INFINITY, h=0.5 + 1j), M(-2.0 + 1j), -2.0 + 1j)
    assert v == pytest.approx(1.0 / (m + 0.5), rel=1e-14)


def test_impedance_frozen_value_on_the_negative_axis():
    # mu = tan(pi/3), h = i, z = -1: V = (m + mu)/(mu m - 1) with m = 3/2
    v = impedance(sys_at(math.tan(math.pi / 3.0)), M(-1.0), -1.0)
    exact = (1.5 + math.sqrt(3.0)) / (1.5 * math.sqrt(3.0) - 1.0)
    assert v.real == pytest.approx(exact, rel=1e-12)
    assert v.real == pytest.approx(2.0224635, abs=5e-7)
    assert v.imag == pytest.approx(0.0, abs=1e-15)


def test_impedance_is_herglotz_in_the_upper_half_plane():
    for mu in (0.0, 1.0, -3.0, MU_INFINITY):
        for z in (1j, -1.0 + 0.5j, 2.0 + 2j):
            assert impedance(sys_at(mu), M(z), z).imag > 0.0


def test_impedance_pole_is_reported():
    # mu = 2/3, h = i at z = -1: (mu - Re h) m + mu Re h - |h|^2 = 1.5 mu - 1 = 0
    with pytest.raises(PoleError):
        impedance(sys_at(2.0 / 3.0), M(-1.0), -1.0)


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------

def test_transfer_frozen_value_at_mu_zero():
    w = transfer(sys_at(0.0), M(1j), 1j)
    assert w == pytest.approx(complex(1.0 - math.sqrt(2.0), math.sqrt(2.0)), abs=1e-12)
    assert w == pytest.approx(complex(-0.414214, 1.414214), abs=1e-6)


def test_transfer_at_mu_infinity_is_a_cayley_quotient():
    m = bessel_m_closed_form(1j)
    w = transfer(sys_at(MU_INFINITY), M(1j), 1j)
    assert w == pytest.approx((m - 1j) / (m + 1j), rel=1e-14)


def test_transfer_matches_moebius_of_impedance():
    for mu in (0.0, 1.0, math.tan(math.pi / 3.0), MU_INFINITY):
        for z in (1j, -2.0 + 0.5j, 1.0 + 1j):
            sys = sys_at(mu, h=0.3 + 1.7j)
            v = impedance(sys, M(z), z)
            w = transfer(sys, M(z), z)
            assert w == pytest.approx((1.0 - 1j * v) / (1.0 + 1j * v), rel=1e-12)


def test_moebius_pair_inverts():
    assert transfer_from_impedance(0.0) == 1.0
    assert impedance_from_transfer(1.0) == 0.0
    for v in (0.3 + 0.8j, -2.0 + 0.1j, 5.0 + 3j):
        w = transfer_from_impedance(v)
        assert impedance_from_transfer(w) == pytest.approx(v, rel=1e-12)


def test_moebius_pole_at_v_equals_i():
    with pytest.raises(PoleError):
        transfer_from_impedance(1j)
    with pytest.raises(PoleError):
        impedance_from_transfer(-1.0)


@settings(max_examples=80, deadline=None)
@given(st.builds(complex, st.floats(-10, 10), st.floats(0.01, 10)))
def test_moebius_roundtrip_on_the_upper_half_plane(v):
    # V in the upper half-plane maps to the exterior of the unit disk and back
    assume(abs(v - 1j) > 1e-6)
    w = transfer_from_impedance(v)
    assert abs(w) > 1.0
    assert cmath.isclose(impedance_from_transfer(w), v, rel_tol=1e-9, abs_tol=1e-9)


def test_unimodular_transfer_on_the_negative_axis():
    # V is real on (-inf, 0), so W lands on the unit circle
    for mu in (0.0, 2.0, MU_INFINITY):
        w = transfer(sys_at(mu), M(-1.0), -1.0)
        assert abs(w) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# duality between a system and its coupled partner
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu,h,z", [
    (1.0, 1j, 1j),
    (2.0, 1.0 + 1j, 2j),
    (-0.7, 0.25 + 2j, -1.5 + 0.5j),
])
def test_duality_relations(mu, h, z):
    report = duality_check(sys_at(mu, h=h), M(z), z)
    assert report.impedance_residual <= 1e-10
    assert report.transfer_residual <= 1e-10
    assert report.xi == pytest.approx(xi_parameter(mu, h), rel=1e-12)
    assert xi_parameter(report.xi, h) == pytest.approx(mu, rel=1e-12)


def test_duality_rejects_infinite_mu():
    with pytest.raises(DomainError):
        duality_check(sys_at(MU_INFINITY), M(1j), 1j)


def test_dual_of_dual_is_the_original():
    sys = sys_at(3.0, h=0.5 + 1j)
    dual = sys_at(sys.xi, h=0.5 + 1j)
    assert dual.xi == pytest.approx(3.0)
    v = impedance(sys, M(1j), 1j)
    v_dual = impedance(dual, M(1j), 1j)
    assert v == pytest.approx(-1.0 / v_dual, rel=1e-12)
    w = transfer(sys, M(1j), 1j)
    w_dual = transfer(dual, M(1j), 1j)
    assert w == pytest.approx(-w_dual, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_construction_checks_ell_consistency():
    # ell is the potential's own, so the written document cannot disagree with it
    for potential in (BESSEL, Potential.bessel(nu=2.5, ell=2.0), Potential.free()):
        doc = lsystem_to_dict(make_lsystem(potential, mu=1.0, h=1j))
        assert doc["ell"] == potential.ell == doc["potential"]["ell"]
    doc = lsystem_to_dict(sys_at(1.0))
    assert (doc["mu"], doc["xi"]) == (1.0, -1.0)


def test_json_roundtrip_infinite_mu():
    # mu = inf is written as the string "inf", so the document is plain JSON
    doc = lsystem_to_dict(sys_at(MU_INFINITY))
    assert (doc["mu"], doc["xi"]) == ("inf", 0.0)
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_a_free_system_block_written_before_free_became_bessel_loads():
    # the "system" block of `weylsys classify --potential free --mu inf --h i`;
    # the free potential is written as the Bessel potential with nu = 1/2
    doc = lsystem_to_dict(make_lsystem(Potential.free(), mu=MU_INFINITY, h=1j))
    assert doc == {"channel_gain": 1.0, "ell": 0.0, "h": {"im": 1.0, "re": 0.0}, "mu": "inf",
                   "potential": {"ell": 0.0, "kind": "bessel", "nu": 0.5}, "xi": 0.0}


def test_the_system_layer_holds_no_m_solver():
    # impedance, transfer and duality_check take the value m = m_inf(z), so
    # the module needs no evaluator of its own
    namespace = vars(weylsys.lsystem)
    assert "MFunctionEvaluator" not in namespace
    assert "m_infinity" not in namespace
