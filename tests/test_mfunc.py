from __future__ import annotations

import cmath
import math
import time

import pytest
from hypothesis import given, settings, strategies as st
import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.special import hankel1e

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
    half_integer_bessel_m,
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
from weylsys.mfunc import NAMED_GRIDS, m_infinity_batch

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
    # nu = 1/2 is q = 0, where m = sqrt(-z) on any [ell, inf)
    for ell in (0.0, 2.0):
        ev = MFunctionEvaluator(Potential.free(ell), mode="closed_form")
        assert m_infinity(ev, -1.0) == 1.0
        assert m_infinity(ev, -4.0) == 2.0
        assert m_infinity(ev, 1j) == pytest.approx(complex(2.0 ** -0.5, -(2.0 ** -0.5)),
                                                   rel=1e-15)
        assert half_integer_bessel_m(0.5, ell, 1j) == m_infinity(ev, 1j)


def test_closed_form_of_the_family_matches_its_polynomials():
    # m = n/ell + k p_{n-1}(t)/p_n(t), t = k ell, with the polynomial factor
    # p_n(t) = sum_j (n+j)!/(j!(n-j)!) (2t)^-j of K_{n+1/2}, summed here directly
    def p(n, t):
        return sum(math.factorial(n + j) / (math.factorial(j) * math.factorial(n - j))
                   * (2.0 * t) ** -j for j in range(n + 1))

    for n in range(1, 10):
        for ell in (0.25, 1.0, 4.0):
            for z in (1j, -1.0, -0.01, 5.0 + 0.1j, -3.0 - 2j):
                k = -1j * sqrt_upper(z)
                expected = n / ell + k * p(n - 1, k * ell) / p(n, k * ell)
                assert half_integer_bessel_m(n + 0.5, ell, z) == pytest.approx(expected, rel=1e-13)


half_integer_nu = st.integers(0, 9).map(lambda n: n + 0.5)


@given(half_integer_nu, st.floats(0.25, 4.0),
       st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.01, 30.0)))
def test_closed_form_conjugate_symmetry(nu, ell, z):
    assert cmath.isclose(
        half_integer_bessel_m(nu, ell, z.conjugate()),
        half_integer_bessel_m(nu, ell, z).conjugate(),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


@given(half_integer_nu, st.floats(0.25, 4.0),
       st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.01, 30.0)))
def test_minus_m_closed_form_is_herglotz_in_the_upper_half_plane(nu, ell, z):
    # with the m = -psi'/psi normalization it is -m that maps the upper
    # half-plane to itself; m itself has Im m(i) = -1/2 at nu = 3/2, ell = 1
    m = half_integer_bessel_m(nu, ell, z)
    assert m.imag <= 1e-12 * max(1.0, abs(m))
    assert (1.0 / m).imag >= -1e-12


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
    # for q = c, q' = 0 and the start u(X) = -sqrt(c - z) (Re > 0 root)
    # solves the Riccati equation exactly, so m = sqrt(c - z) up to the
    # step errors
    pot = Potential.expression(lambda x: 25.0, ell=0.0, label="plateau")
    info = m_infinity_info(MFunctionEvaluator(pot), z)
    assert info.value == pytest.approx(cmath.sqrt(25.0 - z), rel=1e-9)
    assert abs(info.value - cmath.sqrt(25.0 - z)) <= info.error_bound


@pytest.mark.parametrize("z", [1j, 5.0 + 0.1j, -0.5, 100.0 + 1j, -1e4])
@pytest.mark.parametrize("x", [3.0, 10.0, 40.0])
@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_wkb_start_is_second_order(nu, x, z):
    # u = psi'/psi at x is -m of the same potential on [x, inf); the start
    # -k - q'/(4 k^2) halves the error of -k at least, and the next WKB term
    # estimates what is left
    exact = -half_integer_bessel_m(nu, x, z)
    s, start, next_term = mfunc._wkb_start(Potential.bessel(nu, 1.0), x, z)
    assert abs(start - exact) < 0.5 * abs(-cmath.sqrt(s) - exact)
    assert abs(start - exact) <= 1.25 * next_term


def _counting_stepper(monkeypatch):
    """The RHS calls of each sweep, from the nfev of mfunc's DOP853 stepper."""
    nfev = []
    stepper = mfunc._dop853

    def counting_stepper(*args, **kwargs):
        sol = stepper(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(mfunc, "_dop853", counting_stepper)
    return nfev


@pytest.mark.parametrize("z", [5.0 + 0.1j, 100.0 + 1j, 1000.0 + 1j, 1e4 + 1j])
def test_complex_cost_follows_the_decay_length(monkeypatch, z):
    # u = psi'/psi does not oscillate, so DOP853's step is held only by
    # stability, about 6/|2u|; the Bessel q is analytic, so the first X
    # shrinks below ln(1/tol)/(2 Im sqrt z) to what the WKB start needs, and
    # the calls no longer grow with the contraction distance (1,842 at 1e4+i)
    nfev = _counting_stepper(monkeypatch)
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z)
    assert abs(info.value - exact) <= 1e-10 * abs(exact)
    assert abs(info.value - exact) <= info.error_bound
    assert info.truncation_X - BESSEL.ell <= 2.0 * math.log(1e8) / sqrt_upper(z).imag
    assert nfev and sum(nfev) < 5_000


def test_high_energy_points_stack_with_the_default_grid(monkeypatch):
    # each column's X is short at high energy, so the stiff columns do not
    # hold every column to their small step over the contraction distance
    zs = list(NAMED_GRIDS["default"]) + [1000.0 + 1j, 1e4 + 1j]
    nfev = _counting_stepper(monkeypatch)
    batch = m_infinity_batch(NUMERIC, zs)
    assert nfev and sum(nfev) < 5_000
    for z, info in zip(zs, batch):
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound


def test_only_an_analytic_potential_shrinks_its_first_x():
    # the gap test cannot see a feature of q beyond X, so an expression
    # keeps the contraction distance that the Bessel kind shrinks below
    z = 5.0 + 0.1j
    contraction = math.log(1e8) / (2.0 * sqrt_upper(z).imag)
    expression = Potential.expression(lambda x: 2.0 / x**2, ell=1.0, label="2/x^2")
    general = m_infinity_info(MFunctionEvaluator(expression), z)
    analytic = m_infinity_info(MFunctionEvaluator(Potential.bessel(1.5, 1.0)), z)
    assert general.truncation_X - 1.0 >= contraction
    assert analytic.truncation_X < general.truncation_X


def test_negative_axis_truncations_do_not_shrink():
    # the shrink applies off the real axis only, so the default grid's
    # negative reals and -1e4 (where a shrink would cut X - ell to 0.0058)
    # keep the truncations they had without it, bit for bit
    zs = list(NAMED_GRIDS["default"]) + [-1e4]
    batch = m_infinity_batch(NUMERIC, zs)
    assert [info.truncation_X for z, info in zip(zs, batch) if z.imag == 0.0] == [
        292.2565360084721, 93.10340371976183, 30.125653600847205, 19.420680743952367,
        6.825130720169441, 1.9210340371976184, 1.092103403719762]


def test_first_sweep_is_rarely_thrown_away(monkeypatch):
    # 40 points drawn like the benchmark's points-bessel: nu on [0.5, 3], ell
    # on [0.5, 2], 30% of z log-uniform on (-1e3, -1e-2), the rest with Re z
    # on [-5, 5] and Im z log-uniform on [10^-0.5, 10^0.7].  The first
    # truncation is sized so that its gap test passes; a second sweep is rare
    rng = np.random.default_rng(12)
    n, n_neg = 40, 12
    zs = ([complex(-(10.0 ** e)) for e in rng.uniform(-2.0, 3.0, n_neg)]
          + [complex(re, 10.0 ** e) for re, e in zip(rng.uniform(-5.0, 5.0, n - n_neg),
                                                     rng.uniform(-0.5, 0.7, n - n_neg))])
    nus, ells = rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 2.0, n)
    nfev = _counting_stepper(monkeypatch)
    second = 0
    for nu, ell, z in zip(nus, ells, zs):
        before = len(nfev)
        info = m_infinity_info(MFunctionEvaluator(Potential.bessel(nu, ell)), z)
        second += len(nfev) - before > 1
        assert abs(info.value - _bessel_m_oracle(nu, ell, z)) <= info.error_bound
    assert second <= 0.1 * n


@pytest.mark.parametrize("pot, z", [
    (BESSEL, 5.0 + 1e-9j),
    (Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4"), 5.0 + 0.1j),
])
def test_near_axis_and_limit_circle_fail_fast(monkeypatch, pot, z):
    # the WKB contraction exponent 2 int Re sqrt(q - z) cannot reach ln(1/tol)
    # within X_max, so no sweep starts
    nfev = _counting_stepper(monkeypatch)
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


def _bessel_m_oracle(nu, ell, z):
    """m(z) for Bessel(nu, ell): the closed form for half-integer nu, else scipy's Hankel.

    The decaying solution is sqrt(x) H1_nu(k x), k = sqrt z.  With
    2 H1_nu' = H1_{nu-1} - H1_{nu+1}, the exponentially scaled hankel1e
    keeps the ratio finite on the negative axis, where H1_nu underflows.
    """
    if MFunctionEvaluator.has_closed_form(Potential.bessel(nu, ell)):
        return half_integer_bessel_m(nu, ell, z)
    k = sqrt_upper(z)
    t = k * ell
    return -(1.0 / (2.0 * ell)
             + k * complex(hankel1e(nu - 1.0, t) - hankel1e(nu + 1.0, t))
             / complex(2.0 * hankel1e(nu, t)))


@pytest.mark.parametrize("z", [1j, -3.0 + 0.5j, 4.0 + 0.3j, -1.0 - 2j, 2.0 - 0.5j])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.0])
def test_complex_path_matches_the_hankel_oracle(nu, ell, z):
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="numeric")
    exact = _bessel_m_oracle(nu, ell, z)
    info = m_infinity_info(ev, z)
    assert info.value == pytest.approx(exact, rel=1e-8)
    assert abs(info.value - exact) <= info.error_bound


# ---------------------------------------------------------------------------
# stacked sweep (m_infinity_batch)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zs", [
    [-1e6, -1e-3, 1j, 5.0 + 0.1j],
    [-2.0 + 0.5j, 2.0 - 0.5j, -0.1, -1e8, 0.5j, -4.0 + 3.0j],
], ids=["mixed-scales", "both-half-planes"])
def test_batch_agrees_with_the_scalar_path(zs):
    batch = m_infinity_batch(NUMERIC, zs)
    assert len(batch) == len(zs)
    for z, info in zip(zs, batch):
        scalar = m_infinity_info(NUMERIC, z)
        assert abs(info.value - scalar.value) <= info.error_bound + scalar.error_bound
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound
        assert info.path == scalar.path
        assert type(info.value) is complex and type(info.error_bound) is float
        if complex(z).imag == 0.0:
            assert info.value.imag == 0.0


def test_batch_defers_each_error_to_its_point():
    # 5+1e-9i cannot contract within X_max and z = 1 lies on [0, inf); each
    # raises its own error when read, and only then
    zs = [1j, 5.0 + 1e-9j, -1.0, 1.0]
    batch = m_infinity_batch(NUMERIC, zs)
    with pytest.raises(ConvergenceError, match="too close to \\[0, inf\\)"):
        batch[1]
    with pytest.raises(DomainError, match="lies on \\[0, inf\\)"):
        batch.at(1.0)
    for z in (1j, -1.0):
        assert batch.at(z).value == pytest.approx(bessel_m_closed_form(z), rel=1e-9)
    with pytest.raises(ConvergenceError):
        list(batch)


def test_batch_on_a_limit_circle_potential_keeps_each_error():
    pot = Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4")
    batch = m_infinity_batch(MFunctionEvaluator(pot), [5.0 + 0.1j, -1.0])
    with pytest.raises(ConvergenceError, match="limit-circle behavior"):
        batch[0]
    with pytest.raises(DomainError, match="q\\(X\\) - z"):
        batch[1]


def test_failed_stacked_sweep_solves_each_column_alone():
    # psi has a zero at z = -100 in the deep well, so u has a pole and the
    # stacked sweep fails; each column is then solved on its own
    ev = MFunctionEvaluator(_exp_well(300.0))
    batch = m_infinity_batch(ev, [-400.0, -100.0, -1000.0])
    with pytest.raises(StiffnessError):
        batch[1]
    for z in (-400.0, -1000.0):
        assert batch.at(z) == m_infinity_info(ev, z)


def test_stacked_sweep_runs_at_the_scalar_tolerances(monkeypatch):
    # the error norm is each column's own, with the largest taken, so N
    # stacked columns sweep at _RTOL and _ATOL, as one column does alone;
    # each value then agrees with its own sweep within the two bounds
    calls = []
    stepper = mfunc._dop853

    def recording_stepper(rhs, t0, y0, stops, rtol, atol):
        calls.append((t0, np.shape(y0), rtol, atol))
        return stepper(rhs, t0, y0, stops, rtol, atol)

    monkeypatch.setattr(mfunc, "_dop853", recording_stepper)
    zs = [-1.0, -4.0 + 1j, 2.0 - 0.5j, -16.0]
    batch = m_infinity_batch(NUMERIC, zs)
    assert calls[0] == (1.0, (len(zs),), mfunc._RTOL, mfunc._ATOL)
    calls.clear()
    for z, stacked in zip(zs, batch):
        alone = m_infinity_info(NUMERIC, z)
        assert abs(stacked.value - alone.value) <= stacked.error_bound + alone.error_bound
    assert calls and {(shape, rtol, atol) for _, shape, rtol, atol in calls} == {
        ((), mfunc._RTOL, mfunc._ATOL)}


def test_batch_of_repeated_points_is_the_scalar_evaluation():
    batch = m_infinity_batch(NUMERIC, [1j, 1j, complex(0.0, 1.0)])
    assert list(batch) == [m_infinity_info(NUMERIC, 1j)] * 3


def test_closed_form_batch():
    batch = m_infinity_batch(CLOSED, [1j, -1.0])
    assert [info.value for info in batch] == [bessel_m_closed_form(1j), bessel_m_closed_form(-1.0)]
    assert {info.path for info in batch} == {"closed-form"}


_upper_or_lower = st.builds(
    lambda re, im, sign: complex(re, sign * im),
    st.floats(-5.0, 5.0), st.floats(0.1, 5.0), st.sampled_from((1.0, -1.0)))
_negative_axis = st.floats(-2.0, 3.0).map(lambda e: complex(-(10.0 ** e)))


@settings(max_examples=12, deadline=None)
@given(st.floats(0.5, 5.0), st.floats(0.5, 2.0),
       st.lists(st.one_of(_upper_or_lower, _negative_axis), min_size=1, max_size=4))
def test_error_bound_covers_the_hankel_oracle(nu, ell, zs):
    # the oracle is the decaying solution sqrt(x) H1_nu(sqrt(z) x), for the
    # scalar path and for the same points in one stacked sweep
    ev = MFunctionEvaluator(Potential.bessel(nu, ell))
    for z, batched in zip(zs, m_infinity_batch(ev, zs)):
        exact = _bessel_m_oracle(nu, ell, z)
        scalar = m_infinity_info(ev, z)
        assert abs(scalar.value - exact) <= scalar.error_bound
        assert abs(batched.value - exact) <= batched.error_bound


@settings(max_examples=40, deadline=None)
@given(half_integer_nu, st.floats(0.25, 4.0),
       st.lists(st.one_of(_upper_or_lower, _negative_axis), min_size=1, max_size=4))
def test_error_bound_covers_the_closed_form_of_the_family(nu, ell, zs):
    # for half-integer nu the closed_form mode is the oracle of the scalar
    # path and of the same points in one stacked sweep
    pot = Potential.bessel(nu, ell)
    ev = MFunctionEvaluator(pot)
    closed = m_infinity_batch(MFunctionEvaluator(pot, mode="closed_form"), zs)
    for z, batched, exact in zip(zs, m_infinity_batch(ev, zs), closed):
        scalar = m_infinity_info(ev, z)
        assert exact.path == "closed-form"
        assert abs(scalar.value - exact.value) <= scalar.error_bound
        assert abs(batched.value - exact.value) <= batched.error_bound


@pytest.mark.parametrize("z", [-1e-5, -1e-2, 0.01j, 20.0 + 0.05j])
def test_error_bound_holds_for_a_sampled_potential(z):
    # the cubic spline's third derivative jumps at every knot, which the
    # error estimate of a step across it does not see; the sweep stops on
    # each knot.  The reference restarts scipy's DOP853 at every knot from
    # x = 60, where the held tail makes u = -sqrt(q - z) exact.  A batch
    # sweeps the points one at a time.  X stays beyond the last knot: a
    # first X shrunk inside the table would miss the kink at 60, which the
    # gap test cannot see
    grid = np.linspace(1.0, 60.0, 400)
    pot = Potential.sampled(grid, 2.0 / grid**2)
    u = -cmath.sqrt(pot(60.0) - z)
    for a, b in zip(grid[::-1], grid[-2::-1]):
        u = solve_ivp(lambda x, y: pot(x) - z - y * y, (a, b), [u], method="DOP853",
                      rtol=1e-13, atol=1e-15).y[0, -1]
    ev = MFunctionEvaluator(pot)
    info = m_infinity_info(ev, z)
    assert abs(info.value - -u) <= info.error_bound
    assert info.truncation_X > grid[-1]
    assert list(m_infinity_batch(ev, [z, -1.0])) == [info, m_infinity_info(ev, -1.0)]


# ---------------------------------------------------------------------------
# DOP853 stepper
# ---------------------------------------------------------------------------

def _riccati_solution(c, t0, u0):
    """u(t) and exp(int_t0^t u) for u' = c - u^2, u(t0) = u0: u = r tanh(r (t - t0) + a)."""
    r = cmath.sqrt(c)
    a = cmath.atanh(u0 / r)
    return (lambda t: r * cmath.tanh(r * (t - t0) + a),
            lambda t: cmath.cosh(r * (t - t0) + a) / cmath.cosh(a))


def _stacked(g, d=1.0):
    """The stacked stepper's right-hand side (g, d) of ``y' = d (g(t) - y^2)``.

    g maps t, a float or the array of a step's stage abscissae, to the
    forcing of every column at each t, an array of shape ``t.shape + (N,)``.
    """
    def forcing(t):
        ts = np.asarray(t)
        return np.array([g(x) for x in ts.ravel().tolist()]).reshape(ts.shape + (-1,))
    return forcing, d


_STOPS = [2.5, 1.75, 0.4, 0.0]


@pytest.mark.parametrize("cs", [[4.0 + 1.0j], [4.0 + 1.0j, 0.5 - 2.0j, 9.0]],
                         ids=["scalar", "array"])
def test_stepper_matches_scipy_and_the_exact_solution(cs):
    # backward from t = 3, a start off the fixed point -sqrt(c) is drawn to it
    starts = [-cmath.sqrt(c) + 0.5 for c in cs]
    if len(cs) == 1:
        sol = mfunc._dop853(lambda t, u: cs[0] - u * u, 3.0, starts[0], _STOPS,
                            mfunc._RTOL, mfunc._ATOL)
        columns = [(sol.y, sol.integral)]
        assert all(type(u) is complex for u in sol.y)
    else:
        sol = mfunc._dop853(_stacked(lambda t: cs), 3.0, np.array(starts), _STOPS,
                            mfunc._RTOL, mfunc._ATOL)
        columns = list(zip(zip(*sol.y), zip(*sol.integral)))
    assert sol.nfev > 0
    for c, u0, (us, integrals) in zip(cs, starts, columns):
        ref = solve_ivp(lambda t, u: c - u * u, (3.0, 0.0), [u0], method="DOP853",
                        rtol=mfunc._RTOL, atol=mfunc._ATOL, t_eval=_STOPS)
        exact, exp_integral = _riccati_solution(c, 3.0, u0)
        for t, u, integral, u_scipy in zip(_STOPS, us, integrals, ref.y[0]):
            assert abs(u - exact(t)) <= 1e-8 * abs(exact(t))
            assert abs(u - u_scipy) <= 1e-8 * abs(exact(t))
            assert cmath.exp(integral) == pytest.approx(exp_integral(t), rel=1e-8)


@pytest.mark.parametrize("y0", [0.3 + 0.1j, np.array([0.3 + 0.1j, -1.0])],
                         ids=["scalar", "array"])
def test_stepper_lands_exactly_on_each_stop(y0):
    seen = []

    def rhs(t, y):
        seen.append(t)
        return math.cos(t) - 0.1 * y

    def forcing(t):
        seen.append(t)
        return [10.0 * math.cos(t)] * 2

    stops = [2.0, 1.0 / 3.0, math.pi / 10.0, 0.1, 0.0]
    if isinstance(y0, np.ndarray):
        # the stacked form y' = d (g(t) - y^2), with d = 0.1
        sol = mfunc._dop853(_stacked(forcing, 0.1), 5.0, y0, stops, mfunc._RTOL,
                            mfunc._ATOL)
    else:
        sol = mfunc._dop853(rhs, 5.0, y0, stops, mfunc._RTOL, mfunc._ATOL)
    assert len(sol.y) == len(sol.integral) == len(stops)
    assert set(stops) <= set(seen)


def test_stepper_raises_stiffness_error_at_the_deep_well_pole():
    # psi has a zero at z = -100 in the deep well, so u has a pole there
    well = _exp_well(300.0)
    zs = np.array([-100.0, -400.0])
    starts = -np.sqrt(well(30.0) - zs)
    with pytest.raises(StiffnessError, match="step size"):
        mfunc._dop853(lambda x, u: well(x) + 100.0 - u * u, 30.0, float(starts[0]), [0.0],
                      mfunc._RTOL, mfunc._ATOL)
    with np.errstate(all="ignore"), pytest.raises(StiffnessError, match="step size"):
        mfunc._dop853(_stacked(lambda x: (well(x) - zs).tolist()), 30.0, starts, [0.0],
                      mfunc._RTOL, mfunc._ATOL)


@pytest.mark.parametrize("y0, h", [(-2.0 + 0.3j, -0.1), (-1.5 + 0.0j, -0.37), (0.8, 0.25)])
def test_straight_line_step_matches_the_array_step(y0, h):
    # the scalar step is written out from the same tableau as the stacked one
    def g(t):
        return (4.0 + 1.0j) / (1.0 + t * t)

    def rhs(t, u):
        return g(t) - u * u

    f = rhs(2.0, y0)
    y, integral, err = mfunc._scalar_step(rhs, 2.0, y0, f, h, mfunc._RTOL, mfunc._ATOL)
    ys, integrals, errs = mfunc._array_step(_stacked(lambda t: [g(t)]), 2.0,
                                            np.array([y0]), np.array([f]), h,
                                            mfunc._RTOL, mfunc._ATOL)
    # a few ulp of the largest summand, b_j h y_j or b_j h k_j
    ulp = 4.0 * np.finfo(float).eps * abs(h) * float(np.abs(mfunc._B).max())
    assert abs(y - ys[0]) <= ulp * max(abs(rhs(2.0 + c * h, y0)) for c in (0.0, 1.0))
    assert abs(integral - integrals[0]) <= ulp * max(abs(y0), abs(y))
    assert err == pytest.approx(errs, rel=1e-6)


def _per_stage_step(q, ell, d, zs, t, y, f, h, rtol, atol):
    """One stacked DOP853 step as the tableau reads, with one q call per stage."""
    k = np.empty((12,) + f.shape, dtype=np.result_type(y, f))
    stage = np.empty_like(k)
    k[0] = f
    stage[0] = y
    for s in range(1, 12):
        stage[s] = y + h * (mfunc._A[s, :s] @ k[:s])
        u = stage[s]
        k[s] = d * (q(ell + (t + mfunc._C[s] * h) * d) - zs - u * u)
    y_new = y + h * (mfunc._B @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    n5 = np.abs(mfunc._E5 @ k) / scale
    n3 = np.abs(mfunc._E3 @ k) / scale
    n5 *= n5
    n3 *= n3
    norms = n5 / np.sqrt(np.maximum(n5 + 0.01 * n3, np.finfo(float).tiny))
    return y_new, h * (mfunc._B @ stage), abs(h) * float(norms.max())


@pytest.mark.parametrize("zq", [[2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, -0.01, 3.0 - 1j],
                                [-1.0, -4.0, -0.01, -250.0]], ids=["mixed", "real"])
@pytest.mark.parametrize("pot", [Potential.bessel(1.5), Potential.bessel(2.2, 0.7),
                                 Potential.free()], ids=["bessel1.5", "bessel2.2", "free"])
def test_stacked_step_is_the_per_stage_step_bit_for_bit(pot, zq):
    # one q call at all stage abscissae and pre-cast tableau rows change no
    # product and no sum: y_new, the integral and the error norm keep every bit
    ell, zs = pot.ell, np.array(zq)
    d = np.linspace(0.7, 12.0, len(zq))
    stacked = (lambda t: pot(ell + np.multiply.outer(t, d)) - zs, d)
    for t, h in [(1.0, -0.0005), (1.0, -0.004), (0.8, -0.02), (0.37, -0.06)]:
        y = -np.sqrt(pot(ell + t * d) - zs) * 1.01 + 0.02
        if y.dtype.kind == "c":
            y[np.imag(zs) == 0.0] = y[np.imag(zs) == 0.0].real
        f = d * (pot(ell + t * d) - zs - y * y)
        ours = mfunc._array_step(stacked, t, y, f, h, mfunc._RTOL, mfunc._ATOL)
        ref = _per_stage_step(pot, ell, d, zs, t, y, f, h, mfunc._RTOL, mfunc._ATOL)
        assert ours[0].dtype == ref[0].dtype == zs.dtype
        assert ours[0].tobytes() == ref[0].tobytes()
        assert ours[1].tobytes() == ref[1].tobytes()
        assert ours[2] == ref[2]


def test_a_stacked_step_calls_the_potential_once(monkeypatch):
    # per sweep: two calls for the first step (the slope at the start and
    # the first-step rule's trial point), one (11, N) call per step attempt
    # at its stage abscissae, and one per accepted step for the next slope;
    # nfev still counts 11 per attempt and 1 per accepted step
    shapes, nfevs, attempts, accepted = [], [], [], []
    call, step, stepper = Potential.__call__, mfunc._array_step, mfunc._dop853

    def counting_call(self, x):
        if isinstance(x, np.ndarray):
            shapes.append(x.shape)
        return call(self, x)

    def counting_step(*args):
        out = step(*args)
        attempts.append(1)
        accepted.append(out[2] < 1.0)
        return out

    def counting_stepper(*args):
        sol = stepper(*args)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(Potential, "__call__", counting_call)
    monkeypatch.setattr(mfunc, "_array_step", counting_step)
    monkeypatch.setattr(mfunc, "_dop853", counting_stepper)
    zs = [2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j]
    for z, info in zip(zs, m_infinity_batch(NUMERIC, zs)):
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound
    sweeps, n_attempts, n_accepted = len(nfevs), len(attempts), sum(accepted)
    assert sweeps >= 1 and n_attempts > n_accepted > 0
    stage_calls = [shape for shape in shapes if len(shape) == 2]
    assert len(stage_calls) == n_attempts
    assert all(shape[0] == 11 for shape in stage_calls)
    assert len(shapes) - len(stage_calls) == 2 * sweeps + n_accepted
    assert sum(nfevs) == 2 * sweeps + 11 * n_attempts + n_accepted


def test_stepper_reads_no_stage_after_the_step():
    # the stepper drops the 13th entry of scipy's DOP853 estimator weights
    assert DOP853.E3[-1] == DOP853.E5[-1] == 0.0


@pytest.mark.parametrize("ours, scipys", [
    (mfunc._C, DOP853.C),
    (mfunc._A, DOP853.A),
    (mfunc._B, DOP853.B),
    (mfunc._E5, DOP853.E5[:12]),
    (mfunc._E3, DOP853.E3[:12]),
], ids=["C", "A", "B", "E5", "E3"])
def test_inlined_tableau_equals_scipys_bit_for_bit(ours, scipys):
    # compare the bits, so a literal that rounds one ulp away (or a -0.0) fails
    assert ours.shape == scipys.shape
    assert ours.tobytes() == np.ascontiguousarray(scipys, dtype=float).tobytes()


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
    nfev = _counting_stepper(monkeypatch)
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z).real
    assert abs(info.value.real - exact) <= 1e-10 * abs(exact)
    assert info.truncation_X - BESSEL.ell <= 32.0 / math.sqrt(-z)
    assert nfev and sum(nfev) < 2000


@pytest.mark.parametrize("k", [-6, -3, 0, 3, 6, 8])
@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.0])
def test_riccati_path_matches_the_k_bessel_oracle(nu, ell, k):
    s = 10.0 ** k
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="numeric")
    assert m_infinity(ev, -s).real == pytest.approx(
        _bessel_m_oracle(nu, ell, -s).real, rel=1e-8)


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
    # or equal to z everywhere, a turning point at every X
    level = Potential.expression(lambda x: -1.0, ell=0.0, label="level")
    with pytest.raises(DomainError, match="q\\(X\\) - z = 0"):
        m_infinity(MFunctionEvaluator(level), -1.0)


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
    ev = MFunctionEvaluator(Potential.free(), mode="closed_form")
    assert m_infinity_limit_at_zero(ev) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("nu", [1.5, 2.5, 5.5, 9.5])
@pytest.mark.parametrize("ell", [0.25, 1.0, 4.0])
def test_limit_at_minus_zero_of_the_family(nu, ell):
    # m(-0) = (nu - 1/2)/ell, the m0 of the paper's threshold tan(alpha) m0 >= 1
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="closed_form")
    assert m_infinity_limit_at_zero(ev) == pytest.approx((nu - 0.5) / ell, rel=1e-8)


def test_limit_extrapolation_rejects_oscillation():
    with pytest.raises(ExtrapolationError):
        limit_at_minus_zero(lambda x: math.cos(math.pi * math.log10(-x)))


def test_limit_of_constant_is_exact():
    assert limit_at_minus_infinity(lambda x: 0.75) == 0.75


def test_divergence_to_minus_infinity():
    assert limit_at_minus_infinity(lambda x: x) == -math.inf


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_samples_beyond_the_divergence_guard_read_as_infinite(sign):
    # flat to the plateau test, so only the 1e12 guard makes this infinite
    assert limit_at_minus_zero(lambda x: sign * 2e12 + x) == sign * math.inf


def test_limit_rejects_non_real_samples():
    with pytest.raises(ExtrapolationError, match=r"samples must be real; got \(-0\.1\+1j\)"):
        limit_at_minus_zero(lambda x: complex(x, 1.0))


@pytest.mark.parametrize("evaluator", [NUMERIC, CLOSED], ids=["numeric", "closed-form"])
@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(math.inf, 0.0),
                               complex(1.0, math.inf)])
def test_m_infinity_rejects_a_non_finite_point(evaluator, z):
    with pytest.raises(DomainError, match="non-finite spectral point"):
        m_infinity(evaluator, z)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_safe_div_raises_near_pole():
    with pytest.raises(PoleError):
        safe_div(1.0, 1e-16)
    assert safe_div(1.0, 0.5) == 2.0


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, 1.0, 2.0, math.inf])
def test_tol_must_be_positive(tol):
    # the constructor first: at tol >= 1 an unchecked sweep would never end
    with pytest.raises(DomainError):
        MFunctionEvaluator(BESSEL, tol=tol)
    with pytest.raises(DomainError):
        m_alpha_direct(BESSEL, math.pi / 3, 1j, tol)


def test_closed_form_mode_requires_the_oracle_potential():
    rule = "nu - 1/2 a non-negative integer"
    for pot in (Potential.bessel(nu=2.2), Potential.bessel(nu=0.3),
                Potential.expression(lambda x: 25.0, ell=0.0, label="plateau")):
        with pytest.raises(DomainError, match=rule):
            MFunctionEvaluator(pot, mode="closed_form")
    with pytest.raises(DomainError, match=rule):
        half_integer_bessel_m(2.2, 1.0, 1j)


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
