from __future__ import annotations

import cmath
import functools
import math
import operator
import time

import pytest
from hypothesis import assume, given, settings, strategies as st, target
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
    m_infinity_limit_at_zero,
    safe_div,
    sqrt_upper,
)
from weylsys import mfunc
from weylsys.errors import IntegrationError
from weylsys.cli import parse_grid
from weylsys.mfunc import NAMED_GRIDS, m_infinity_batch, rotate_evaluation
from weylsys.sectorial import sampled_points

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


@pytest.mark.parametrize("nu", [1.5, 2.5, 10.5])
@pytest.mark.parametrize("z", [-5.0 + 10j, 1j, -1.0, 3.0 - 0.5j])
def test_closed_form_at_a_huge_ell_is_finite(nu, z):
    # k ell overflows at ell = 1.7e308, but (2j + 1)/ell/k does not; the tail is
    # then n/ell + k(1 + O(1/(k ell)))
    ell = 1.7e308
    k = -1j * sqrt_upper(z)
    m = half_integer_bessel_m(nu, ell, z)
    assert cmath.isfinite(m) and abs(m - (k + round(nu - 0.5) / ell)) <= 1e-12


def test_closed_form_at_ell_one_keeps_its_bits():
    # the recurrence's (2j + 1)/(k ell) is formed as (2j + 1)/ell/k: at ell = 1 both are
    # (2j + 1)/k
    for n in range(1, 8):
        for z in (1j, -1.0, -0.01, 5.0 + 0.1j, -3.0 - 2j, -1e-8, 1e4 + 1j):
            k, ratio = -1j * sqrt_upper(z), 1.0
            for j in range(n):
                ratio = 1.0 / (ratio + (2 * j + 1) / (k * 1.0))
            assert half_integer_bessel_m(n + 0.5, 1.0, z) == k * ratio + n / 1.0


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


@pytest.mark.parametrize("z", [-1e27, -1e28, -1e30, 1e30j])
def test_a_large_closed_form_value_is_not_a_pole(z):
    # -m_pi = -m_inf is about -sqrt|z|, past 1e13, over a denominator
    # sqrt(z) + i far from 0; a pole is a denominator small beside its terms
    expected = -bessel_m_closed_form(z)
    assert abs(bessel_neg_m_alpha_closed_form(math.pi, z) - expected) <= 1e-12 * abs(expected)
    assert bessel_w_closed_form(z) == pytest.approx(1.0, rel=1e-12)
    # m_inf(-1) = 3/2, so -m_alpha has a pole at -1 where cot(alpha) = 3/2
    with pytest.raises(PoleError):
        bessel_neg_m_alpha_closed_form(math.atan2(2.0, 3.0), -1.0)


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
    # the truncation at the certified point plus the integration term) is smaller
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
    # m_alpha_direct rotates the sweep's m_inf = -u(ell): alpha = pi is m_inf
    # itself and alpha = pi/2 is -1/m_inf
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
    # halves the error of -k at least, and its last kept term |u3| estimates
    # what is left
    exact = -half_integer_bessel_m(nu, x, z)
    s, start, _, next_term = mfunc._wkb_terms(Potential.bessel(nu, 1.0), x, z)
    assert abs(start - exact) < 0.5 * abs(-cmath.sqrt(s) - exact)
    assert abs(start - exact) <= 1.25 * next_term


def test_wkb_start_against_the_exact_riccati_solution():
    # the series terms from the exact derivatives of q = c/x^2; where they
    # fall, the third-order start is no farther from u than -k + u1, and
    # where |u3| is small, |u3| bounds the start's error
    zs = [1j, 5.0 + 0.1j, -5.0 + 0.1j, 100.0 + 1j, 1000.0 + 1j, 1e4 + 1j, 2.0 - 0.5j,
          -0.01, -1.0, -100.0, -1e4]
    falling = small = 0
    for nu in (0.5, 1.5, 2.5, 3.5, 4.5, 9.5):
        c = nu * nu - 0.25
        for ell in (0.25, 1.0, 3.0):
            pot = Potential.bessel(nu, ell)
            for x in np.geomspace(ell + 0.5, 300.0, 6).tolist():
                dq, ddq, dddq = -2.0 * c / x**3, 6.0 * c / x**4, -24.0 * c / x**5
                for z in zs:
                    u = -half_integer_bessel_m(nu, x, z)
                    _, start, _, last_term = mfunc._wkb_terms(pot, x, z)
                    k = cmath.sqrt(c / x**2 - z)
                    u1 = -dq / (4.0 * k**2)
                    u2 = 5.0 * dq**2 / (32.0 * k**5) - ddq / (8.0 * k**3)
                    du2 = (-dddq / (8.0 * k**3) + dq * ddq / (2.0 * k**5)
                           - 25.0 * dq**3 / (64.0 * k**7))
                    u3 = (du2 + 2.0 * u1 * u2) / (2.0 * k)
                    error = abs(start - u)
                    if abs(u3) < abs(u2) < abs(u1):
                        falling += 1
                        assert error <= abs(-k + u1 - u) + 1e-14 * abs(u), (nu, ell, x, z)
                    if last_term <= 1e-8 * abs(u):
                        small += 1
                        assert error <= last_term + 1e-14 * abs(u), (nu, ell, x, z)
    assert falling >= 900 and small >= 700


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
    # the calls no longer grow with the contraction distance (1,842 at 1e4+i).
    # Alone, each z rides its ray and is sized as in a stack, where 1e4+i
    # lands 2.2e-10 off: within tol = 1e-8, past the 1e-10 the others meet
    accuracy = 2.5e-10 if z == 1e4 + 1j else 1e-10
    nfev = _counting_stepper(monkeypatch)
    info = m_infinity_info(NUMERIC, z)
    exact = bessel_m_closed_form(z)
    assert abs(info.value - exact) <= accuracy * abs(exact)
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


def test_classify_batch_takes_one_sweep(monkeypatch):
    # the classify grid and both limit ladders: the third-order start sizes
    # every first truncation to pass its gap test, so no column is swept
    # twice (the first-order start took 4,771 RHS calls in two sweeps).  The
    # off-axis columns sweep their rays, where psi decays at the rate
    # |sqrt z| without oscillating, so the near-axis ones no longer set the
    # shared step (2,400 calls on the real axis, 1,190 on the rays).  Most
    # first X start at d/sqrt 2, where the leg out from the certified point
    # ell + d/2 contracts tenfold, and the sweep takes 1,080
    zs = (list(NAMED_GRIDS["classify-default"]) + list(mfunc.MINUS_ZERO_LADDER)
          + list(mfunc.MINUS_INFINITY_LADDER))
    nfev = _counting_stepper(monkeypatch)
    batch = m_infinity_batch(NUMERIC, zs)
    assert len(nfev) == 1 and nfev[0] <= 1_100
    for z, info in zip(zs, batch):
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound


def test_only_an_analytic_potential_shrinks_its_first_x():
    # the gap test cannot see a feature of q beyond X, so an expression
    # keeps the contraction distance that the Bessel kind shrinks below: its
    # certified point, ell + dist/2, lies half the contraction distance out,
    # at s = 1/sqrt 2 of [ell, X] since its reference leg contracts tenfold
    z = 5.0 + 0.1j
    contraction = math.log(1e8) / (2.0 * sqrt_upper(z).imag)
    expression = Potential.expression(lambda x: 2.0 / x**2, ell=1.0, label="2/x^2")
    general = m_infinity_info(MFunctionEvaluator(expression), z)
    analytic = m_infinity_info(MFunctionEvaluator(Potential.bessel(1.5, 1.0)), z)
    certified = mfunc._SHORT_MARK * (general.truncation_X - 1.0)
    assert certified == pytest.approx(contraction / 2.0, rel=1e-14)
    assert analytic.truncation_X < general.truncation_X


def test_negative_axis_truncations_do_not_shrink():
    # the shrink applies off the real axis only, so the default grid's
    # negative reals and -1e4 (where a shrink would cut X - ell to 0.0058)
    # keep their contraction distance d = ln(1/tol)/(2 sqrt|z|): the
    # certified point ell + d/2 lies at s = 1/sqrt 2 of [ell, X], bit for
    # bit, since the reference leg contracts tenfold there, and the
    # third-order WKB start passes the gap test at once
    zs = list(NAMED_GRIDS["default"]) + [-1e4]
    batch = m_infinity_batch(NUMERIC, zs)
    negative = [z for z in zs if z.imag == 0.0]
    assert len(negative) == 7
    for z in negative:
        contraction = math.log(1.0 / NUMERIC.tol) / (2.0 * sqrt_upper(z).imag)
        assert batch.at(z).truncation_X == 1.0 + 0.5 * contraction / mfunc._SHORT_MARK


def _leg_contracts(potential, z, direction, dist):
    """Whether the leg from ell + dist/2 to ell + dist/sqrt 2 contracts by 1/10 or more.

    Its WKB exponent ``2 int Re(e sqrt(q - z))`` is summed by the trapezoid
    rule over the two ends, and X must lie outside any well of q.
    """
    rates = [abs((direction * cmath.sqrt(potential(potential.ell + s * dist * direction) - z))
                 .real) for s in (0.5, 2.0 ** -0.5)]
    return rates[1] > 0.0 and (2.0 ** -0.5 - 0.5) * dist * sum(rates) >= math.log(10.0)


@pytest.mark.parametrize("zs, short", [
    ([-1.0], [True]), ([1j], [True]), ([5.0 + 0.1j], [True]), ([100.0 + 1j], [True]),
    ([1000.0 + 1j], [False]), ([1e4 + 1j], [False]),
    ([-0.01, 2.0 - 0.5j, 1000.0 + 1j, 1e4 + 1j], [True, True, False, False]),
], ids=["-1", "i", "5+0.1i", "100+i", "1000+i", "1e4+i", "stack"])
def test_a_first_x_is_short_where_its_reference_leg_contracts_tenfold(monkeypatch, zs, short):
    # the certified point is ell + dist/2, dist the first distance; the
    # first X - ell is dist/sqrt 2, the point at s = 1/sqrt 2, where the
    # leg out to X contracts the start's error tenfold, and dist elsewhere.
    # A stack that holds both kinds stops at s = 1/sqrt 2 and at s = 1/2
    tol = NUMERIC.tol
    directions = mfunc._directions(BESSEL, zs, tol)
    x_max = mfunc._X_MAX_FACTOR * max(BESSEL.ell, 1.0)
    dists = mfunc._first_distances(BESSEL, zs, tol, x_max, directions)
    stops = []
    stepper = mfunc._dop853

    def recording_stepper(rhs, t0, y0, stop_list, rtol, atol):
        stops.append(list(stop_list))
        return stepper(rhs, t0, y0, stop_list, rtol, atol)

    monkeypatch.setattr(mfunc, "_dop853", recording_stepper)
    batch = m_infinity_batch(NUMERIC, zs)
    assert len(stops) == 1      # every column settles in the first round
    for z, e, dist, expected, info in zip(zs, directions, dists, short, batch):
        assert _leg_contracts(BESSEL, z, e, dist) is expected
        first = dist * 2.0 ** -0.5 if expected else dist
        assert info.truncation_X - 1.0 == pytest.approx(first, rel=1e-14)
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound
    if len(zs) > 1:
        assert stops == [[mfunc._SHORT_MARK, 0.5, 0.0]]


def test_high_energy_first_x_keeps_its_length():
    # at 1000+i and 1e4+i the leg out from ell + dist/2 would not contract
    # tenfold, so X - ell stays dist, which keeps their accuracy: the 1e-10
    # and 2.5e-10 of test_complex_cost_follows_the_decay_length
    for z, first in ((1000.0 + 1j, 0.1456), (1e4 + 1j, 2.878e-3)):
        assert m_infinity_info(NUMERIC, z).truncation_X - 1.0 == pytest.approx(first, rel=1e-3)


def test_a_short_x_in_a_well_of_q_keeps_the_full_distance():
    # at z = -0.5 on q = 1 - 3 exp(-((x - 10.21)/0.3)^2) the leg out from
    # ell + d/2 reaches ln 10 on the rate at its inner end alone, but the
    # short X = ell + d/sqrt 2 = 10.21 lies in the well, q(X) - z = -1.5,
    # where no WKB start exists: X - ell stays d, outside the well, and the
    # sweep gives m = sqrt(q - z) = sqrt(1.5) of the tail
    well = Potential.expression(lambda x: 1.0 - 3.0 * math.exp(-((x - 10.21) / 0.3) ** 2),
                                1.0, label="well")
    info = m_infinity_info(MFunctionEvaluator(well), -0.5)
    contraction = math.log(1.0 / NUMERIC.tol) / (2.0 * math.sqrt(0.5))
    assert info.truncation_X == pytest.approx(1.0 + contraction, rel=1e-14)
    assert abs(info.value - math.sqrt(1.5)) <= info.error_bound


def test_a_stacked_leg_in_a_well_of_q_writes_no_warning():
    # at tol 0.5 both ends of the first legs of -1 and -2 on bessel(0.05,
    # 1e-3) lie in the well q - z < 0 near ell, where the stack's roots are
    # imaginary: numpy writes no RuntimeWarning (an error here), neither leg
    # contracts, and each column ends as it does alone
    ev = MFunctionEvaluator(Potential.bessel(0.05, 1e-3), tol=0.5)
    zs = [-1.0, -2.0]
    for z, info in zip(zs, m_infinity_batch(ev, zs)):
        alone = m_infinity_info(ev, z)
        assert info.truncation_X == alone.truncation_X
        assert abs(info.value - _bessel_m_oracle(0.05, 1e-3, z)) <= info.error_bound


def test_seeded_hankel_scan_keeps_every_bound():
    # lone z and stacks of four on Bessel potentials with nu in (0.05, 8) and
    # ell in (0.1, 4), |z| from 1e-3 to 1e4: both half-planes, near the
    # positive axis, and the negative axis, at tol from 1e-12 to 1e-8.  No
    # value strays past its error_bound from the Hankel oracle, whether its
    # first X was shortened or not
    rng = np.random.default_rng(20261041)
    shortened = 0
    for i in range(400):
        nu, ell = rng.uniform(0.05, 8.0), rng.uniform(0.1, 4.0)
        tol = 10.0 ** rng.uniform(-12.0, -8.0)
        zs = []
        for kind in rng.permutation(4):
            r = 10.0 ** rng.uniform(-3.0, 4.0)
            sign = rng.choice([-1.0, 1.0])
            if kind == 0:
                zs.append(complex(-r))
            elif kind == 1:
                zs.append(cmath.rect(r, sign * 10.0 ** rng.uniform(-6.0, -1.0)))
            else:
                zs.append(cmath.rect(r, sign * rng.uniform(0.1, math.pi - 1e-3)))
        ev = MFunctionEvaluator(Potential.bessel(nu, ell), tol=tol)
        infos = [m_infinity_info(ev, zs[0])] + (list(m_infinity_batch(ev, zs)) if i % 8 == 0
                                                else [])
        for z, info in zip(zs[:1] + zs, infos):
            assert abs(info.value - _bessel_m_oracle(nu, ell, z)) <= info.error_bound, (
                nu, ell, z, tol)
        directions = mfunc._directions(ev.potential, zs[:1], tol)
        x_max = mfunc._X_MAX_FACTOR * max(ell, 1.0)
        (dist,) = mfunc._first_distances(ev.potential, zs[:1], tol, x_max, directions)
        shortened += infos[0].truncation_X - ell < dist
    assert shortened >= 200


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


def _inverse_square():
    """The example's q = 2/x^2 on [1, inf) as an expression: its z sweep the real axis."""
    return Potential.expression(lambda x: 2.0 / (x * x), 1.0, label="2/x^2")


@pytest.mark.parametrize("pot, z", [
    (_inverse_square(), 5.0 + 1e-9j),
    (Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4"), 5.0 + 0.1j),
])
def test_near_axis_and_limit_circle_fail_fast(monkeypatch, pot, z):
    # the WKB contraction exponent 2 int Re sqrt(q - z) along the real axis
    # cannot reach ln(1/tol) within X_max, so no sweep starts; on the Bessel
    # potential with the same q, 5+1e-9i rides its ray instead
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


def test_a_ray_start_takes_the_root_that_decays_along_the_ray():
    # for nu < 1/2 (c < 0) Im q on the ray has the opposite sign to Im z, so
    # near the positive axis q - z crosses the principal root's branch cut,
    # and the principal sqrt(q - z) is the root that grows along the ray
    draws = [(0.27, 2.0, 1477.58 + 0.001j)]
    rng = np.random.default_rng(20261037)
    for _ in range(40):
        r = 10.0 ** rng.uniform(1.5, 4.5)
        ratio = 10.0 ** rng.uniform(0.0, 1.5) * 4e-5 / math.sqrt(r)
        draws.append((rng.uniform(0.05, 0.45), rng.uniform(0.5, 2.0),
                      complex(r, rng.choice([-1.0, 1.0]) * ratio * r)))
    for nu, ell, z in draws:
        ev = MFunctionEvaluator(Potential.bessel(nu, ell))
        exact = _bessel_m_oracle(nu, ell, z)
        for info in (m_infinity_info(ev, z), m_infinity_batch(ev, [z, 1j, -2.0])[0]):
            assert abs(info.value - exact) <= info.error_bound, (nu, ell, z)


def test_near_axis_rays_keep_their_bounds_against_the_hankel_oracle():
    # a z near the positive axis rides its ray, alone or stacked, and the
    # ray's own exponent decides whether it contracts: down to Im z / Re z =
    # 1e-15 none is refused, and each value lies within its bound
    rng = np.random.default_rng(20261038)
    for _ in range(120):
        nu, ell = rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)
        r = 10.0 ** rng.uniform(-6.0, 8.0)
        z = complex(r, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -4.0) * r)
        ev = MFunctionEvaluator(Potential.bessel(nu, ell))
        exact = _bessel_m_oracle(nu, ell, z)
        for info in (m_infinity_info(ev, z), m_infinity_batch(ev, [z, 1j, -2.0])[0]):
            assert abs(info.value - exact) <= info.error_bound, (nu, ell, z)


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
    # on the real axis 5+1e-9i cannot contract within X_max and z = 1 lies
    # on [0, inf); each raises its own error when read, and only then
    zs = [1j, 5.0 + 1e-9j, -1.0, 1.0]
    batch = m_infinity_batch(MFunctionEvaluator(_inverse_square()), zs)
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
    # sweep of -100 fails.  An expression batch sweeps each z alone, so that
    # failure is -100's own, and each other z is its lone evaluation (a Bessel
    # stack's failed sweep: test_a_failed_bessel_stack_solves_each_column_alone)
    ev = MFunctionEvaluator(_exp_well(300.0))
    batch = m_infinity_batch(ev, [-400.0, -100.0, -1000.0])
    with pytest.raises(StiffnessError, match=r"spacing between numbers\. \(z = -100\.0\)$"):
        batch[1]
    for z in (-400.0, -1000.0):
        assert batch.at(z) == m_infinity_info(ev, z)


def _holed(*holes, armed=lambda: True):
    """q = 2/x^2 on [1, inf) as an expression, nan on each closed interval of holes while armed."""
    def q(x):
        if armed() and any(a <= x <= b for a, b in holes):
            return math.nan
        return 2.0 / (x * x)
    return Potential.expression(q, 1.0, label="holed 2/x^2")


# the holes below are planted for z = -1; the other two truncations end
# below them, and all three settle in the first round
_HOLED_ZS = [-1.0, -9.0, -4.0 + 9.0j]


def _raises_its_own_error(batch, z, error, alone):
    """The entry of z raises error, with the message of evaluating z on its own."""
    with pytest.raises(error) as raised:
        batch.at(z)
    with pytest.raises(error) as own:
        alone()
    assert str(raised.value) == str(own.value)
    return raised.value


def test_a_failed_stacked_sizing_sizes_each_z_alone():
    # a hole at rung 12 of the ladder of z = -1, ell + 2 d with the
    # contraction distance d = ln(1/tol) / 2, fails the sizing of z = -1:
    # the sizing builds its ladder up to that top rung, and no sweep reaches
    # it.  An expression batch sizes and sweeps each z alone, so only -1
    # reads the error.  The potential's error names x, and the batch appends
    # the z it belongs to, keeping its type
    rung = 1.0 + 2.0 * (math.log(1.0 / NUMERIC.tol) / 2.0)
    ev = MFunctionEvaluator(_holed((rung * (1.0 - 1e-12), rung * (1.0 + 1e-12))))
    batch = m_infinity_batch(ev, _HOLED_ZS)
    error = _raises_its_own_error(batch, -1.0, IntegrationError,
                                  lambda: m_infinity_info(ev, -1.0))
    assert type(error) is IntegrationError and error.z == -1.0
    assert str(error).endswith(f"non-finite value at x = {rung} (z = -1.0)")
    assert [batch[1], batch[2]] == list(m_infinity_batch(ev, _HOLED_ZS[1:]))


def test_a_failed_start_settles_its_own_column():
    # a hole at X - h, the first lower point of the start's difference
    # stencil at z = -1, fails the start of z = -1, whose error settles it;
    # an expression batch takes each z alone, so the others keep the values
    # of a batch without them
    top = m_infinity_info(MFunctionEvaluator(_holed()), -1.0).truncation_X
    h = mfunc._DIFF_STEP * (top - 1.0)
    ev = MFunctionEvaluator(_holed((top - 1.5 * h, top - 0.5 * h)))
    batch = m_infinity_batch(ev, _HOLED_ZS)
    error = _raises_its_own_error(batch, -1.0, IntegrationError,
                                  lambda: m_infinity_info(ev, -1.0))
    assert f"x = {top - h}" in str(error)
    assert [batch[1], batch[2]] == list(m_infinity_batch(ev, _HOLED_ZS[1:]))


def test_a_failed_midpoint_settles_its_own_column(monkeypatch):
    # the stencil of every certified point c = ell + d/2 was evaluated
    # before, when the truncation was sized, so a q that depends on x alone
    # fails there first: the hole at c - h of z = -1 opens once the first
    # sweep, that of -1 alone, is done, and its error settles -1.  An
    # expression batch takes each z alone, so the others keep their healthy
    # values.  The reference leg of -1 contracts tenfold, so c lies at
    # s = 1/sqrt 2 of [ell, X]
    healthy = m_infinity_batch(MFunctionEvaluator(_holed()), _HOLED_ZS)
    mid = 1.0 + mfunc._SHORT_MARK * (healthy[0].truncation_X - 1.0)
    h = mfunc._DIFF_STEP * (mid - 1.0)
    swept = []
    sweep = mfunc._sweep

    def sweep_then_open(*args):
        out = sweep(*args)
        swept.append(True)
        return out

    monkeypatch.setattr(mfunc, "_sweep", sweep_then_open)

    def holed_evaluator():
        swept.clear()
        return MFunctionEvaluator(_holed((mid - 1.5 * h, mid - 0.5 * h), armed=lambda: swept))

    batch = m_infinity_batch(holed_evaluator(), _HOLED_ZS)
    error = _raises_its_own_error(batch, -1.0, IntegrationError,
                                  lambda: m_infinity_info(holed_evaluator(), -1.0))
    assert f"x = {mid - h}" in str(error)
    assert [batch[1], batch[2]] == [healthy[1], healthy[2]]


def _array_sweeps(monkeypatch):
    """One entry per call of mfunc's DOP853 stepper: whether its state is a stack's array."""
    states = []
    stepper = mfunc._dop853

    def recording_stepper(rhs, t0, y0, stops, rtol, atol):
        states.append(isinstance(y0, np.ndarray))
        return stepper(rhs, t0, y0, stops, rtol, atol)

    monkeypatch.setattr(mfunc, "_dop853", recording_stepper)
    return states


def test_only_a_stacking_potential_shares_a_sweep(monkeypatch):
    # only the Bessel kind stacks (Potential.stacks), whose q is one numpy
    # call over a stack; an expression or a table sweeps each z alone, so
    # each entry is that z's own evaluation, bit for bit
    states = _array_sweeps(monkeypatch)
    zs = [2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, 1.0 - 1j]
    grid = np.linspace(1.0, 60.0, 400)
    for pot in (Potential.expression(lambda x: 2.0 / x**2, 1.0),
                Potential.sampled(grid, 2.0 / grid**2)):
        ev = MFunctionEvaluator(pot)
        states.clear()
        batch = m_infinity_batch(ev, zs)
        assert states and not any(states)
        for z, info in zip(zs, batch):
            assert repr(info) == repr(m_infinity_info(ev, z))
    states.clear()
    m_infinity_batch(NUMERIC, zs)
    assert states == [True]


def test_a_pole_in_an_expression_batch_fails_its_own_z_only(monkeypatch):
    # 40 z from -400 to -790 on -300 e^-x, and -100, where psi has a zero and
    # u a pole: no stacked sweep is made, so the pole fails the sweep of -100
    # alone, and every other z is its lone evaluation
    ev = MFunctionEvaluator(_exp_well(300.0))
    zs = np.linspace(-400.0, -790.0, 40).tolist() + [-100.0]
    states = _array_sweeps(monkeypatch)
    batch = m_infinity_batch(ev, zs)
    assert states and not any(states)
    with pytest.raises(StiffnessError, match=r"\(z = -100\.0\)$"):
        batch.at(-100.0)
    for z, info in zip(zs[:-1], batch):
        assert repr(info) == repr(m_infinity_info(ev, z))


def test_a_failed_bessel_stack_solves_each_column_alone(monkeypatch):
    # a Bessel q raises nothing, but the stepper can still fail a stacked
    # sweep; each column of the stack is then solved again alone, and its
    # entry is its lone evaluation
    sweep, failed = mfunc._SWEEPS["array"], []

    def failing_once(*args):
        if not failed:
            failed.append(True)
            raise StiffnessError(mfunc._TOO_SMALL_STEP)
        return sweep(*args)

    monkeypatch.setitem(mfunc._SWEEPS, "array", failing_once)
    zs = [2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, 1.0 - 1j]
    batch = m_infinity_batch(NUMERIC, zs)
    assert failed
    for z, info in zip(zs, batch):
        assert repr(info) == repr(m_infinity_info(NUMERIC, z))


def test_a_pole_of_m_alpha_names_its_z():
    # at cot(alpha) = m_inf(-1) the rotation's cos(alpha) - m_inf sin(alpha) vanishes
    alpha = math.atan2(1.0, m_infinity(NUMERIC, -1.0).real)
    with pytest.raises(PoleError, match="vanishes at z = -1.0") as raised:
        m_alpha_direct(BESSEL, alpha, -1.0)
    assert raised.value.z == -1.0
    # in a stack, alpha from the stack's own m_inf(-1), and each entry rotated
    batch = m_infinity_batch(NUMERIC, _HOLED_ZS)
    alpha = math.atan2(1.0, batch[0].value.real)
    with pytest.raises(PoleError, match="vanishes at z = -1.0") as raised:
        rotate_evaluation(batch[0], alpha, _HOLED_ZS[0])
    assert raised.value.z == -1.0
    for i, z in enumerate(_HOLED_ZS[1:], 1):
        rotated = rotate_evaluation(batch[i], alpha, z)
        assert abs(rotated.value - m_alpha(CLOSED, alpha, z)) <= rotated.error_bound


@pytest.mark.parametrize("zs", [[-1.0], [1j], [-1.0, 1j, 2.0 + 1j]],
                         ids=["-1", "i", "stack"])
def test_a_large_m_is_a_value_not_a_pole(zs):
    # on bessel(10.5, 1e-12), m_inf is about (nu - 1/2)/ell = 1e13 at each z;
    # a value so large is no pole of m_inf, alone or in a stack
    ev = MFunctionEvaluator(Potential.bessel(10.5, 1e-12))
    batch = m_infinity_batch(ev, zs)
    for i, z in enumerate(zs):
        info = batch[i]
        assert abs(info.value) > 9e12
        assert abs(info.value - half_integer_bessel_m(10.5, 1e-12, z)) <= info.error_bound


@pytest.mark.parametrize("nu, ell, zs", [(4.5, 1e-149, [-1.0]),
                                         (1.5, 10.0 ** -147.375, [1j, -1.0, 2.0 + 1j])],
                         ids=["one", "stack"])
def test_a_step_whose_squared_norm_overflows_fails(nu, ell, zs):
    # where u is about 1/x below x = 1e-147, the sum of a step's squared error
    # estimates passes the float range; read as a norm of 0 it passed steps
    # with no error control, and these values missed their bounds 374 and 6
    # times over
    batch = m_infinity_batch(MFunctionEvaluator(Potential.bessel(nu, ell)), zs)
    for i, z in enumerate(zs):
        info = batch[i]
        assert abs(info.value - half_integer_bessel_m(nu, ell, z)) <= info.error_bound


def test_every_first_step_probe_lies_in_the_sweep(monkeypatch):
    # the first-step rule probes the slope at t0 + h0, h0 at most the span;
    # where that rounds past the last stop it probes at the stop, so q is
    # never called below ell (8 of these 40 sweeps probed below it).  A sweep
    # on its ray runs in s from 1 to 0, and its probe lies in [0, 1]
    probes = []
    first_step = mfunc._initial_step

    def recording(rhs, t0, y0, f0, stop, *rest):
        def probe(t, y):
            probes.append((stop, t, t0))
            return rhs(t, y)
        return first_step(probe, t0, y0, f0, stop, *rest)

    monkeypatch.setattr(mfunc, "_initial_step", recording)
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        nu, ell = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        z = complex(rng.uniform(-5.0, 5.0), rng.choice([0.0, 10.0 ** rng.uniform(-0.5, 0.7)]))
        if z.imag == 0.0:
            z = complex(-(10.0 ** rng.uniform(-2.0, 3.0)), 0.0)
        del probes[:]
        m_infinity_info(MFunctionEvaluator(Potential.bessel(nu, ell)), z)
        assert probes and all(stop in (ell, 0.0) and stop <= t <= t0
                              for stop, t, t0 in probes), (nu, ell, z, probes)


@pytest.mark.parametrize("nu, ell", [(0.6, 1e-16), (0.6, 1e-100), (0.51, 1e-30)])
def test_a_one_z_sweep_from_below_the_float_spacing_of_x(nu, ell):
    # X - (X - ell) rounds to 0 when ell lies below X's float spacing, where
    # a first-step probe at t0 - h0 divided by zero; each value lies within
    # its bound of the Hankel oracle
    ev = MFunctionEvaluator(Potential.bessel(nu, ell))
    for z in (1j, -1.0, 2.0 + 1j):
        info = m_infinity_info(ev, z)
        assert abs(info.value - _bessel_m_oracle(nu, ell, z)) <= info.error_bound


def test_a_stack_whose_first_step_overflows_writes_no_warning():
    # at ell = 1e-151 near nu = 1/2 the stack's first-step rule divides past
    # the float range; as in its trial stages, numpy writes no RuntimeWarning
    # (an error here), and each value lies within its bound of the oracle
    zs = [1j, -1.0, 2.0 + 1j]
    for z, info in zip(zs, m_infinity_batch(MFunctionEvaluator(Potential.bessel(0.51, 1e-151)),
                                            zs)):
        assert abs(info.value - _bessel_m_oracle(0.51, 1e-151, z)) <= info.error_bound


def test_a_truncation_past_x_max_names_its_z():
    # at nu = 0.6 and z = -1e-12 the decaying solution settles on a scale of
    # 1/sqrt|z| = 1e6, which X_max = 2^20 cannot reach
    ev = MFunctionEvaluator(Potential.bessel(0.6, 1.0))
    batch = m_infinity_batch(ev, [-1e-12, -1.0, 1.0 + 1j])
    with pytest.raises(ConvergenceError, match=r"exceeded X_max .* \(z = -1e-12\)"):
        batch[0]
    for z, stacked in zip([-1.0, 1.0 + 1j], [batch[1], batch[2]]):
        alone = m_infinity_info(ev, z)
        assert abs(stacked.value - alone.value) <= stacked.error_bound + alone.error_bound


def test_an_unknown_evaluator_mode_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown evaluator mode 'disk'"):
        MFunctionEvaluator(BESSEL, mode="disk")


def test_stacked_sweep_runs_at_the_scalar_tolerances(monkeypatch):
    # the error norm is each column's own, with the largest taken, so N
    # stacked columns sweep at _RTOL and _ATOL, as one column does alone;
    # each value then agrees with its own sweep within the two bounds.  A
    # lone z near the positive axis (2 - 0.5i) sweeps its ray in s, with u's
    # absolute tolerance in v = d u's units, |d| _ATOL, as in a stack
    calls = []
    stepper = mfunc._dop853

    def recording_stepper(rhs, t0, y0, stops, rtol, atol):
        tolerance = atol
        if len(rhs) == 3:       # a ray's (c, e = ell / d, d^2 z)
            assert atol == pytest.approx(abs(BESSEL.ell / rhs[1]) * mfunc._ATOL, rel=1e-14)
            tolerance = "|d| _ATOL"
        calls.append((t0, np.shape(y0), rtol, tolerance))
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
        ((), mfunc._RTOL, mfunc._ATOL), ((), mfunc._RTOL, "|d| _ATOL")}


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


def test_stacked_values_keep_their_bounds_over_the_family():
    # 18 stacks of 60 mixed z (both half-planes, and the negative axis from
    # -1e-2 to -1e3): each stacked value lies within its error_bound of the
    # closed form, and within the two bounds of the same point swept alone
    rng = np.random.default_rng(23)
    for nu in (0.5, 1.5, 2.5, 3.5, 4.5, 9.5):
        for ell in (0.25, 1.0, 3.0):
            zs = [complex(-10.0 ** rng.uniform(-2.0, 3.0)) if i % 3 == 2 else
                  complex(rng.uniform(-5.0, 5.0), (1 - 2 * (i % 3)) * rng.uniform(0.1, 5.0))
                  for i in range(60)]
            ev = MFunctionEvaluator(Potential.bessel(nu, ell))
            for z, stacked in zip(zs, m_infinity_batch(ev, zs)):
                exact, alone = half_integer_bessel_m(nu, ell, z), m_infinity_info(ev, z)
                assert abs(stacked.value - exact) <= stacked.error_bound
                assert abs(stacked.value - alone.value) <= stacked.error_bound + alone.error_bound


# z off the axis in either half-plane, |Re z| and |Im z| log-uniform on
# [1e-2, 1e4] (Re z may be 0), with |z| <= 1e4
_off_axis = st.builds(
    lambda re, im, re_sign, im_sign: complex(re_sign * 10.0 ** re, im_sign * 10.0 ** im),
    st.floats(-2.0, 4.0), st.floats(-2.0, 4.0), st.sampled_from((1.0, -1.0, 0.0)),
    st.sampled_from((1.0, -1.0))).filter(lambda z: abs(z) <= 1e4)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 10.0), st.floats(0.05, 4.0), st.lists(_off_axis, min_size=1, max_size=6),
       st.lists(_negative_axis, max_size=2))
def test_stacked_bessel_columns_on_their_rays_keep_their_bounds(nu, ell, off_axis, negative):
    # a stack's off-axis columns sweep their rays; every column stays within
    # its error_bound of the decaying solution sqrt(x) H1_nu(sqrt(z) x).  The
    # multiple of the integration allowance _ATOL + _RTOL |m| that a ray's
    # error reaches is reported (hypothesis statistics), against the factor
    # _INTEGRATION_ERROR = 300 of error_bound
    zs = list(dict.fromkeys(off_axis + negative))
    assume(len(zs) > 1)
    ev = MFunctionEvaluator(Potential.bessel(nu, ell))
    directions = mfunc._directions(ev.potential, zs, ev.tol)
    assert any(e != 1.0 for e in directions)
    multiple = 0.0
    for z, e, info in zip(zs, directions, m_infinity_batch(ev, zs)):
        error = abs(info.value - _bessel_m_oracle(nu, ell, z))
        assert error <= info.error_bound, (nu, ell, z, error, info)
        if e != 1.0:
            multiple = max(multiple, error / (mfunc._ATOL + mfunc._RTOL * abs(info.value)))
    target(multiple, label="integration multiple on a ray")


def test_only_a_bessel_stack_sweeps_rays(monkeypatch):
    # the ray needs q analytic, and psi zero-free, in the sector it sweeps
    # (Potential.rays): an expression or sampled batch sweeps each z alone on
    # the real axis, and so do a lone z on a Bessel potential far from the positive
    # axis and a ray too short to leave ell.  A lone z near that axis sweeps
    # its ray on a scalar state, whose rhs is (c, ell / d, d^2 z)
    forcing = []
    stepper = mfunc._dop853

    def recording_stepper(rhs, t0, y0, stops, rtol, atol):
        forcing.append(rhs[1] if isinstance(y0, np.ndarray) else "ray" if len(rhs) == 3
                       else None)
        return stepper(rhs, t0, y0, stops, rtol, atol)

    monkeypatch.setattr(mfunc, "_dop853", recording_stepper)
    zs = [2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, 1.0 - 1j]
    grid = np.linspace(1.0, 60.0, 400)
    for pot in (Potential.expression(lambda x: 2.0 / x**2, ell=1.0, label="2/x^2"),
                Potential.sampled(grid, 2.0 / grid**2)):
        forcing.clear()
        m_infinity_batch(MFunctionEvaluator(pot), zs)
        assert forcing and all(d is None or d.dtype.kind == "f" for d in forcing)
    forcing.clear()
    m_infinity_info(NUMERIC, 1j)            # Im sqrt(z) = 0.71 |sqrt z|
    m_infinity_info(NUMERIC, 5.0 + 0.1j)    # Im sqrt(z) = 0.01 |sqrt z|
    assert forcing == [None, "ray"]
    forcing.clear()
    m_infinity_batch(NUMERIC, zs)
    (d,) = forcing
    assert [x.imag != 0.0 for x in d.tolist()] == [z.imag != 0.0 for z in zs]
    assert all(x.imag * z.imag > 0.0 for x, z in zip(d.tolist(), zs) if z.imag != 0.0)
    # at ell = 100 the ray of 5e25+1e20i would first reach 1.3e-12 from ell,
    # within 2048 float spacings, where its real axis, 1.3e-6, is not
    pot = Potential.bessel(1.5, 100.0)
    assert mfunc._range_error(5e25 + 1e20j, 1.3e-6, 100.0, 1e-8) is None
    assert mfunc._directions(pot, [5e25 + 1e20j, 1j], 1e-8)[0] == 1.0


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
    """The stacked stepper's right-hand side (G, d) of the columns ``v' = G(t) - v^2``.

    g maps t, a float or the array of a step's stage abscissae, to the
    forcing G of every column at each t, an array of shape ``t.shape + (N,)``.
    A column is the scaled state ``v = d u``, so its absolute tolerance is
    ``d atol``.
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
        # the scalar stepper takes the Riccati pair (q, z) of u' = q(t) - z - u^2,
        # with q real: c = q - z
        sol = mfunc._dop853((lambda t: cs[0].real, -1j * cs[0].imag), 3.0, starts[0], _STOPS,
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

    def q(t):
        seen.append(t)
        return math.cos(t)

    def forcing(t):
        seen.append(t)
        return [0.1 * math.cos(t)] * 2

    stops = [2.0, 1.0 / 3.0, math.pi / 10.0, 0.1, 0.0]
    if isinstance(y0, np.ndarray):
        # u' = 0.1 (10 cos t - u^2) in the stacked form: v = 0.1 u, v' = 0.1 cos t - v^2
        sol = mfunc._dop853(_stacked(forcing, 0.1), 5.0, 0.1 * y0, stops, mfunc._RTOL,
                            mfunc._ATOL)
    else:
        # the scalar Riccati form y' = q(t) - z - y^2, with z = 0
        sol = mfunc._dop853((q, 0.0), 5.0, y0, stops, mfunc._RTOL, mfunc._ATOL)
    assert len(sol.y) == len(sol.integral) == len(stops)
    assert set(stops) <= set(seen)


def test_stepper_raises_stiffness_error_at_the_deep_well_pole():
    # psi has a zero at z = -100 in the deep well, so u has a pole there
    well = _exp_well(300.0)
    zs = np.array([-100.0, -400.0])
    starts = -np.sqrt(well(30.0) - zs)
    with pytest.raises(StiffnessError, match="step size"):
        mfunc._dop853((well, -100.0), 30.0, float(starts[0]), [0.0],
                      mfunc._RTOL, mfunc._ATOL)
    with np.errstate(all="ignore"), pytest.raises(StiffnessError, match="step size"):
        mfunc._dop853(_stacked(lambda x: (well(x) - zs).tolist()), 30.0, starts, [0.0],
                      mfunc._RTOL, mfunc._ATOL)


@pytest.mark.parametrize("y0, h", [(-2.0 + 0.3j, -0.1), (-1.5 + 0.0j, -0.37), (0.8, 0.25)])
def test_straight_line_step_matches_the_array_step(y0, h):
    # the scalar sweeps' steps are written out from the same tableau as the
    # stacked one, and all sweeps share one step control; q is real, as
    # every potential's scalar_q is, and z = -i.  Stage 11 lies at the
    # step's end and gives the next slope, so q is called nfev times
    calls = []

    def q(t):
        calls.append(t)
        return 4.0 / (1.0 + t * t)

    z = -1j
    stops = [2.0 + 0.5 * h, 2.0 + h]
    ours = mfunc._dop853((q, z), 2.0, y0, stops, mfunc._RTOL, mfunc._ATOL)
    assert len(calls) == ours.nfev
    stack = mfunc._dop853(_stacked(lambda t: [q(t) - z]), 2.0, np.array([y0]), stops,
                          mfunc._RTOL, mfunc._ATOL)
    # the same attempts, and values within a few ulp of the largest summand,
    # b_j h y_j or b_j h k_j, per attempt
    assert (ours.nfev, ours.rejected) == (stack.nfev, stack.rejected)
    attempts = (ours.nfev - 2) // 11
    assert attempts >= 2
    ulp = 4.0 * attempts * np.finfo(float).eps * abs(h) * float(np.abs(mfunc._B).max())
    slope = max(abs(q(t) - z - y * y) for t, y in zip([2.0] + stops, [y0] + ours.y))
    for y, integral, ys, integrals in zip(ours.y, ours.integral, stack.y, stack.integral):
        assert abs(y - ys[0]) <= ulp * slope
        assert abs(integral - integrals[0]) <= ulp * max(abs(y0), abs(y))


def _complex_reference_step(q, z, t, t_new, y, f, rtol, atol):
    """One DOP853 step of ``y' = q(t) - z - y^2`` in plain complex arithmetic.

    Each sum runs over _ROWS and _FINAL in the order of the tables, from
    its first term, as the written-out steps add them.
    """
    def add(terms):
        return functools.reduce(operator.add, terms)

    h = t_new - t
    ks, ys = [f], [y]
    for c, row in mfunc._ROWS:
        ys.append(y + h * add([a * ks[j] for j, a in row]))
        g = q(t_new if c == 1.0 else t + c * h) - z
        ks.append(g - ys[-1] * ys[-1])
    y_new = y + h * add([b * ks[j] for j, b, _, _ in mfunc._FINAL])
    integral = h * add([b * ys[j] for j, b, _, _ in mfunc._FINAL])
    err5 = add([e5 * ks[j] for j, _, e5, _ in mfunc._FINAL])
    err3 = add([e3 * ks[j] for j, _, _, e3 in mfunc._FINAL])
    try:
        scale = atol + rtol * max(abs(y), abs(y_new))
        n5 = abs(err5) / scale
        n3 = abs(err3) / scale
    except OverflowError:
        return y_new, integral, math.inf, g
    n5 *= n5
    n3 *= n3
    if n5 == 0.0 and n3 == 0.0:
        return y_new, integral, 0.0, g
    return y_new, integral, abs(h) * n5 / math.sqrt(n5 + 0.01 * n3), g


def _reference_sweep(rhs, t0, y0, stops, rtol, atol):
    """A scalar sweep as the stepper made it before its sweeps were compiled.

    The Python loop of that stepper's step control, driving
    :func:`_complex_reference_step` (which, on a float state, does the
    float arithmetic of the written-out float step).  Returns the fields
    of :class:`mfunc._Solution`.
    """
    q, z = rhs
    slope = lambda t, y: q(t) - z - y * y
    f = slope(t0, y0)
    direction = math.copysign(1.0, stops[-1] - t0)
    h_abs = mfunc._initial_step(slope, t0, y0, f, stops[-1], rtol, atol)
    nfev, rejections = 2, 0
    t, y, integral = t0, y0, 0.0
    r_last = 0.0
    ys, integrals = [], []
    for stop in stops:
        while t != stop:
            min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError("Required step size is less than spacing between "
                                         "numbers.")
                t_new = t + direction * h_abs
                clipped = direction * (t_new - stop) > 0
                if clipped:
                    t_new = stop
                h = t_new - t
                y_new, step_integral, err, g = _complex_reference_step(q, z, t, t_new, y, f,
                                                                       rtol, atol)
                nfev += 11
                if err < 1.0:
                    break
                h_abs = abs(h) * max(0.2, 0.9 * err ** (-1.0 / 8.0))
                rejected = True
                rejections += 1
            if err == 0.0:
                factor, r_last = 10.0, 0.0
            else:
                factor = 0.9 * err ** (-1.0 / 8.0)
                r = abs(h) * factor
                if r < r_last:
                    factor *= r / r_last
                r_last = r
                if factor > 10.0:
                    factor = 10.0
            if rejected:
                factor = min(1.0, factor)
            h_abs = max(h_abs, abs(h) * factor) if clipped else abs(h) * factor
            t, y = t_new, y_new
            integral = integral + step_integral
            f = g - y * y
        ys.append(y)
        integrals.append(integral)
    return ys, integrals, nfev, rejections


def _sweep_or_error(stepper, rhs, t0, y0, stops):
    """The stepper's sweep as a tuple of its fields, or the StiffnessError it ends in."""
    try:
        return tuple(stepper(rhs, t0, y0, stops, mfunc._RTOL, mfunc._ATOL))
    except StiffnessError as exc:
        return exc


def _bessel_rhs(pot, z):
    """The stepper's (q, z) of a Bessel potential as the sweep passes it: c, or q = 0 itself."""
    c = pot.nu * pot.nu - 0.25
    return (c if c != 0.0 else pot.scalar_q), z


def _part(bound):
    """A part of a complex number: a signed zero, or of modulus in [1e-6, bound]."""
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.builds(math.copysign, st.floats(1e-6, bound), st.sampled_from([1, -1])))


@settings(max_examples=150, deadline=None)
@given(_part(30.0), _part(30.0), _part(1e3), _part(1e3), st.floats(0.5, 6.0),
       st.floats(1.0, 4.0), st.floats(1e-9, 0.5), st.booleans())
def test_complex_step_is_the_complex_arithmetic_step_bit_for_bit(yr, yi, zr, zi, nu, t,
                                                                 h, backward):
    # the complex sweep's float-pair steps form the sums and products of
    # complex arithmetic, so every output keeps its bits.  Where a part is 0
    # (or a product underflows to 0), a result can be -0.0 where complex
    # arithmetic gives 0.0, since its float x complex product adds a
    # 0 x part term; the two compare equal.  A sweep that overflows is the
    # test below
    pot = Potential.bessel(nu, 0.25)
    y, z = complex(yr, yi), complex(zr, zi)
    t_new = t - h if backward else t + h
    stops = [t + 0.5 * (t_new - t), t_new]
    ref = _sweep_or_error(_reference_sweep, (pot.scalar_q, z), t, y, stops)
    assume(isinstance(ref, StiffnessError)
           or all(cmath.isfinite(v) for v in ref[0] + ref[1]))
    ours = _sweep_or_error(mfunc._dop853, _bessel_rhs(pot, z), t, y, stops)
    if isinstance(ref, StiffnessError):
        assert isinstance(ours, StiffnessError)
        return
    assert all(type(v) is complex for v in ours[0] + ours[1])
    if 0.0 in (yr, yi, zr, zi):
        assert ours == ref
    else:
        assert repr(ours) == repr(ref)


def test_an_overflowing_complex_state_is_rejected():
    # y^2 overflows, or already |y| does: every step has a nan or infinite
    # error norm, and the sweep shrinks its step below the float spacing, in
    # the written-in Bessel form and the q(x) one as in the reference
    q = BESSEL.scalar_q
    for y in [1e300 + 1e300j, 1e308 + 1e308j]:
        f = q(3.0) - 1j - y * y
        ref = _complex_reference_step(q, 1j, 3.0, 2.9, y, f, mfunc._RTOL, mfunc._ATOL)
        assert not ref[2] < 1.0
        with np.errstate(all="ignore"):
            for rhs in [(q, 1j), (2.0, 1j)]:
                ours = _sweep_or_error(mfunc._dop853, rhs, 3.0, y, [1.0])
                assert isinstance(ours, StiffnessError) and "step size" in str(ours)
            assert isinstance(_sweep_or_error(_reference_sweep, (q, 1j), 3.0, y, [1.0]),
                              StiffnessError)


def test_a_stack_whose_trial_stages_overflow_writes_no_warning():
    # near the top of the numeric range a trial stage of the stacked step can
    # overflow; the step's nan norm rejects it, as OverflowError does in a
    # scalar sweep, and numpy writes no RuntimeWarning (an error here).  Both
    # values stay within their bounds of the closed form
    zs = [1e21 + 3e17j, 1j]
    for z, info in zip(zs, m_infinity_batch(MFunctionEvaluator(Potential.bessel(1.5, 1e4)), zs)):
        assert abs(info.value - half_integer_bessel_m(1.5, 1e4, z)) <= info.error_bound


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["bessel c", "bessel q", "sampled"]), st.booleans(),
       st.floats(0.5, 4.0), st.floats(0.25, 2.0), st.floats(0.05, 4.0),
       st.floats(-30.0, 30.0), st.floats(0.01, 30.0), st.sampled_from([1.0, -1.0]),
       st.floats(-0.5, 0.5), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_sweeps_are_the_reference_sweep_bit_for_bit(kind, real, nu, ell, span, re, im, sign,
                                                    jitter, cuts):
    # every compiled sweep (a float or a complex state, the Bessel q written
    # into the stages or a q(x) call) is the reference loop over the
    # complex-arithmetic step, bit for bit, at each stop; a sampled potential
    # also stops on its knots, as the Riccati sweep does
    top = ell + span
    if kind == "sampled":
        grid = np.linspace(ell, ell + 0.8 * span, 9)
        pot = Potential.sampled(grid, (nu * nu - 0.25) / grid**2)
    else:
        pot = Potential.bessel(nu, ell)
    q = pot.scalar_q
    z = -abs(re) - 0.01 if real else complex(re, sign * im)
    start = -cmath.sqrt(q(top) - z) * (1.0 + jitter)
    y0 = start.real if real else start
    knots = [] if pot.grid is None else [x for x in pot.grid.tolist() if ell < x < top]
    stops = sorted({ell, *knots, *(ell + cut * span for cut in cuts)} - {top}, reverse=True)
    ref = _sweep_or_error(_reference_sweep, (q, z), top, y0, stops)
    rhs = _bessel_rhs(pot, z) if kind == "bessel c" else (q, z)
    ours = _sweep_or_error(mfunc._dop853, rhs, top, y0, stops)
    if isinstance(ref, StiffnessError):
        assert isinstance(ours, StiffnessError)
        return
    assert all(type(v) is type(y0) for v in ours[0])
    assert repr(ours) == repr(ref)


def _numpy_first_step(rhs, t0, y0, f0, stop, rtol, atol):
    """scipy's first-step rule for a Riccati state or a stack of them, in numpy.

    A stack takes one atol per column.  The smallest first trial over the
    columns gives one slope probe, taken at stop where t0 + h0 rounds past
    stop, and the smallest second trial the step.
    """
    span, direction = abs(stop - t0), math.copysign(1.0, stop - t0)
    y0a, f0a = np.atleast_1d(y0), np.atleast_1d(f0)
    scale = atol + rtol * np.abs(y0a)
    d0, d1 = (np.abs(y0a) / scale).tolist(), (np.abs(f0a) / scale).tolist()
    h0 = min(span, min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                       for a, b in zip(d0, d1)))
    t1 = t0 + direction * h0
    f1 = rhs(max(t1, stop) if direction < 0 else min(t1, stop), y0 + direction * h0 * f0)
    d2 = (np.abs(np.atleast_1d(f1) - f0a) / scale / h0).tolist()
    h1 = min(max(1e-6, 1e-3 * h0) if b <= 1e-15 and c <= 1e-15
             else (0.01 / max(b, c)) ** (1.0 / 8.0) for b, c in zip(d1, d2))
    return min(100.0 * h0, h1, span)


@settings(max_examples=100, deadline=None)
@given(_part(30.0), _part(30.0), _part(1e3), _part(1e3), st.booleans(), st.floats(1e-3, 5.0))
def test_a_scalar_first_step_is_numpys(yr, yi, zr, zi, real, span):
    # one Riccati state is a stack of one column, its norms floats; numpy's
    # complex modulus can round apart from abs(), so a complex one keeps
    # numpy's, and the step is the one of the array operations
    q = BESSEL.scalar_q
    y0, z = (yr, zr) if real else (complex(yr, yi), complex(zr, zi))
    slope = lambda t, y: q(t) - z - y * y
    f0 = slope(2.0, y0)
    ours = mfunc._initial_step(slope, 2.0, y0, f0, 2.0 - span, mfunc._RTOL, mfunc._ATOL)
    ref = _numpy_first_step(slope, 2.0, y0, f0, 2.0 - span, mfunc._RTOL, mfunc._ATOL)
    assert type(ours) is float
    assert repr(ours) == repr(ref)
    # a one-column ndarray, whose slope is the lone state's, gives its step
    column = lambda t, y: np.array([slope(t, y.item())])
    one = mfunc._initial_step(column, 2.0, np.array([y0]), np.array([f0]), 2.0 - span,
                              mfunc._RTOL, np.array([mfunc._ATOL]))
    assert repr(one) == repr(ours)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_part(30.0), _part(30.0), _part(1e3), _part(1e3),
                          st.floats(0.1, 10.0)), min_size=2, max_size=8),
       st.booleans(), st.floats(1e-3, 5.0))
def test_a_stack_first_step_is_numpys(columns, real, span):
    # the smallest first trial over the columns, one slope probe, then the
    # smallest second trial, each column with its own atol
    yr, yi, zr, zi, d = (np.array(v) for v in zip(*columns))
    y0, z = (yr, zr) if real else (yr + 1j * yi, zr + 1j * zi)
    slope = lambda t, y: BESSEL(t) - z - y * y
    f0, atol = slope(2.0, y0), d * mfunc._ATOL
    ours = mfunc._initial_step(slope, 2.0, y0, f0, 2.0 - span, mfunc._RTOL, atol)
    ref = _numpy_first_step(slope, 2.0, y0, f0, 2.0 - span, mfunc._RTOL, atol)
    assert type(ours) is float
    assert repr(ours) == repr(ref)


@pytest.mark.parametrize("y0, f0, atol", [
    (1.0, 1e300, mfunc._ATOL),
    (1.0 + 1j, 1e300 + 0j, mfunc._ATOL),
    (np.array([1.0, 2.0]), np.array([1.0, 1e300]), np.array([mfunc._ATOL, mfunc._ATOL])),
], ids=["float", "complex", "stack"])
def test_a_first_step_whose_slope_overflows_the_norm_is_zero(y0, f0, atol):
    # |f0| / scale passes the float range, so h0 = 0: the step is 0.0, with
    # no slope probe and no RuntimeWarning (an error here)
    def no_probe(t, y):
        raise AssertionError("probed")

    assert mfunc._initial_step(no_probe, 2.0, y0, f0, 1.0, mfunc._RTOL, atol) == 0.0


def _per_stage_step(q, ell, d, zs, t, t_new, y, f, rtol, atol):
    """One stacked DOP853 step of ``v = d u`` as the tableau reads, with one q call per stage.

    Stage s is the row ``[1, h a_s0, ..., h a_s,s-1]`` against
    ``[v, k_0, ..., k_s-1]`` and ``k_s = d^2 (q - z) - v_s^2``; stage 11
    is taken at t_new.  y_new and both error estimates are the rows
    ``[1, h b]``, ``[0, e5]`` and ``[0, e3]`` against ``[v, k_0, ..., k_11]``.
    """
    dtype = np.result_type(y, f)
    h = t_new - t
    known = np.empty((13,) + f.shape, dtype=dtype)
    stage = np.empty((12,) + f.shape, dtype=dtype)
    known[0] = stage[0] = y
    known[1] = f
    for s in range(1, 12):
        row = np.concatenate(([1.0], h * mfunc._A[s, :s])).astype(dtype)
        v = stage[s] = row @ known[:s + 1]
        x = t_new if s == 11 else t + mfunc._C[s] * h
        g = d * d * (q(ell + x * d) - zs)
        known[s + 1] = g - v * v
    final = np.zeros((3, 13), dtype=dtype)
    final[0] = np.concatenate(([1.0], h * mfunc._B))
    final[1, 1:] = mfunc._E5
    final[2, 1:] = mfunc._E3
    y_new, err5, err3 = final @ known
    scale = d * atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    n5 = np.abs(err5) / scale
    n3 = np.abs(err3) / scale
    n5 *= n5
    n3 *= n3
    norms = n5 / np.sqrt(np.maximum(n5 + 0.01 * n3, np.finfo(float).tiny))
    return y_new, final[0, 1:] @ stage, abs(h) * float(norms.max()), g


@pytest.mark.parametrize("zq", [[2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, -0.01, 3.0 - 1j],
                                [-1.0, -4.0, -0.01, -250.0]], ids=["mixed", "real"])
@pytest.mark.parametrize("pot", [Potential.bessel(1.5), Potential.bessel(2.2, 0.7),
                                 Potential.free()], ids=["bessel1.5", "bessel2.2", "free"])
def test_stacked_step_is_the_per_stage_step_bit_for_bit(pot, zq):
    # one q call at all stage abscissae, workspace rows in the stack's dtype
    # and the stacked final sums change no product and no sum: y_new, the
    # integral, the error norm and the end forcing keep every bit
    ell, zs = pot.ell, np.array(zq)
    d = np.linspace(0.7, 12.0, len(zq))
    forcing = lambda t: d * d * (pot(ell + np.multiply.outer(t, d)) - zs)
    work = mfunc._array_workspace(zs.dtype, len(zq))
    for t, h in [(1.0, -0.0005), (1.0, -0.004), (0.8, -0.02), (0.37, -0.06)]:
        y = d * (-np.sqrt(pot(ell + t * d) - zs) * 1.01 + 0.02)
        if y.dtype.kind == "c":
            y[np.imag(zs) == 0.0] = y[np.imag(zs) == 0.0].real
        f = d * d * (pot(ell + t * d) - zs) - y * y
        ours = mfunc._array_step((forcing, work), t, t + h, y, f, mfunc._RTOL,
                                 d * mfunc._ATOL)
        ref = _per_stage_step(pot, ell, d, zs, t, t + h, y, f, mfunc._RTOL, mfunc._ATOL)
        assert ours[0].dtype == ref[0].dtype == zs.dtype
        assert ours[0].tobytes() == ref[0].tobytes()
        assert ours[1].tobytes() == ref[1].tobytes()
        assert ours[2] == ref[2]
        assert ours[3].tobytes() == ref[3].tobytes()


def test_a_stacked_step_calls_the_potential_once(monkeypatch):
    # per sweep: two calls for the first step (the slope at the start and
    # the first-step rule's trial point) and one (11, N) call per step
    # attempt at its stage abscissae, whose last, at the step's end, gives
    # the next slope; nfev counts those two and 11 per attempt.  Only the
    # calls inside a sweep count: sizing and starts call q on arrays too
    shapes, nfevs, rejected = [], [], []
    sweeping = []
    call, stepper = Potential.__call__, mfunc._dop853

    def counting_call(self, x):
        if sweeping:
            shapes.append(x.shape if isinstance(x, np.ndarray) else ())
        return call(self, x)

    def counting_stepper(*args):
        sweeping.append(1)
        try:
            sol = stepper(*args)
        finally:
            sweeping.clear()
        nfevs.append(sol.nfev)
        rejected.append(sol.rejected)
        return sol

    monkeypatch.setattr(Potential, "__call__", counting_call)
    monkeypatch.setattr(mfunc, "_dop853", counting_stepper)
    # the column at -1e-8 runs into the 1/x^2 tail, where a step is still
    # rejected now and then; the off-axis columns sweep their rays
    zs = [2.0 + 1j, -1.0, -4.0 + 0.5j, 5.0 + 0.1j, -1e-8]
    for z, info in zip(zs, m_infinity_batch(NUMERIC, zs)):
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound
    stage_calls = [shape for shape in shapes if len(shape) == 2]
    sweeps, n_attempts = len(nfevs), len(stage_calls)
    assert sweeps >= 1 and n_attempts > sum(rejected) > 0
    assert all(shape[0] == 11 for shape in stage_calls)
    assert len(shapes) - len(stage_calls) == 2 * sweeps
    assert sum(nfevs) == 2 * sweeps + 11 * n_attempts


def _counting_sweeps(monkeypatch):
    """(state type, step attempts, rejected attempts) of each sweep of mfunc's stepper.

    A sweep makes 2 RHS calls for its first step and 11 per attempt.
    """
    sweeps = []
    stepper = mfunc._dop853

    def counting_stepper(rhs, t0, y0, stops, rtol, atol):
        sol = stepper(rhs, t0, y0, stops, rtol, atol)
        sweeps.append((type(y0), (sol.nfev - 2) // 11, sol.rejected))
        return sol

    monkeypatch.setattr(mfunc, "_dop853", counting_stepper)
    return sweeps


def _attempts(sweeps, state):
    """(attempts, rejected) summed over the sweeps of one state type."""
    counts = [(n, r) for kind, n, r in sweeps if kind is state]
    return sum(n for n, _ in counts), sum(r for _, r in counts)


def test_a_shrinking_scale_sweep_rejects_almost_no_step(monkeypatch):
    # toward z = -0 the sweep runs into the 1/x^2 tail, whose length scale
    # shrinks with x; the standard controller proposed a step about 19% too
    # long for the next, smaller x, and so rejected every other step (148
    # attempts, 71 rejected), while the predictive cap follows the shrink
    sweeps = _counting_sweeps(monkeypatch)
    z = -1e-8
    value = m_infinity(NUMERIC, z)
    exact = bessel_m_closed_form(z)
    assert abs(value - exact) <= 1e-10 * abs(exact)
    attempts, rejected = _attempts(sweeps, float)
    assert 0 < attempts <= 85
    assert rejected <= 3


@pytest.mark.parametrize("z, attempts, rejected", [
    (1j, 36, 0), (5.0 + 0.1j, 42, 0), (100.0 + 1j, 19, 0), (1000.0 + 1j, 9, 0),
])
def test_complex_sweeps_keep_their_step_count(monkeypatch, z, attempts, rejected):
    # the sweep of a complex z runs on float pairs with the Bessel q written
    # in; these are the attempts and rejections of the complex-arithmetic
    # step, so a sweep that changed the step control fails here.  Near the
    # positive axis a lone z sweeps its ray: 5+0.1i, 100+i and 1000+i took
    # 165, 144 and 48 attempts on the real axis.  i, with Im sqrt(z) = 0.71
    # |sqrt z|, stays there.  The first X of i, 5+0.1i and 100+i starts at
    # dist/sqrt 2 (46, 54 and 26 attempts from dist); the reference leg of
    # 1000+i would not contract tenfold, and its X stays
    sweeps = _counting_sweeps(monkeypatch)
    exact = bessel_m_closed_form(z)
    assert abs(m_infinity(NUMERIC, z) - exact) <= 1e-10 * abs(exact)
    assert _attempts(sweeps, complex) == (attempts, rejected)


def test_one_z_rays_keep_their_bounds_and_conjugate_symmetry():
    # a lone z with Im sqrt(z) <= _LONE_RAY |sqrt z| sweeps its ray on a
    # scalar state.  Each value lies within its error_bound of the decaying
    # solution sqrt(x) H1_nu(sqrt(z) x), conj z gives the conjugate value,
    # X and bound to the bit, alone and in a stack, and the same z in a
    # stack agrees with it within both bounds
    rng = np.random.default_rng(20261034)
    for _ in range(24):
        nu, ell = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        ev = MFunctionEvaluator(Potential.bessel(nu, ell))
        # sqrt z = r e^(i phi) with sin(phi) below the threshold, in either half-plane
        phi = rng.uniform(0.01, math.asin(mfunc._LONE_RAY))
        z = complex(cmath.rect(rng.uniform(0.5, 3.0), phi) ** 2)
        z = z if rng.random() < 0.5 else z.conjugate()
        assert mfunc._directions(ev.potential, [z], ev.tol)[0] != 1.0
        info = m_infinity_info(ev, z)
        assert abs(info.value - _bessel_m_oracle(nu, ell, z)) <= info.error_bound, (nu, ell, z)
        mirror = m_infinity_info(ev, z.conjugate())
        assert mirror == info._replace(value=info.value.conjugate())
        stack = [z, -1.0 + 0j, 1j, 2.0 - 0.5j, -3.0 + 0.2j]
        batch = m_infinity_batch(ev, stack)
        mirrored = m_infinity_batch(ev, [w.conjugate() for w in stack])
        assert list(mirrored) == [b._replace(value=b.value.conjugate()) for b in batch]
        assert abs(batch[0].value - info.value) <= batch[0].error_bound + info.error_bound


@pytest.mark.parametrize("nu, z", [
    (1.5, 1e6 + 1j), (1.5, 1e8 + 1e3j), (1.5, 1e12 + 1e6j), (1.5, 5e25 + 1e20j),
    (9.5, 1e16 + 1e8j), (9.5, 5e25 + 1e20j),
])
def test_a_one_z_sweep_at_high_energy_rides_its_ray(monkeypatch, nu, z):
    # on the real axis psi decays only at Im sqrt(z), so these took 13,543 to
    # 17.2 M RHS calls (6.8 s at 5e25+1e20i); along the ray it decays at
    # |sqrt z|, and each takes a few dozen.  On bessel(3/2, 100) the ray of
    # 5e25+1e20i is refused (it would first reach within 2048 float spacings
    # of ell), so that z keeps its long real-axis sweep
    nfev = _counting_stepper(monkeypatch)
    info = m_infinity_info(MFunctionEvaluator(Potential.bessel(nu, 1.0)), z)
    assert nfev and sum(nfev) < 2_500
    assert abs(info.value - half_integer_bessel_m(nu, 1.0, z)) <= info.error_bound
    assert mfunc._directions(Potential.bessel(1.5, 100.0), [5e25 + 1e20j], 1e-8) == [1.0]


@pytest.mark.parametrize("batch, most, most_rejected", [
    ("verify-example", 120, 2),
    ("classify", 120, 2),
], ids=["verify-example", "classify"])
def test_stacked_sweeps_toward_minus_zero_reject_almost_no_step(monkeypatch, batch, most,
                                                                most_rejected):
    # the columns at z = -10^-k set the shared step over s in [1e-5, 1e-2];
    # the standard controller made 222 and 260 attempts here, 50 and 45 of
    # them rejected, and the real-axis sweep of the off-axis columns 174 and
    # 218 (108 each on their rays).  The example suite's batch is its check
    # points and both limit ladders
    zs = (((1j, -1.0 + 1j, 2.0 + 0.5j, 1.0 - 1j, -0.5, -1.0, -25.0)
           + mfunc.MINUS_ZERO_LADDER + mfunc.MINUS_INFINITY_LADDER)
          if batch == "verify-example" else _CLASSIFY)
    sweeps = _counting_sweeps(monkeypatch)
    for z, info in zip(zs, m_infinity_batch(NUMERIC, zs)):
        assert abs(info.value - bessel_m_closed_form(z)) <= info.error_bound
    attempts, rejected = _attempts(sweeps, np.ndarray)
    assert 0 < attempts <= most
    assert rejected <= most_rejected


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


def test_a_start_whose_terms_are_negligible_is_not_named_the_cause():
    # on -8 e^-x each WKB term is about 1/(2k) times the last when k < 1/2,
    # so |u3| > |u2|, yet both lie below 1e-20 of k: the start is accurate,
    # and the stepper's own error stands, naming z, as at z = -1.  A start
    # whose |u2| exceeds k keeps its ConvergenceError (the test below)
    ev = MFunctionEvaluator(_exp_well(8.0))
    for z in (-0.1, -0.01, -1.0):
        with pytest.raises(StiffnessError, match=rf"\(z = {z}\)$"):
            m_infinity_info(ev, z)


def test_a_start_whose_terms_do_not_fall_is_a_convergence_error():
    # on q = 1e-3 (2 + sin x), q' is as large as q - z far out, so the WKB
    # series does not fall at X; at -1e-4 and -1e-2 the start lies above
    # +sqrt(q(X) - z), and the backward flow from it runs into a pole, once
    # the stepper's opaque step-size failure.  The other points succeed (the
    # sweep from a loose start need not fail: its gap test decides), each
    # within its bound of a DOP853 reference at rtol 1e-13 whose start lies
    # 80 decay lengths out, where its error no longer reaches ell
    q = lambda x: 1e-3 * (2.0 + math.sin(x))
    ev = MFunctionEvaluator(Potential.expression(q, 1.0, label="sine"))
    zs = [-1e-6, -1e-4, -1e-3, -1e-2, -0.1]
    batch = m_infinity_batch(ev, zs)
    for z in (-1e-4, -1e-2):
        with pytest.raises(ConvergenceError, match=r"WKB start at X = \S+ does not fall .* "
                           rf"ran into a pole \(z = {z}\)$"):
            m_infinity_info(ev, z)
        _raises_its_own_error(batch, z, ConvergenceError, lambda: m_infinity_info(ev, z))
    for z in (-1e-6, -1e-3, -0.1):
        top = 1.0 + 80.0 / math.sqrt(3e-3 - z)
        ref = solve_ivp(lambda x, u: [q(x) - z - u[0] * u[0]], (top, 1.0),
                        [-math.sqrt(q(top) - z)], method="DOP853", rtol=1e-13, atol=1e-15)
        exact = -ref.y[0, -1]
        info = m_infinity_info(ev, z)
        assert abs(info.value - exact) <= info.error_bound
        assert batch.at(z) == info


def test_riccati_free_potential():
    ev = MFunctionEvaluator(Potential.free(), mode="numeric")
    assert m_infinity(ev, -1.0) == pytest.approx(1.0)
    assert m_infinity(ev, -4.0) == pytest.approx(2.0)


def test_riccati_constant_potential_oracle():
    # for q = c the decaying solution is exp(-sqrt(c - z) x), so m = sqrt(c - z)
    pot = Potential.expression(lambda x: 25.0, ell=0.0, label="plateau")
    ev = MFunctionEvaluator(pot, mode="numeric")
    assert m_infinity(ev, -30.0).real == pytest.approx(math.sqrt(55.0), rel=1e-8)


@pytest.mark.parametrize("pot", [Potential.bessel(1.5, 1.0), Potential.free()],
                         ids=["bessel", "free"])
@pytest.mark.parametrize("z", [-1e28, -1e34, -1e300, 1e30j, -1e300 + 1j])
def test_huge_z_is_a_domain_error_that_names_z(pot, z):
    # past 1e26 the sweeps are not checked, and at ell = 1 the truncation
    # ell + dist rounds to ell
    ev = MFunctionEvaluator(pot, mode="numeric")
    with pytest.raises(DomainError, match=r"out of the numeric range: \|z\| > 1e\+26") as info:
        m_infinity(ev, z)
    assert f"z = {complex(z)} " in str(info.value)
    batch = m_infinity_batch(ev, [1j, z])
    assert batch[0].value == pytest.approx(m_infinity(ev, 1j))
    with pytest.raises(DomainError, match="out of the numeric range"):
        batch[1]


def test_a_stack_at_a_huge_ell_is_a_domain_error_without_a_warning():
    # the stack's well check evaluates q at x = ell + d, where x * x overflows:
    # no numpy warning, and each column reads the range check's DomainError
    batch = m_infinity_batch(MFunctionEvaluator(Potential.bessel(1.5, 1e300)), [1j, -1.0])
    for j in range(2):
        with pytest.raises(DomainError, match="within 2048 float spacings of ell = 1e"):
            batch[j]


def test_a_truncation_at_the_float_spacing_of_ell_is_a_domain_error():
    # at tol = 0.9 the first truncation at ell = 1e4 is a few float spacings
    ev = MFunctionEvaluator(Potential.bessel(1.5, 1e4), mode="numeric", tol=0.9)
    with pytest.raises(DomainError, match="2048 float spacings"):
        m_infinity(ev, 1e16j)
    assert m_infinity(MFunctionEvaluator(Potential.bessel(1.5, 1e4), mode="numeric"),
                      1e16j) == pytest.approx(half_integer_bessel_m(1.5, 1e4, 1e16j), rel=1e-12)


_LADDERS = list(mfunc.MINUS_ZERO_LADDER) + list(mfunc.MINUS_INFINITY_LADDER)
# the 145 distinct points of `weylsys classify --mode numeric --trials 10 --seed 1`
_CLASSIFY = list(dict.fromkeys(sampled_points(trials=10, seed=1)))


def _bump():
    return Potential.expression(lambda x: 50.0 / (1.0 + (x - 5.0) ** 2), ell=0.0, label="bump")


def _sizing_outcome(out):
    return (type(out), str(out)) if isinstance(out, Exception) else out


@pytest.mark.parametrize("pot, zs, tol", [
    (BESSEL, _CLASSIFY, 1e-8),
    # columns whose sweeps double
    (Potential.bessel(3.5, 0.25), list(NAMED_GRIDS["default"]), 1e-8),
    (BESSEL, parse_grid("re=-5:5:41,im=0.1:10:12:log") + _LADDERS, 1e-8),
    (Potential.free(), list(NAMED_GRIDS["default"]) + _LADDERS, 1e-8),
    (_exp_well(300.0), [-100.0, -1.0, 1j, 2.0 + 1j], 1e-8),
    (_bump(), [3.0 + 10j, 1j, -1.0], 1e-8),
    # two DomainErrors beside rays, one of them near the positive axis
    (BESSEL, [-1e28, 1e30j, 5.0 + 1e-9j, 1j, -2.0], 1e-8),
    # two rays near the positive axis, whose ladders run to x_max along them
    (BESSEL, [5.0 + 1e-9j, 4.0 + 1e-9j], 1e-8),
    # the same z on the real axis fail, so their exponents reach x_max
    (_inverse_square(), [5.0 + 1e-9j, 4.0 + 1e-9j, 1j], 1e-8),
    (Potential.expression(lambda x: -(x**4), ell=1.0, label="-x^4"), [5.0 + 0.1j, 1j, -1.0],
     1e-8),
    (Potential.bessel(1.5, 1e4), [1e16j, 1j, -1.0], 0.9),
    # both real columns double past rung 10 beside rays, and read rung 11
    (Potential.bessel(0.15, 0.43), [-1.0, 1j, 2.0 + 1j, -0.5], 1e-8),
], ids=["classify", "bessel3.5-default", "grid492", "free", "well", "bump", "errors",
        "near-axis", "near-axis-real", "limit-circle", "float-spacing", "real-past-rung-10"])
def test_array_sizing_is_the_scalar_sizing(pot, zs, tol):
    # a stack's columns are sized in one array pass: every distance is the
    # column's own sizing to the bit, and every error has the same class and
    # message.  Alone, a column takes the scalar pass, on the real axis or
    # on its ray (an off-axis Bessel column)
    zs = [complex(z) for z in zs]
    x_max = mfunc._X_MAX_FACTOR * max(pot.ell, 1.0)
    directions = mfunc._directions(pot, zs, tol)
    stacked = mfunc._first_distances(pot, zs, tol, x_max, directions)
    alone = [mfunc._first_distances(pot, [z], tol, x_max, [e])[0]
             for z, e in zip(zs, directions)]
    assert [_sizing_outcome(out) for out in stacked] == [_sizing_outcome(out) for out in alone]


def test_a_stack_is_sized_in_three_calls_of_q():
    # one call for the wells, one for every column's ladder along its own
    # path (the real axis, or its ray), one for the WKB terms on its rungs
    pot = Potential.bessel()
    calls = []
    array_q = pot.array_q
    object.__setattr__(pot, "array_q", lambda x: calls.append(x.size) or array_q(x))
    zs = [complex(z) for z in _CLASSIFY]
    assert len(zs) == 145
    directions = mfunc._directions(pot, zs, 1e-8)
    mfunc._first_distances(pot, zs, 1e-8, mfunc._X_MAX_FACTOR, directions)
    assert len(calls) == 3


def test_a_lone_ray_is_sized_as_in_a_stack():
    # the ray's WKB terms difference complex samples of q, which magnify
    # their rounding, so a lone ray takes the stack's samples: its first X,
    # or error, is the stacked column's to the bit, out to ell = 3e4 and
    # tol = 0.9, where the differences are mostly round-off
    rng = np.random.default_rng(20261035)
    rays = 0
    for _ in range(300):
        pot = Potential.bessel(rng.uniform(0.6, 10.0), 10.0 ** rng.uniform(-1.0, 4.5))
        tol = 10.0 ** rng.uniform(-12.0, math.log10(0.9))
        z = complex(cmath.rect(10.0 ** rng.uniform(-2.0, 12.0), rng.uniform(0.001, 0.46)) ** 2)
        x_max = mfunc._X_MAX_FACTOR * max(pot.ell, 1.0)
        (e,) = mfunc._directions(pot, [z], tol)
        if e == 1.0:
            continue
        rays += 1
        alone = mfunc._first_distances(pot, [z], tol, x_max, [e])
        stacked = mfunc._first_distances(pot, [z, -1.0 + 0j], tol, x_max, [e, 1.0])
        assert _sizing_outcome(alone[0]) == _sizing_outcome(stacked[0]), (pot, tol, z)
    assert rays >= 250


def test_array_sizing_doubles_out_of_a_well_and_past_its_rungs(monkeypatch):
    # the well and bump stacks above take both doubling branches: -300 e^-x
    # at z = -100 has q(ell + d) = -119 <= z at the first d = 0.92, so the
    # well check doubles; the bump potential at 3 + 10i doubles its
    # contraction distance once and reads rung 11, as the real columns -1
    # and -0.5 of bessel(0.15, 0.43) do.  Every stack's predictions reach
    # the top rung, 12, where every doubling by prediction ends, so each of
    # these stacks is sized in one call, with no column sized again alone
    sizing, sized = mfunc._first_distances, []

    def counting_sizing(potential, points, *rest):
        sized.append(len(points))
        return sizing(potential, points, *rest)

    monkeypatch.setattr(mfunc, "_first_distances", counting_sizing)
    well, bump = _exp_well(300.0), _bump()
    first = math.log(1e8) / 20.0
    assert well(first) <= -100.0
    axis = [1.0, 1.0]     # an expression potential's columns stay on the real axis
    assert mfunc._first_distances(well, [-100.0 + 0j, 1j], 1e-8, mfunc._X_MAX_FACTOR,
                                  axis)[0] > first
    z = 3.0 + 10j
    first = math.log(1e8) / (2.0 * sqrt_upper(z).imag)
    sized.clear()
    assert mfunc._first_distances(bump, [z, 1j], 1e-8, mfunc._X_MAX_FACTOR, axis)[0] == 2.0 * first
    assert sized == [2]
    # a ring well at the first X = ell + d of z = -5, where the gap test's
    # prediction at X/2 passes: only the well check moves X out of it
    first = math.log(1e8) / (2.0 * math.sqrt(5.0))
    ring = Potential.expression(lambda x: 10.0 - 40.0 * math.exp(-4.0 * (x - first) ** 2),
                                ell=0.0, label="ring")
    d = mfunc._first_distances(ring, [-5.0 + 0j, 1j], 1e-8, mfunc._X_MAX_FACTOR, axis)[0]
    assert ring(first) < -5.0 < ring(d) and d == 2.0 * first
    pot, zs = Potential.bessel(0.15, 0.43), [-1.0 + 0j, 1j, 2.0 + 1j, -0.5 + 0j]
    sized.clear()
    out = mfunc._first_distances(pot, zs, 1e-8, mfunc._X_MAX_FACTOR,
                                 mfunc._directions(pot, zs, 1e-8))
    assert sized == [4]
    for j in (0, 3):
        assert out[j] == 2.0 * math.log(1e8) / (2.0 * math.sqrt(-zs[j].real))


def test_sizing_doubles_by_prediction_up_to_the_top_rung_only():
    # past rung 12, ell + 2 d, the sweep's own gap test doubles X: a
    # prediction that never passes reads rungs 10, 11 and 12, and the first
    # X - ell is 8 d, however far x_max lies
    read = []

    def failing(i):
        read.append(i)
        return math.inf, True

    dist = mfunc._halve_then_double(BESSEL, -1.0 + 0j, 1.0, 1e-8, 1e6, 50.0, 1.0, failing)
    assert read == [10, 11, 12] and dist == 8.0


def test_sizing_a_stack_calls_the_potential_a_fixed_number_of_times(monkeypatch):
    # the array pass calls q on arrays only, as often for 145 columns as for 13
    calls = []
    call = Potential.__call__

    def counting_call(self, x):
        calls[-1].append(isinstance(x, np.ndarray))
        return call(self, x)

    monkeypatch.setattr(Potential, "__call__", counting_call)
    for stack in (_CLASSIFY[::12], _CLASSIFY):
        calls.append([])
        mfunc._first_distances(BESSEL, stack, 1e-8, mfunc._X_MAX_FACTOR,
                               mfunc._directions(BESSEL, stack, 1e-8))
    assert calls[0] == calls[1] and all(calls[1])


def test_sizing_halves_only_while_the_wkb_terms_fall(monkeypatch):
    # at a small ell and a large nu the series stops falling near ell, where
    # |u3| no longer bounds the start error: halving into that region made
    # 12 of the 25 columns fail their gap test once (three sweeps)
    pot = Potential.bessel(3.5, 0.25)
    nfev = _counting_stepper(monkeypatch)
    zs = list(NAMED_GRIDS["default"])
    for z, info in zip(zs, m_infinity_batch(MFunctionEvaluator(pot), zs)):
        exact = half_integer_bessel_m(3.5, 0.25, z)
        assert abs(info.value - exact) <= info.error_bound
    assert len(nfev) <= 2


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
    assert limit_at_minus_infinity(bessel_m_closed_form) == math.inf


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
