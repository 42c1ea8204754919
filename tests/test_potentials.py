from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from weylsys import (DomainError, IntegrationError, MFunctionEvaluator, Potential,
                     load_potential_file, m_infinity, m_infinity_batch, m_infinity_info)
from weylsys import potentials
from weylsys.mfunc import NAMED_GRIDS, half_integer_bessel_m


def test_bessel_values():
    pot = Potential.bessel()
    assert pot.kind == "bessel"
    assert pot.ell == 1.0
    # q(x) = (nu^2 - 1/4) / x^2 = 2 / x^2 for nu = 3/2
    assert pot(1.0) == pytest.approx(2.0)
    assert pot(2.0) == pytest.approx(0.5)
    assert pot(10.0) == pytest.approx(0.02)


def test_bessel_general_nu():
    pot = Potential.bessel(nu=2.5, ell=2.0)
    assert pot(2.0) == pytest.approx((2.5**2 - 0.25) / 4.0)


def test_bessel_rejects_bad_parameters():
    for nu in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="finite nu > 0"):
            Potential.bessel(nu=nu)
    with pytest.raises(DomainError):
        Potential.bessel(ell=0.0)
    with pytest.raises(DomainError, match="ell > 0 unless nu = 1/2"):
        Potential.bessel(1.5, 0.0)


@pytest.mark.parametrize("nu, ell", [(1.5, 1e-300), (1.5, 1e-320), (10.5, 1e-153),
                                     (10.5, 2e-154), (0.3, 1e-160), (0.5000001, 1.01e-156)])
def test_bessel_rejects_a_q_ell_the_sweeps_cannot_hold(nu, ell):
    # q(ell) = (nu^2 - 1/4)/ell^2 past the limit, or past the float range,
    # where ell * ell underflows to 0, or an ell * ell below the smallest
    # normal float (a q(ell) within the limit, for nu near 1/2): a DomainError
    # naming ell, not a ZeroDivisionError, nan or the stepper's step-size
    # error later
    with pytest.raises(DomainError, match=f"at ell = {ell:g}: " + r"\|q\(ell\)\| = "):
        Potential.bessel(nu, ell)
    # free (q = 0) stays allowed at every ell
    assert Potential.free(ell)(ell) == 0.0


@pytest.mark.parametrize("nu", [1.5, 4.5, 10.5])
def test_a_bessel_q_ell_just_inside_the_limit_keeps_its_bound(nu):
    c = nu * nu - 0.25
    ell = 1.01 * math.sqrt(c / potentials._Q_ELL_MAX)
    ev = MFunctionEvaluator(Potential.bessel(nu, ell), mode="numeric")
    zs = [1j, -1.0, 2.0 + 1j]
    batch = m_infinity_batch(ev, zs)
    for j, z in enumerate(zs):
        exact = half_integer_bessel_m(nu, ell, z)
        for info in (m_infinity_info(ev, z), batch[j]):
            assert abs(info.value - exact) <= info.error_bound


def test_bessel_half_allows_ell_zero():
    # q = (1/4 - 1/4)/x^2 is 0 everywhere, x = 0 included, so ell = 0 is valid
    pot = Potential.bessel(0.5, 0.0)
    assert (pot.kind, pot.nu, pot.ell) == ("bessel", 0.5, 0.0)
    assert pot(0.0) == 0.0


def test_free_potential_is_zero():
    pot = Potential.free()
    assert (pot.kind, pot.nu, pot.ell, pot.label) == ("bessel", 0.5, 0.0, "free")
    assert pot(0.0) == 0.0
    assert pot(137.5) == 0.0
    q = pot(np.array([[0.0, 0.5], [2.0, 137.5]]))
    assert q.shape == (2, 2) and np.all(q == 0.0)


def test_expression_potential():
    pot = Potential.expression(lambda x: 25.0, ell=0.0, label="constant")
    assert pot(3.0) == 25.0
    with pytest.raises(IntegrationError):
        Potential.expression(lambda x: math.nan, ell=0.0)(1.0)


def test_sampled_potential_interpolates_and_extends():
    grid = np.linspace(1.0, 10.0, 40)
    vals = 2.0 / grid**2
    pot = Potential.sampled(grid, vals)
    # nodes are reproduced exactly, off-node values to spline accuracy
    assert pot(grid[7]) == pytest.approx(vals[7], rel=1e-12)
    assert pot(2.0) == pytest.approx(0.5, rel=1e-4)
    # constant extension past the last node
    assert pot(50.0) == pytest.approx(vals[-1])


@pytest.mark.parametrize("pot", [
    Potential.bessel(2.5, 0.5),
    Potential.sampled(np.linspace(1.0, 10.0, 40), 2.0 / np.linspace(1.0, 10.0, 40) ** 2),
    Potential.expression(lambda x: math.exp(-x), ell=0.0, label="exp"),
    Potential.free(),
], ids=["bessel", "sampled", "expression", "free"])
def test_array_call_matches_the_scalar_call(pot):
    # bit for bit, inside the sampled grid, on its knots and beyond the last
    # knot, where the sampled kind holds its last value on both paths; a
    # float call is the scalar q the Riccati sweep binds
    xs = pot.ell + np.array([0.0, 0.3, 1.7, 9.0, 9.5, 40.0, 1e6])
    if pot.grid is not None:
        xs = np.concatenate((xs, pot.grid, np.nextafter(pot.grid, np.inf)))
    qs = pot(xs)
    assert isinstance(qs, np.ndarray) and qs.shape == xs.shape
    assert qs.tolist() == [pot.scalar_q(x) for x in xs.tolist()]
    assert qs.tolist() == [pot(x) for x in xs.tolist()]


def test_sampled_scalar_call_is_the_spline_bit_for_bit():
    # a scalar call sums the spline piece in Python, in the order of scipy's
    # PPoly: at every knot, its float neighbours and random points, below
    # ell and beyond the grid, where the last value is held, it equals
    # scipy's spline exactly, and so does the array call
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(5)
    grid = np.sort(np.concatenate(([0.5], rng.uniform(0.6, 9.0, 40))))
    values = np.sin(grid) + 2.0 / grid**2
    pot = Potential.sampled(grid, values)
    xs = np.concatenate((grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                         rng.uniform(0.5, 12.0, 500)))
    spline = np.where(xs >= grid[-1], values[-1],
                      CubicSpline(grid, values)(np.minimum(xs, grid[-1])))
    assert [pot(x) for x in xs.tolist()] == spline.tolist()
    assert pot(xs).tolist() == spline.tolist()


def test_array_call_rejects_non_finite_values():
    pot = Potential.expression(lambda x: math.inf if x > 2.0 else 1.0, ell=0.0)
    with pytest.raises(IntegrationError, match="x = 3.0"):
        pot(np.array([1.0, 3.0, 4.0]))
    # a 2-D call keeps its shape and names the first bad x in row order,
    # the order of the stacked sweep's stages
    assert pot(np.array([[1.0, 0.5], [2.0, 1.5]])).shape == (2, 2)
    with pytest.raises(IntegrationError, match="x = 4.0"):
        pot(np.array([[1.0, 4.0], [3.0, 1.5]]))


def test_no_sweep_calls_q_on_an_array_of_a_table_or_an_expression():
    # those kinds sweep one z at a time, on their scalar q: over the
    # classify-default grid no array call is made
    grid = np.linspace(1.0, 60.0, 400)
    for pot in (Potential.sampled(grid, 2.0 / grid**2),
                Potential.expression(lambda x: 2.0 / (x * x), 1.0)):
        calls = []
        array_q = pot.array_q
        object.__setattr__(pot, "array_q", lambda x: calls.append(x.size) or array_q(x))
        batch = m_infinity_batch(MFunctionEvaluator(pot), NAMED_GRIDS["classify-default"])
        assert len(batch) == 102 and calls == []


def test_sampled_requires_ascending_grid():
    with pytest.raises(DomainError):
        Potential.sampled([1.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])


def test_a_label_does_not_make_a_potential_free():
    # the free potential is bessel(1/2): a plateau labelled "free" has no
    # closed form, its m(-1) is sqrt(26), and it does not serialize
    plateau = Potential.expression(lambda x: 25.0, 0.0, label="free")
    assert not MFunctionEvaluator.has_closed_form(plateau)
    with pytest.raises(DomainError, match="closed_form mode needs"):
        MFunctionEvaluator(plateau, mode="closed_form")
    assert m_infinity(MFunctionEvaluator(plateau), -1.0) == pytest.approx(math.sqrt(26.0))
    with pytest.raises(DomainError, match="cannot be serialized"):
        plateau.to_dict()
    free = Potential.free(2.0)
    assert MFunctionEvaluator.has_closed_form(free)
    assert free.to_dict() == {"kind": "bessel", "nu": 0.5, "ell": 2.0}


@pytest.mark.parametrize("z", [-1.0, 2.0 + 1j])
def test_a_non_finite_value_inside_the_sweep_names_x(z):
    # the NaN band lies between the points the truncation sizing samples, so
    # only the sweep's own scalar q can meet it
    pot = Potential.expression(lambda x: math.nan if 1.45 < x < 1.55 else 2.0 / x**2,
                               ell=1.0, label="gap")
    ev = MFunctionEvaluator(pot)
    with pytest.raises(IntegrationError, match="'gap' returned a non-finite value") as exc:
        m_infinity_info(ev, z)
    x, at = str(exc.value).rsplit("x = ", 1)[1].split(" ", 1)
    assert 1.45 < float(x) < 1.55 and at == f"(z = {_named(z)})"
    # a stacked batch meets it at a stage abscissa: each entry raises, naming x and its z
    batch = m_infinity_batch(ev, [z, 2.0 * z])
    for i in range(2):
        with pytest.raises(IntegrationError, match="'gap' returned a non-finite value") as exc:
            batch[i]
        x, at = str(exc.value).rsplit("x = ", 1)[1].split(" ", 1)
        assert 1.45 < float(x) < 1.55 and at == f"(z = {_named(z * (1 + i))})"


def _named(z):
    """z as an error message names it: a real z as a float."""
    return z.real if complex(z).imag == 0.0 else z


def test_declarative_kinds_pickle():
    # the scalar q and the sweep facts are rebuilt on unpickling from the fields
    for pot in (Potential.bessel(2.5, 0.5), Potential.free(1.0), Potential.sampled(
            np.linspace(1.0, 4.0, 7), np.linspace(1.0, 4.0, 7) ** -2)):
        back = pickle.loads(pickle.dumps(pot))
        assert ((back.kind, back.nu, back.ell, back.label)
                == (pot.kind, pot.nu, pot.ell, pot.label))
        assert back.scalar_q(2.5) == pot.scalar_q(2.5)
        assert ((back.analytic, back.rays, back.stacks, back.knots)
                == (pot.analytic, pot.rays, pot.stacks, pot.knots))
        assert (back.stage_q is back.scalar_q) == (pot.stage_q is pot.scalar_q)
        assert back.stage_q is back.scalar_q or back.stage_q == pot.stage_q


def test_the_sweep_facts_of_each_kind():
    # analytic, rays (psi zero-free in the sector a stacked column sweeps),
    # stacks (a batch may share one stacked sweep), the knots a sweep stops
    # on, and the forcing of a one-z sweep's stages: a Bessel c written in,
    # or the scalar q
    grid = np.linspace(1.0, 4.0, 7)
    bessel, free = Potential.bessel(2.5, 0.5), Potential.free(0.0)
    sampled = Potential.sampled(grid, grid ** -2)
    expression = Potential.expression(lambda x: 2.0 / (x * x), 1.0)
    assert [p.analytic for p in (bessel, free, sampled, expression)] == [
        True, True, False, False]
    assert [p.rays for p in (bessel, free, sampled, expression)] == [True, True, False, False]
    assert [p.stacks for p in (bessel, free, sampled, expression)] == [
        True, True, False, False]
    assert sampled.knots == tuple(grid.tolist())
    assert bessel.knots == free.knots == expression.knots == ()
    assert bessel.stage_q == 2.5 * 2.5 - 0.25 == bessel(1.0)
    for pot in (free, sampled, expression):
        assert pot.stage_q is pot.scalar_q
    assert free.stage_q(0.0) == 0.0


def test_the_closed_form_is_a_fact_of_the_potential():
    # a Bessel potential with half-integer nu (to within 1e-12; the free one
    # at any ell) carries m_inf in closed form; no other potential does, and
    # the evaluator reads nothing else
    grid = np.linspace(1.0, 4.0, 7)
    closed = [Potential.free(0.0), Potential.free(1.0), Potential.bessel(1.5, 1.0),
              Potential.bessel(2.5 + 1e-13, 0.7)]
    others = [Potential.bessel(2.5 + 1e-11, 0.7), Potential.bessel(0.3, 1.0),
              Potential.sampled(grid, grid ** -2),
              Potential.expression(lambda x: 2.0 / (x * x), 1.0)]
    for pot in closed:
        assert pot.closed_form is not None
        assert MFunctionEvaluator.has_closed_form(pot)
        for z in (1j, -1.0, 2.0 + 1j):
            assert repr(pot.closed_form(z)) == repr(half_integer_bessel_m(pot.nu, pot.ell, z))
    for pot in others:
        assert pot.closed_form is None
        assert not MFunctionEvaluator.has_closed_form(pot)


def test_expression_potential_does_not_serialize():
    pot = Potential.expression(lambda x: x, ell=0.0, label="ramp")
    with pytest.raises(DomainError):
        pot.to_dict()


def test_load_potential_file(tmp_path):
    path = tmp_path / "pot.dat"
    xs = np.linspace(1.0, 8.0, 30)
    lines = ["# columns: x q(x)"]
    lines += [f"{x} {2.0 / x**2}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    pot = load_potential_file(path)
    assert pot.ell == pytest.approx(1.0)
    assert pot(3.0) == pytest.approx(2.0 / 9.0, rel=1e-5)


def test_load_potential_file_ell_mismatch(tmp_path):
    path = tmp_path / "pot.dat"
    path.write_text("\n".join(f"{x} 0.0" for x in np.linspace(2.0, 5.0, 10)))
    with pytest.raises(DomainError):
        load_potential_file(path, ell=1.0)
