from __future__ import annotations

import math

import numpy as np
import pytest

from weylsys import DomainError, IntegrationError, Potential, load_potential_file


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
    with pytest.raises(DomainError):
        Potential.bessel(nu=-1.0)
    with pytest.raises(DomainError):
        Potential.bessel(ell=0.0)


def test_free_potential_is_zero():
    pot = Potential.free()
    assert pot.ell == 0.0
    assert pot(0.0) == 0.0
    assert pot(137.5) == 0.0


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
    # the sampled kind holds its last value beyond the grid on both paths
    xs = pot.ell + np.array([0.0, 0.3, 1.7, 9.0, 9.5, 40.0, 1e6])
    qs = pot(xs)
    assert isinstance(qs, np.ndarray) and qs.shape == xs.shape
    assert qs.tolist() == pytest.approx([pot(float(x)) for x in xs], rel=1e-14, abs=0.0)


def test_sampled_scalar_call_is_the_spline_bit_for_bit():
    # a scalar call sums the spline piece in Python, in the order of scipy's
    # PPoly: at every knot, its float neighbours and random points, below
    # ell and beyond the grid, it equals the array call exactly
    rng = np.random.default_rng(5)
    grid = np.sort(np.concatenate(([0.5], rng.uniform(0.6, 9.0, 40))))
    pot = Potential.sampled(grid, np.sin(grid) + 2.0 / grid**2)
    xs = np.concatenate((grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                         rng.uniform(0.5, 12.0, 500)))
    assert pot(xs).tolist() == [pot(x) for x in xs.tolist()]


def test_array_call_rejects_non_finite_values():
    pot = Potential.expression(lambda x: math.inf if x > 2.0 else 1.0, ell=0.0)
    with pytest.raises(IntegrationError, match="x = 3.0"):
        pot(np.array([1.0, 3.0, 4.0]))


def test_sampled_requires_ascending_grid():
    with pytest.raises(DomainError):
        Potential.sampled([1.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])


def test_dict_roundtrip_for_declarative_kinds():
    for pot in (Potential.bessel(), Potential.free(), Potential.sampled(
            np.linspace(1.0, 4.0, 7), np.zeros(7))):
        back = Potential.from_dict(pot.to_dict())
        assert back.kind == pot.kind
        assert back.ell == pot.ell
        assert back(2.5) == pytest.approx(pot(2.5))


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
