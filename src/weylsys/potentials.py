"""Potential coefficients q(x) for half-line Schrödinger expressions.

A :class:`Potential` represents the coefficient of ``l(y) = -y'' + q(x) y``
on ``[ell, inf)``.  Three kinds are supported:

* ``bessel`` -- q(x) = (nu^2 - 1/4) / x^2, requires ``nu > 0`` and ``ell > 0``;
* ``sampled`` -- tabulated (x, q) pairs, interpolated piecewise-cubically and
  held constant beyond the last grid point (documented limitation);
* ``expression`` -- an arbitrary callable ``x -> q(x)``.

The free potential ``q = 0`` is the expression kind with the label ``"free"``
so that it can round-trip through serialization.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = ["Potential", "load_potential_file"]


@dataclass(frozen=True)
class Potential:
    """Coefficient q(x) of a half-line Schrödinger expression on [ell, inf)."""

    kind: str
    ell: float
    nu: float | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    func: Callable[[float], float] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("bessel", "sampled", "expression"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if not math.isfinite(self.ell) or self.ell < 0:
            raise DomainError(f"ell must be finite and >= 0, got {self.ell}")
        if self.kind == "bessel":
            if self.nu is None or self.nu <= 0:
                raise DomainError("bessel potential requires nu > 0")
            if self.ell <= 0:
                raise DomainError("bessel potential requires ell > 0 "
                                  "(the singularity at x = 0 must be excluded)")
        elif self.kind == "sampled":
            grid = np.asarray(self.grid, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
                raise DomainError("sampled potential needs matching 1-d grid/values "
                                  "with at least two points")
            if not np.all(np.diff(grid) > 0):
                raise DomainError("sampled grid must be strictly ascending")
            if not np.isclose(grid[0], self.ell, rtol=0, atol=1e-12):
                raise DomainError("sampled grid must start at ell")
            if not np.all(np.isfinite(values)):
                raise DomainError("sampled potential values must be finite")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)
            # scipy is imported only here: the other kinds run on numpy alone
            from scipy.interpolate import CubicSpline
            spline = CubicSpline(grid, values)
            object.__setattr__(self, "_spline", spline)
            # the knots and pieces as Python floats, for scalar calls
            object.__setattr__(self, "_knots", grid.tolist())
            object.__setattr__(self, "_pieces", spline.c.T.tolist())
        elif self.func is None:
            raise DomainError("expression potential requires a callable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def bessel(cls, nu: float = 1.5, ell: float = 1.0) -> "Potential":
        """Bessel potential q(x) = (nu^2 - 1/4)/x^2 on [ell, inf)."""
        return cls(kind="bessel", ell=float(ell), nu=float(nu),
                   label=f"bessel({nu})")

    @classmethod
    def free(cls, ell: float = 0.0) -> "Potential":
        """The free potential q = 0 on [ell, inf)."""
        return cls(kind="expression", ell=float(ell), func=lambda x: 0.0,
                   label="free")

    @classmethod
    def sampled(cls, grid, values) -> "Potential":
        grid = np.asarray(grid, dtype=float)
        return cls(kind="sampled", ell=float(grid[0]) if grid.size else 0.0,
                   grid=grid, values=np.asarray(values, dtype=float),
                   label="sampled")

    @classmethod
    def expression(cls, func: Callable[[float], float], ell: float,
                   label: str = "expression") -> "Potential":
        return cls(kind="expression", ell=float(ell), func=func, label=label)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: float) -> float:
        """q(x) for a float x, or an array of q for an array of x."""
        if type(x) is np.ndarray:
            return self._sample(x)
        if self.kind == "bessel":
            q = (self.nu * self.nu - 0.25) / (x * x)
        elif self.kind == "sampled":
            # hold the last tabulated value beyond the grid; inside it, the
            # spline piece of x summed in the order of scipy's PPoly, so a
            # scalar call equals the array call bit for bit
            knots = self._knots
            if x >= knots[-1]:
                q = float(self.values[-1])
            else:
                i = min(max(bisect_right(knots, x) - 1, 0), len(knots) - 2)
                c0, c1, c2, c3 = self._pieces[i]
                d = x - knots[i]
                d2 = d * d
                q = c3 + c2 * d + c1 * d2 + c0 * (d2 * d)
        else:
            q = float(self.func(x))
        if not math.isfinite(q):
            raise IntegrationError(f"potential {self.label or self.kind!r} "
                                   f"returned a non-finite value at x = {x}")
        return q

    def _sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "bessel":
            q = (self.nu * self.nu - 0.25) / (x * x)
        elif self.kind == "sampled":
            end = self.grid[-1]
            q = np.where(x >= end, self.values[-1], self._spline(np.minimum(x, end)))
        else:
            q = np.array([float(self.func(xi)) for xi in x.flat]).reshape(x.shape)
        bad = ~np.isfinite(q)
        if bad.any():
            raise IntegrationError(f"potential {self.label or self.kind!r} returned a "
                                   f"non-finite value at x = {x[bad].flat[0]}")
        return q

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "bessel":
            return {"kind": "bessel", "nu": self.nu, "ell": self.ell}
        if self.kind == "sampled":
            return {"kind": "sampled", "grid": self.grid.tolist(),
                    "values": self.values.tolist(), "ell": self.ell}
        if self.label == "free":
            return {"kind": "expression", "label": "free", "ell": self.ell}
        raise DomainError("expression potentials (other than the free one) "
                          "cannot be serialized")

    @classmethod
    def from_dict(cls, data: dict) -> "Potential":
        kind = data.get("kind")
        if kind == "bessel":
            return cls.bessel(nu=data["nu"], ell=data["ell"])
        if kind == "sampled":
            return cls.sampled(data["grid"], data["values"])
        if kind == "expression" and data.get("label") == "free":
            return cls.free(ell=data.get("ell", 0.0))
        raise DomainError(f"cannot reconstruct potential from {data!r}")


def load_potential_file(path, ell: float | None = None) -> Potential:
    """Load a sampled potential from a two-column text file.

    Columns are whitespace-separated ``x  q(x)`` pairs; ``#`` starts a
    comment.  The grid must be strictly ascending; its first point is taken
    as ``ell`` unless one is supplied (in which case they must agree).
    """
    xs, qs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns, "
                                  f"got {len(parts)}")
            try:
                xs.append(float(parts[0]))
                qs.append(float(parts[1]))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
    if not xs:
        raise DomainError(f"{path}: no data rows")
    pot = Potential.sampled(xs, qs)
    if ell is not None and not math.isclose(pot.ell, ell, rel_tol=0, abs_tol=1e-12):
        raise DomainError(f"{path}: grid starts at {pot.ell}, not at ell={ell}")
    return pot
