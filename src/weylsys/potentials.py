"""Potential coefficients q(x) for half-line Schrödinger expressions.

A :class:`Potential` represents the coefficient of ``l(y) = -y'' + q(x) y``
on ``[ell, inf)``.  Three kinds are supported:

* ``bessel`` -- q(x) = (nu^2 - 1/4) / x^2, requires ``nu > 0`` and
  ``ell > 0``, except that nu = 1/2 (q = 0) allows ``ell = 0``;
* ``sampled`` -- tabulated (x, q) pairs, interpolated piecewise-cubically and
  held constant beyond the last grid point (documented limitation);
* ``expression`` -- an arbitrary callable ``x -> q(x)``.

The free potential ``q = 0`` is the Bessel potential with nu = 1/2, so it
has a closed-form m and is written into reports as that kind; a label alone
does not make a potential free.  Nothing reads a written potential back.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = ["Potential", "load_potential_file"]


@dataclass(frozen=True)
class Potential:
    """Coefficient q(x) of a half-line Schrödinger expression on [ell, inf).

    ``scalar_q`` is q as a plain callable of a Python float, built once per
    potential: the scalar Riccati sweep calls it at every stage.  Only the
    expression kind checks that its value is finite; the Bessel kind is
    finite for x >= ell > 0, and is the constant 0 when nu = 1/2, also at
    x = ell = 0; the sampled kind's spline of finite values is finite.
    """

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
            if self.nu is None or not (0.0 < self.nu < math.inf):
                raise DomainError(f"bessel potential requires a finite nu > 0, got {self.nu}")
            if self.ell <= 0 and self.nu * self.nu - 0.25 != 0.0:
                raise DomainError("bessel potential requires ell > 0 unless nu = 1/2 "
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
        elif self.func is None:
            raise DomainError("expression potential requires a callable")
        object.__setattr__(self, "scalar_q", self._build_scalar_q())

    def _build_scalar_q(self) -> Callable[[float], float]:
        """q of a Python float, closed over this potential's parameters as floats."""
        if self.kind == "bessel":
            c = self.nu * self.nu - 0.25
            if c == 0.0:    # c / (x * x) would be 0/0 at x = 0
                return lambda x: 0.0
            return lambda x: c / (x * x)
        if self.kind == "sampled":
            knots = self.grid.tolist()
            pieces = self._spline.c.T.tolist()
            last = float(self.values[-1])

            def sampled_q(x):
                # hold the last tabulated value beyond the grid; inside it, the
                # spline piece of x summed in the order of scipy's PPoly, so a
                # scalar call equals the array call bit for bit
                if x >= knots[-1]:
                    return last
                i = min(max(bisect_right(knots, x) - 1, 0), len(knots) - 2)
                c0, c1, c2, c3 = pieces[i]
                d = x - knots[i]
                d2 = d * d
                return c3 + c2 * d + c1 * d2 + c0 * (d2 * d)
            return sampled_q
        func, name = self.func, self.label or self.kind

        def expression_q(x):
            q = float(func(x))
            if not math.isfinite(q):
                raise IntegrationError(f"potential {name!r} "
                                       f"returned a non-finite value at x = {x}")
            return q
        return expression_q

    # -- constructors -------------------------------------------------------

    @classmethod
    def bessel(cls, nu: float = 1.5, ell: float = 1.0) -> "Potential":
        """Bessel potential q(x) = (nu^2 - 1/4)/x^2 on [ell, inf)."""
        return cls(kind="bessel", ell=float(ell), nu=float(nu),
                   label=f"bessel({nu})")

    @classmethod
    def free(cls, ell: float = 0.0) -> "Potential":
        """The free potential q = 0 on [ell, inf): the Bessel potential with nu = 1/2."""
        return cls(kind="bessel", ell=float(ell), nu=0.5, label="free")

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
        return self.scalar_q(x)

    def __reduce__(self):
        # scalar_q is a closure, which pickle cannot carry: rebuild it from the fields
        return (type(self), (self.kind, self.ell, self.nu, self.grid, self.values,
                             self.func, self.label))

    def _sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "bessel":
            c = self.nu * self.nu - 0.25
            q = np.zeros(x.shape) if c == 0.0 else c / (x * x)
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
        raise DomainError("expression potentials cannot be serialized")


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
