"""Potential coefficients q(x) for half-line Schrödinger expressions.

A :class:`Potential` represents the coefficient of ``l(y) = -y'' + q(x) y``
on ``[ell, inf)``.  Three kinds are supported:

* ``bessel`` -- q(x) = (nu^2 - 1/4) / x^2, requires ``nu > 0`` and
  ``ell > 0``, except that nu = 1/2 (q = 0) allows ``ell = 0``, and
  ``|q(ell)| <= 1e305``, the largest the numeric sweeps handle, with ell^2
  a normal float;
* ``sampled`` -- tabulated (x, q) pairs, interpolated piecewise-cubically and
  held constant beyond the last grid point (documented limitation): scipy
  builds only the not-a-knot spline's coefficients, and every value of q is
  this module's own sum of a spline piece;
* ``expression`` -- an arbitrary callable ``x -> q(x)``.

One chain over the kind, in ``Potential.__post_init__``, validates a
potential and sets every fact the solvers read of it: ``scalar_q`` and
``array_q`` (q of a float and of an array; only the Bessel kind writes q
for arrays, the others map their scalar q), ``closed_form`` (m_inf in
closed form, :func:`half_integer_bessel_m` for a half-integer Bessel nu,
else None), ``knots``, ``analytic``, ``rays``, ``stacks`` and ``stage_q``.  A new kind,
or a new fact of a kind, goes into that chain.

The free potential ``q = 0`` is the Bessel potential with nu = 1/2, so it
has a closed-form m and is written into reports as that kind; a label alone
does not make a potential free.  Nothing reads a written potential back.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = ["Potential", "load_potential_file"]

# the largest |q(ell)| of a Bessel potential: from q(ell) = 1.1e307 on, the
# numeric sweeps end in the stepper's step-size error (a scan, in CHANGES.md)
_Q_ELL_MAX = 1e305


def sqrt_upper(z: complex) -> complex:
    """Square root with the branch cut along [0, inf), arg(z) in [0, 2*pi).

    Maps the upper half-plane into itself and sends ``-s`` to ``i*sqrt(s)``
    for ``s > 0``; real nonnegative arguments keep their usual root.
    """
    w = cmath.sqrt(z)
    return -w if w.imag < 0 else w


def _each_value(scalar_q, x: np.ndarray) -> np.ndarray:
    """q of an array as ``scalar_q`` of each value, in row order, so the first bad x raises."""
    return np.array([scalar_q(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _half_integer(nu: float) -> bool:
    """Whether nu - 1/2 is a non-negative integer n, to within 1e-12."""
    return round(nu - 0.5) >= 0 and abs(nu - 0.5 - round(nu - 0.5)) <= 1e-12


def half_integer_bessel_m(nu: float, ell: float, z: complex) -> complex:
    """m_inf(z) for q = (nu^2 - 1/4)/x^2 on [ell, inf), nu = n + 1/2, n = 0, 1, ...

    psi = sqrt(x) K_nu(k x) with k = sqrt(-z), Re k > 0, so m = n/ell + k r
    with r = K_{nu-1}(t)/K_nu(t) = p_{n-1}(t)/p_n(t) at t = k ell, p_n the
    polynomial factor of K_{n+1/2}: e^-t cancels, so nothing underflows.
    r comes from K_{nu+1} = K_{nu-1} + (2 nu/t) K_nu and K_{-1/2} = K_{1/2};
    each step adds two terms with Re >= 0, and forms 2 nu/t as (2 nu/ell)/k,
    since k ell can overflow where neither factor does.  n = 0 is q = 0:
    m = k for any ell.
    """
    if not _half_integer(nu):
        raise DomainError(f"the closed form needs nu - 1/2 a non-negative integer, got {nu}")
    n = round(nu - 0.5)
    k = -1j * sqrt_upper(z)
    ratio = 1.0
    for j in range(n):
        ratio = 1.0 / (ratio + (2 * j + 1) / ell / k)
    return k * ratio + (n / ell if n else 0.0)


@dataclass(frozen=True)
class Potential:
    """Coefficient q(x) of a half-line Schrödinger expression on [ell, inf).

    The kind chain of ``__post_init__`` validates the fields and sets every
    fact of the potential once, as a plain attribute:

    * ``scalar_q``, q as a callable of a Python float: the scalar Riccati
      sweep calls it at every stage.  Only the expression kind checks that
      its value is finite; the Bessel kind is finite for x >= ell > 0, and
      is the constant 0 when nu = 1/2, also at x = ell = 0; the sampled
      kind's spline of finite values is finite;
    * ``array_q``, q as a callable of an ndarray, elementwise: the Bessel
      kind's own numpy call, and on the other kinds ``scalar_q`` of each
      value in row order, so an array call equals the scalar calls bit for
      bit and the first bad x raises.  No sweep makes such a call on those
      kinds, which sweep one z at a time;
    * ``closed_form``, m_inf as a callable of z,
      ``partial(half_integer_bessel_m, nu, ell)`` for a Bessel potential
      with half-integer nu (the free potential included), else None;
    * ``analytic``, q analytic on [ell, inf) (the Bessel kind, q = 0
      included);
    * ``rays``, q analytic, and psi zero-free, in the sector swept, so that a
      stacked sweep may carry an off-axis column along a complex ray (the
      Bessel kind: psi = sqrt(x) H1_nu(sqrt(z) x) has no zero while
      Im(sqrt(z) x) >= 0).  It also sends a lone z near the positive axis
      onto the scalar ray sweep, whose stages write in q = c / x^2 with c
      from ``stage_q`` (c = 0 for the free potential); a new kind that sets
      ``rays`` must supply its own ray forcing there;
    * ``stacks``, a batch of several z may share one stacked sweep (the
      Bessel kind, the free potential included): its q is one numpy call
      over the stack, and its off-axis columns ride their rays.  Every
      other kind sweeps a batch one z at a time;
    * ``knots``, the sampled grid as floats, where a sweep stops (empty for
      the other kinds);
    * ``stage_q``, a one-z sweep's stage forcing: the float c = nu^2 - 1/4
      of a Bessel q = c / x^2 with c != 0, written into the stages, else
      ``scalar_q`` (at ell = 0 the free sweep reaches x = 0).

    Calling the potential picks ``array_q`` for an ndarray, else ``scalar_q``.
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
        c, knots, closed_form, array_q = 0.0, (), None, None
        if self.kind == "bessel":
            if self.nu is None or not (0.0 < self.nu < math.inf):
                raise DomainError(f"bessel potential requires a finite nu > 0, got {self.nu}")
            c = self.nu * self.nu - 0.25        # q = c / x^2, and q = 0 at nu = 1/2
            if self.ell <= 0 and c != 0.0:
                raise DomainError("bessel potential requires ell > 0 unless nu = 1/2 "
                                  "(the singularity at x = 0 must be excluded)")
            # divided twice: a tiny ell gives inf here, where ell * ell would give 0
            q_ell = abs(c) / self.ell / self.ell if c != 0.0 else 0.0
            if q_ell > _Q_ELL_MAX:
                raise DomainError(f"bessel potential at ell = {self.ell:g}: |q(ell)| = "
                                  f"|nu^2 - 1/4|/ell^2 = {q_ell:.3g} exceeds {_Q_ELL_MAX:g}, "
                                  "the largest the numeric sweeps handle")
            if c != 0.0 and self.ell * self.ell < sys.float_info.min:
                raise DomainError(f"bessel potential at ell = {self.ell:g}: |q(ell)| = "
                                  f"|nu^2 - 1/4|/ell^2 has ell^2 = {self.ell * self.ell:.3g}, "
                                  f"below the smallest normal float {sys.float_info.min:.3g}, "
                                  "where the numeric sweeps cannot resolve ell")
            if c == 0.0:    # c / (x * x) would be 0/0 at x = 0
                scalar_q, array_q = lambda x: 0.0, lambda x: np.zeros(x.shape)
            else:
                scalar_q = array_q = lambda x: c / (x * x)
            if _half_integer(self.nu):
                closed_form = partial(half_integer_bessel_m, self.nu, self.ell)
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
            # scipy is imported only here, for the spline's coefficients: the
            # other kinds run on numpy alone
            from scipy.interpolate import CubicSpline
            knots = tuple(grid.tolist())
            pieces, end, last = (CubicSpline(grid, values).c.T.tolist(), knots[-1],
                                 float(values[-1]))

            def scalar_q(x):
                # hold the last tabulated value beyond the grid; inside it, the
                # spline piece of x summed in the order of scipy's PPoly, so q
                # equals scipy's spline bit for bit
                if x >= end:
                    return last
                i = min(max(bisect_right(knots, x) - 1, 0), len(knots) - 2)
                c0, c1, c2, c3 = pieces[i]
                d = x - knots[i]
                d2 = d * d
                return c3 + c2 * d + c1 * d2 + c0 * (d2 * d)
        elif self.func is None:
            raise DomainError("expression potential requires a callable")
        else:
            func, name = self.func, self.label or self.kind

            def scalar_q(x):
                q = float(func(x))
                if not math.isfinite(q):
                    raise IntegrationError(f"potential {name!r} "
                                           f"returned a non-finite value at x = {x}")
                return q
        bessel = self.kind == "bessel"
        for fact, value in (("scalar_q", scalar_q),
                            ("array_q", array_q or partial(_each_value, scalar_q)),
                            ("closed_form", closed_form), ("knots", knots),
                            ("analytic", bessel), ("rays", bessel), ("stacks", bessel),
                            ("stage_q", c if c != 0.0 else scalar_q)):
            object.__setattr__(self, fact, value)

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
        """The potential q(x) = func(x) on [ell, inf), func a callable of a float.

        Its q is one Python call per value, so a batch sweeps its z one at a
        time (``stacks`` is false), each on the real axis, and each value is
        that of the z alone, bit for bit.
        """
        return cls(kind="expression", ell=float(ell), func=func, label=label)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: float) -> float:
        """q(x) for a float x, or an array of q for an array of x."""
        if type(x) is np.ndarray:
            return self.array_q(x)
        return self.scalar_q(x)

    def __reduce__(self):
        # the facts are closures, which pickle cannot carry: rebuild them from the fields
        return (type(self), (self.kind, self.ell, self.nu, self.grid, self.values,
                             self.func, self.label))

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
