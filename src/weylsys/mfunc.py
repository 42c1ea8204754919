"""Weyl-Titchmarsh functions m_inf(z) and m_alpha(z) on the half-line.

Conventions
-----------
The fundamental solutions of ``-y'' + q y = z y`` carry the boundary data ::

    phi_alpha(ell) = sin(alpha),   phi_alpha'(ell) = -cos(alpha),
    theta_alpha(ell) = cos(alpha), theta_alpha'(ell) = sin(alpha),

so ``alpha = pi`` reproduces the reference pair ``phi_1 = phi_pi``
(Dirichlet-normalized, phi_1(ell) = 0, phi_1'(ell) = 1) and
``phi_2 = theta_pi`` (phi_2(ell) = -1, phi_2'(ell) = 0).  The
Weyl-Titchmarsh function m_alpha(z) is the unique coefficient making
``theta_alpha + m_alpha phi_alpha`` square-integrable at infinity
(limit-point case); for the decaying solution ``psi`` this means
``m_inf(z) = -psi'(ell)/psi(ell)``.

The square root uses the branch with argument in ``[0, 2*pi)``
(``Im sqrt(z) >= 0``), which is the unique choice giving conjugate
symmetry ``m(conj z) = conj(m(z))`` and the Herglotz sign of ``-m``.

Numeric path
------------
Every z off [0, inf) takes one route: backward integration of the Riccati
equation ``u' = q - z - u^2`` for ``u = psi'/psi``, so that
``m_inf = -u(ell)``.  Off the real axis psi has no zero on [ell, inf) (a
zero would be a Dirichlet eigenfunction with a non-real eigenvalue), so u
has no pole, and it does not oscillate.  The sweep starts at the decaying
fixed point ``u(X) = -sqrt(q(X) - z)`` (the root with positive real part),
which the backward flow attracts at the rate ``2 Re sqrt(q - z)``; forward
integration would be exponentially unstable.

* Truncation.  A start error shrinks like ``exp(-2 kappa (X - ell))`` with
  the decay rate ``kappa = Im sqrt_upper(z)``, which is ``sqrt|z|`` on the
  negative axis.  The first truncation is ``X - ell = ln(1/tol) / (2 kappa)``
  (kappa floored at 1e-3), so the sweep contracts a start error by ``tol``.
  On the real axis, while ``q(X) - z <= 0`` there (a well of q near ell),
  the distance doubles before any solve.
* Off the axis, before any solve, the WKB exponent
  ``2 int Re sqrt(q - z) dx`` up to the largest X is summed from a few
  potential values; below ``ln(1/tol)`` the flow cannot contract enough
  (limit-circle behavior, or z too close to [0, inf)) and
  :class:`ConvergenceError` is raised at once.
* One DOP853 sweep per truncation also carries ``w = int 2u`` and records
  u and w at the midpoint ``X/2 = ell + (X - ell)/2``.  The start error of
  the X/2 truncation, ``|u(X/2) - u_start(X/2)|``, reaches ell damped by
  ``|exp(w(X/2) - w(ell))|``; divided by ``|cos a + u sin a|^2`` it is the
  gap between the X/2 and X answers.  X - ell doubles only while that gap
  exceeds ``max(1e-10, tol * |m|)``.
* ``error_bound`` is that gap plus an integration term,
  ``_INTEGRATION_ERROR (_ATOL + _RTOL |u(ell)|) / |cos a + u sin a|^2``
  with ``_INTEGRATION_ERROR = 100``.  The contraction
  damps the step errors made far from ell, so the global error is a fixed
  multiple of the per-step allowance; the largest multiple seen against
  Bessel oracles (nu in [0.5, 5], both half-planes and the negative axis)
  was 24.

``tol`` on :class:`MFunctionEvaluator` is the only solver option; the ODE
tolerances, the largest X and the number of samples behind a real-axis
limit are the fixed constants below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (ConvergenceError, DomainError, ExtrapolationError,
                     IntegrationError, PoleError, StiffnessError)
from .potentials import Potential

__all__ = [
    "MFunctionEvaluator", "MEvaluation",
    "sqrt_upper", "bessel_m_closed_form", "free_m_closed_form",
    "bessel_neg_m_alpha_closed_form", "bessel_w_closed_form", "check_alpha",
    "m_infinity", "m_infinity_info", "m_alpha", "m_alpha_info",
    "m_alpha_direct", "m_infinity_limit_at_zero",
    "m_infinity_limit_at_minus_infinity", "limit_at_minus_zero",
    "limit_at_minus_infinity", "safe_div", "NAMED_GRIDS",
]

def sqrt_upper(z: complex) -> complex:
    """Square root with the branch cut along [0, inf), arg(z) in [0, 2*pi).

    Maps the upper half-plane into itself and sends ``-s`` to ``i*sqrt(s)``
    for ``s > 0``; real nonnegative arguments keep their usual root.
    """
    w = cmath.sqrt(z)
    return -w if w.imag < 0 else w


def bessel_m_closed_form(z: complex) -> complex:
    """m_inf(z) = 1 - i z / (sqrt(z) + i) for the Bessel potential nu=3/2, ell=1."""
    return 1 - 1j * z / (sqrt_upper(z) + 1j)


def free_m_closed_form(z: complex) -> complex:
    """m_inf(z) = -i sqrt(z) for the free potential q = 0.

    With the fixed branch this equals ``+sqrt(s)`` at ``z = -s`` (s > 0),
    so ``-m`` is Herglotz and the negative-axis values are positive.
    """
    return -1j * sqrt_upper(z)


def bessel_neg_m_alpha_closed_form(alpha: float, z: complex) -> complex:
    """Explicit -m_alpha(z) for the Bessel 3/2 example.

    -m_alpha = ((sqrt(z)-iz+i) cos(a) + (sqrt(z)+i) sin(a))
             / ((sqrt(z)-iz+i) sin(a) - (sqrt(z)+i) cos(a)).
    """
    w = sqrt_upper(z)
    p = w - 1j * z + 1j          # = m_inf * (sqrt(z) + i)
    r = w + 1j
    sa, ca = _alpha_data(alpha)
    return safe_div(p * ca + r * sa, p * sa - r * ca, z=z,
                    what="closed-form -m_alpha")


def bessel_w_closed_form(z: complex) -> complex:
    """Transfer function of the mu = inf, h = i system in the Bessel example.

    W(z) = ((1-i) sqrt(z) - iz + 1+i) / ((1+i) sqrt(z) - iz - 1+i).
    """
    w = sqrt_upper(z)
    num = (1 - 1j) * w - 1j * z + 1 + 1j
    den = (1 + 1j) * w - 1j * z - 1 + 1j
    return safe_div(num, den, z=z, what="closed-form transfer function")


def safe_div(num: complex, den: complex, z: complex | None = None,
             what: str = "expression") -> complex:
    """Division that raises :class:`PoleError` near vanishing denominators.

    The threshold is ``1e-13 * max(1, |num|)`` (relative to the numerator
    scale) so huge finite values are never fabricated next to a pole.
    """
    if abs(den) < 1e-13 * max(1.0, abs(num)):
        loc = f" at z = {z}" if z is not None else ""
        raise PoleError(f"denominator of {what} vanishes{loc}", z=z)
    return num / den


def _alpha_data(alpha: float) -> tuple[float, float]:
    """(sin(alpha), cos(alpha)) with exact values at the pi/2 and pi corners."""
    if alpha == math.pi:
        return 0.0, -1.0
    if alpha == math.pi / 2:
        return 1.0, 0.0
    return math.sin(alpha), math.cos(alpha)


def check_alpha(alpha: float) -> None:
    """Raise DomainError unless the boundary angle alpha lies in (0, pi]."""
    if not (0.0 < alpha <= math.pi + 1e-12):
        raise DomainError(f"alpha must lie in (0, pi], got {alpha}")


# ---------------------------------------------------------------------------
# solver constants
# ---------------------------------------------------------------------------

_RTOL = 1e-10                 # DOP853 relative tolerance of a Riccati sweep
_ATOL = 1e-12                 # DOP853 absolute tolerance of a Riccati sweep
_X_MAX_FACTOR = 2.0 ** 20     # truncation X stops at this times max(ell, 1)
_EXTRAPOLATION_POINTS = 8     # K samples -10**(-k) / -10**k of a real-axis limit
_PLATEAU_TOL = 1e-10          # relative plateau of an extrapolated sequence
_DIVERGENCE_GUARD = 1e12      # a limit sample beyond this reads as divergent
_INTEGRATION_ERROR = 100.0    # global DOP853 error of a sweep, in _RTOL |u(ell)| + _ATOL


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")


def _map_ivp_failure(sol) -> None:
    if sol.status == -1:
        msg = sol.message or "integration failed"
        if "step size" in msg.lower():
            raise StiffnessError(msg)
        raise IntegrationError(msg)


# ---------------------------------------------------------------------------
# backward Riccati path (every z off [0, inf))
# ---------------------------------------------------------------------------

def _check_contraction(potential: Potential, z: complex, dist: float,
                       x_max: float, target: float) -> None:
    """Raise ConvergenceError unless the backward flow can contract by e^-target.

    The WKB exponent ``2 int_ell^x_max Re sqrt(q - z) dx`` is summed by the
    trapezoid rule over ell and the ladder ``ell + dist 2^j``, j >= -10,
    which holds every planned truncation X: one potential call per rung.
    """
    ell = potential.ell
    xs = [ell]
    dist /= 1024.0
    while ell + dist <= x_max:
        xs.append(ell + dist)
        dist *= 2.0
    rates = [cmath.sqrt(potential(x) - z).real for x in xs]
    exponent = sum((b - a) * (ra + rb)
                   for a, b, ra, rb in zip(xs, xs[1:], rates, rates[1:]))
    if exponent < target:
        raise ConvergenceError(
            f"the backward Riccati flow contracts by only e^-{exponent:.3g} "
            f"up to X_max = {x_max:g} at z = {z}; limit-circle behavior, or z "
            "too close to [0, inf)")


def _riccati_m(potential: Potential, alpha: float, z: complex,
               tol: float) -> tuple[complex, float, float]:
    """Return (m_alpha(z), truncation X, error bound) for z off [0, inf)."""
    ell = potential.ell
    real = z.imag == 0.0
    zq = z.real if real else z
    x_max = _X_MAX_FACTOR * max(ell, 1.0)
    # X - ell contracts a start error by tol (module docstring); so close to
    # ell a well of q may dip below z, and only the tail may raise DomainError
    target = math.log(1.0 / tol)
    dist = target / (2.0 * max(sqrt_upper(z).imag, 1e-3))
    if real:
        while potential(ell + dist) - zq <= 0 and ell + 2.0 * dist <= x_max:
            dist *= 2.0
    else:
        _check_contraction(potential, z, dist, x_max, target)
    X = min(ell + dist, x_max)
    sa, ca = _alpha_data(alpha)

    def rhs(x, y):
        u = y[0]
        return (potential(x) - zq - u * u, 2.0 * u)

    while True:
        s = potential(X) - zq
        if real and s <= 0:
            raise DomainError(
                f"q(X) - z = {s:g} <= 0 at X = {X:g}; the real-axis path "
                "requires z strictly below the potential tail "
                "(nonnegative-operator regime)")
        u_start = -cmath.sqrt(s)
        x_half = ell + 0.5 * (X - ell)
        sol = solve_ivp(rhs, (X, ell), [u_start.real if real else u_start, 0.0],
                        method="DOP853", rtol=_RTOL, atol=_ATOL,
                        t_eval=[x_half, ell])
        _map_ivp_failure(sol)
        (u_half, u), (w_half, w) = sol.y
        m = complex(safe_div(sa - u * ca, ca + u * sa, z=zq, what="m_alpha"))
        den2 = abs(ca + u * sa) ** 2
        # the X/2 truncation's start error, carried to ell by the flow
        damping = math.exp(min((w_half - w).real, 700.0))
        gap = abs(u_half + cmath.sqrt(potential(x_half) - zq)) * damping / den2
        if gap <= max(1e-10, tol * abs(m)):
            step_error = _INTEGRATION_ERROR * (_ATOL + _RTOL * abs(u)) / den2
            return m, X, float(gap + step_error)
        dist *= 2.0
        X = ell + dist
        if X > x_max:
            raise ConvergenceError(
                f"Riccati truncation exceeded X_max = {x_max:g} "
                f"without the value settling (z = {zq})")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MEvaluation:
    """A single m-function value plus the diagnostics of its computation.

    ``value`` is a Python complex and ``error_bound`` a Python float: the
    gap of the X/2 truncation plus the integration term (module docstring)
    on the numeric path, and 0 for closed forms.  ``path`` names the
    half-plane for the same sweep: ``"weyl-disk"`` off the real axis (the
    name of the integrator it replaced, which the benchmark's spans key
    on), ``"riccati"`` on the negative axis, or ``"closed-form"``.
    """

    value: complex
    truncation_X: float
    error_bound: float
    path: str


@dataclass(frozen=True)
class MFunctionEvaluator:
    """Immutable evaluator of m_inf(z) for one potential.

    ``mode`` is ``"numeric"`` or ``"closed_form"``; the closed form exists
    only for the Bessel potential with nu = 3/2 and ell = 1.  ``tol`` is the
    truncation tolerance of the numeric path: it sizes the first X, and
    the gap of the X/2 truncation must fall to ``max(1e-10, tol * |m|)``.
    All operations are pure, so concurrent use from several threads is safe.
    """

    potential: Potential
    mode: str = "numeric"
    tol: float = 1e-8

    def __post_init__(self):
        _check_tol(self.tol)
        if self.mode not in ("numeric", "closed_form"):
            raise DomainError(f"unknown evaluator mode {self.mode!r}")
        if self.mode == "closed_form" and not self.has_closed_form(self.potential):
            raise DomainError("closed_form mode is available only for the "
                              "bessel(3/2) potential with ell = 1")

    @staticmethod
    def has_closed_form(potential: Potential) -> bool:
        return (potential.kind == "bessel"
                and math.isclose(potential.nu, 1.5, rel_tol=0, abs_tol=1e-12)
                and math.isclose(potential.ell, 1.0, rel_tol=0, abs_tol=1e-12))


def _check_spectral_point(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite spectral point {z}")
    if z.imag == 0.0 and z.real >= 0.0:
        raise DomainError(f"z = {z} lies on [0, inf); m is not defined there")
    return z


def m_infinity_info(evaluator: MFunctionEvaluator, z: complex) -> MEvaluation:
    """m_inf(z) together with truncation point and error bound."""
    z = _check_spectral_point(z)
    if evaluator.mode == "closed_form":
        return MEvaluation(bessel_m_closed_form(z), math.inf, 0.0, "closed-form")
    m, X, bound = _riccati_m(evaluator.potential, math.pi, z, evaluator.tol)
    return MEvaluation(m, X, bound, "weyl-disk" if z.imag != 0.0 else "riccati")


def m_infinity(evaluator: MFunctionEvaluator, z: complex) -> complex:
    """The Weyl-Titchmarsh function m_inf(z)."""
    return m_infinity_info(evaluator, z).value


def m_alpha_info(evaluator: MFunctionEvaluator, alpha: float,
                 z: complex) -> MEvaluation:
    """m_alpha(z) = (sin a + m cos a) / (cos a - m sin a) with m = m_inf(z).

    The rotation has derivative ``1/(cos a - m sin a)^2`` in m, so the
    bound of m_inf(z) is propagated as ``error_bound / |cos a - m sin a|^2``.
    ``alpha = pi`` returns the m_inf(z) evaluation unchanged, and
    ``alpha = pi/2`` reduces to ``-1/m_inf(z)`` exactly.
    """
    check_alpha(alpha)
    info = m_infinity_info(evaluator, z)
    if alpha == math.pi:
        return info
    sa, ca = _alpha_data(alpha)
    den = ca - info.value * sa
    value = safe_div(sa + info.value * ca, den, z=complex(z), what="m_alpha")
    return replace(info, value=value, error_bound=info.error_bound / abs(den) ** 2)


def m_alpha(evaluator: MFunctionEvaluator, alpha: float, z: complex) -> complex:
    """m_alpha(z); see :func:`m_alpha_info` for the transform."""
    return m_alpha_info(evaluator, alpha, z).value


def m_alpha_direct(potential: Potential, alpha: float, z: complex,
                   tol: float = 1e-8) -> complex:
    """m_alpha(z) from the rotated boundary data, bypassing the transform.

    Applies the boundary data of alpha at ell to the same backward Riccati
    sweep as :func:`m_infinity_info`, with the truncation tolerance ``tol``
    of :class:`MFunctionEvaluator`; agrees with :func:`m_alpha` within the
    combined error bounds.
    """
    _check_tol(tol)
    check_alpha(alpha)
    z = _check_spectral_point(z)
    return _riccati_m(potential, alpha, z, tol)[0]


# ---------------------------------------------------------------------------
# real-axis limits
# ---------------------------------------------------------------------------

def _aitken_sweep(seq: list[float]) -> list[float]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        d2 = c - 2.0 * b + a
        if abs(d2) < 1e-14 * max(abs(a), abs(b), abs(c), 1e-300):
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / d2)
    return out


def _extrapolate(vals: list[float]) -> float:
    scale = max(1.0, max(abs(v) for v in vals))
    slack = max(1e-12 * scale, _PLATEAU_TOL * scale)
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    rising = any(d > slack for d in diffs)
    falling = any(d < -slack for d in diffs)
    if rising and falling:
        raise ExtrapolationError(
            "sampled sequence is not monotone; the limit-point/limit-circle "
            f"assumption may fail (samples: {vals})")
    # divergence: overflow guard, or persistently non-contracting increments
    if abs(vals[-1]) > _DIVERGENCE_GUARD:
        return math.copysign(math.inf, vals[-1])
    ratios = [abs(b) / abs(a) for a, b in zip(diffs, diffs[1:])
              if abs(a) > slack and abs(b) > slack]
    if len(ratios) >= 3 and sorted(ratios[-3:])[1] >= 0.95:
        return math.inf if rising else -math.inf
    if abs(diffs[-1]) <= slack:
        return vals[-1]
    seq = list(vals)
    best = seq[-1]
    while len(seq) >= 3:
        seq = _aitken_sweep(seq)
        if abs(seq[-1] - best) <= _PLATEAU_TOL * max(1.0, abs(seq[-1])):
            return seq[-1]
        best = seq[-1]
    return best


def _sample_real(f: Callable[[float], complex], x: float) -> float:
    v = complex(f(x))
    if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
        raise ExtrapolationError(
            f"limit samples must be real; got {v} at x = {x}")
    return v.real


def limit_at_minus_zero(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -0 along x_k = -10**(-k), k = 1..8."""
    return _extrapolate([_sample_real(f, -10.0 ** (-k))
                         for k in range(1, _EXTRAPOLATION_POINTS + 1)])


def limit_at_minus_infinity(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -inf along x_k = -10**k, k = 1..8."""
    return _extrapolate([_sample_real(f, -10.0 ** k)
                         for k in range(1, _EXTRAPOLATION_POINTS + 1)])


def m_infinity_limit_at_zero(evaluator: MFunctionEvaluator) -> float:
    """m_inf(-0), the boundary value controlling accretivity thresholds."""
    return limit_at_minus_zero(lambda x: m_infinity(evaluator, x))


def m_infinity_limit_at_minus_infinity(evaluator: MFunctionEvaluator) -> float:
    """Limit of m_inf(x) as x -> -inf (+inf for the operators treated here)."""
    return limit_at_minus_infinity(lambda x: m_infinity(evaluator, x))


# ---------------------------------------------------------------------------
# named evaluation grids
# ---------------------------------------------------------------------------

def _tensor_grid(res, ims) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re in res for im in ims)


_ACCEPTANCE_COMPLEX = (_tensor_grid((-2.0, -1.0, 0.0, 1.0, 2.0), (0.5, 1.0, 2.0))
                       + _tensor_grid((-1.0, 1.0), (-0.5, -1.0)))
_ACCEPTANCE_NEGATIVE = tuple(
    complex(x) for x in (-1e-3, -1e-2, -0.1, -1.0, -10.0, -100.0))

#: The grids the CLI's ``--grid`` flag accepts by name.  ``default`` is the
#: acceptance grid: 19 complex points, four of them below the real axis, and
#: 6 negative reals.  ``classify-default`` is the grid of the Herglotz,
#: Stieltjes and example-suite checks: an 11 x 7 tensor grid with Re z in
#: [-5, 5] and Im z log-spaced in [0.1, 10], then 25 log-spaced reals
#: ascending from -1e6 to -1e-6.
NAMED_GRIDS: dict[str, tuple[complex, ...]] = {
    "default": _ACCEPTANCE_COMPLEX + _ACCEPTANCE_NEGATIVE,
    "complex-default": _ACCEPTANCE_COMPLEX,
    "negative-default": _ACCEPTANCE_NEGATIVE,
    "classify-default": (
        _tensor_grid(np.linspace(-5.0, 5.0, 11), np.logspace(-1.0, 1.0, 7))
        + tuple(complex(-x) for x in np.logspace(6.0, -6.0, 25))),
}
