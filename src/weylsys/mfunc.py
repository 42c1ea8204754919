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

Numeric paths
-------------
* ``Im z != 0`` -- forward integration of (theta, phi) with the running
  integral of ``|phi|^2``; the Dirichlet circle point ``-theta(X)/phi(X)``
  approximates m with error at most twice the Weyl-disk radius
  ``radius(X) = (2 |Im z| int_ell^X |phi|^2)^{-1}``.  The truncation X
  doubles until the radius passes the evaluator's ``tol``; solutions are
  rescaled on the fly so growth like e^{kX} cannot overflow.
* ``z < 0`` real -- backward Riccati integration of ``u' = q - z - u^2``
  from the decaying fixed point ``u(X) = -sqrt(q(X) - z)``, which is
  attracting in the backward direction; forward integration would be
  exponentially unstable below the spectrum.  The start error decays like
  ``exp(-2 sqrt|z| (X - ell))``, so the first truncation is
  ``X = ell + 8 / sqrt(max(|z|, 1e-6))``, eight decay lengths; while
  ``q(X) - z <= 0`` there (a well of q near ell) the distance doubles
  before any solve.  Then the distance ``X - ell`` doubles until two
  successive values of m differ by at most ``max(1e-10, tol * |m|)``.

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

_RTOL = 1e-10                 # DOP853 relative tolerance on both paths
_ATOL = 1e-12                 # DOP853 absolute tolerance on both paths
_X_MAX_FACTOR = 2.0 ** 20     # truncation X stops at this times max(ell, 1)
_EXTRAPOLATION_POINTS = 8     # K samples -10**(-k) / -10**k of a real-axis limit
_PLATEAU_TOL = 1e-10          # relative plateau of an extrapolated sequence
_DIVERGENCE_GUARD = 1e12      # a limit sample beyond this reads as divergent
_RESCALE_THRESHOLD = 1e90     # disk solutions are rescaled past this size


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
# Weyl-disk path (Im z != 0)
# ---------------------------------------------------------------------------

def _disk_state_rhs(potential: Potential, z: complex) -> Callable:
    def rhs(x, y):
        qz = potential(x) - z
        phi = y[2]
        return np.array([y[1], qz * y[0], y[3], qz * y[2],
                         phi.real * phi.real + phi.imag * phi.imag],
                        dtype=complex)
    return rhs


def _integrate_rescaled(rhs, y, x0, x1):
    """Advance the 5-component state from x0 to x1, rescaling on overflow.

    Returns ``(y, scale2, J)`` where the stored solution values are the true
    ones divided by ``sqrt(scale2)`` and J is the true accumulated
    ``int |phi|^2`` over the segment.
    """
    threshold = _RESCALE_THRESHOLD

    def too_big(x, y):
        return max(abs(y[0]), abs(y[2])) - 10.0 * threshold
    too_big.terminal = True
    too_big.direction = 1

    scale2 = 1.0
    J = 0.0
    t = x0
    while t < x1:
        sol = solve_ivp(rhs, (t, x1), y, method="DOP853",
                        rtol=_RTOL, atol=_ATOL, events=too_big)
        _map_ivp_failure(sol)
        y = sol.y[:, -1].copy()
        t = sol.t[-1]
        J += scale2 * y[4].real
        y[4] = 0.0
        mag = max(abs(y[0]), abs(y[2]))
        if mag > threshold:
            y /= mag
            scale2 *= mag * mag
    return y, scale2, J


def _weyl_disk_m(potential: Potential, alpha: float, z: complex,
                 tol: float) -> tuple[complex, float, float]:
    """Return (m_alpha(z), disk radius, truncation X) for Im z != 0."""
    ell = potential.ell
    sa, ca = _alpha_data(alpha)
    y = np.array([ca, sa, sa, -ca, 0.0], dtype=complex)
    rhs = _disk_state_rhs(potential, z)
    x_max = _X_MAX_FACTOR * max(ell, 1.0)
    two_im = 2.0 * abs(z.imag)

    X_prev = ell
    X = max(2.0 * ell, ell + 1.0)
    J_total = 0.0
    cumulative_scale2 = 1.0
    radius_prev = math.inf
    ratio_prev = 0.0
    stall = 0
    while X <= x_max:
        y, seg_scale2, seg_J = _integrate_rescaled(rhs, y, X_prev, X)
        # seg_J is true relative to the state at X_prev; undo the global scale
        J_total += cumulative_scale2 * seg_J
        cumulative_scale2 *= seg_scale2
        radius = 1.0 / (two_im * J_total) if J_total > 0 else math.inf
        if abs(y[2]) > 0 and radius <= tol:
            return -y[0] / y[2], radius, X
        if math.isfinite(radius_prev):
            ratio = radius / radius_prev
            # limit point: the per-doubling contraction ratio strictly
            # decreases; a ratio near 1 that stops decreasing means the disk
            # has a positive limit radius (limit circle) or z is effectively
            # on the essential spectrum
            if ratio >= 0.7 and ratio >= ratio_prev - 1e-3:
                stall += 1
                if stall >= 2:
                    raise ConvergenceError(
                        f"Weyl disk radius stopped contracting at {radius:.3e} "
                        f"(X = {X:g}); limit-circle behavior, or z = {z} too "
                        "close to [0, inf)")
            else:
                stall = 0
            ratio_prev = ratio
        radius_prev = radius
        X_prev = X
        X *= 2.0
    raise ConvergenceError(
        f"disk radius {radius_prev:.3e} still above tolerance "
        f"{tol:g} at X_max = {x_max:g} for z = {z}")


# ---------------------------------------------------------------------------
# Riccati path (real z < 0)
# ---------------------------------------------------------------------------

def _riccati_m(potential: Potential, alpha: float, z: float,
               tol: float) -> tuple[float, float, float]:
    """Return (m_alpha(z), truncation X, plateau gap) for real z < 0."""
    ell = potential.ell
    zr = float(z)
    x_max = _X_MAX_FACTOR * max(ell, 1.0)
    # X - ell in decay lengths 1/sqrt|z| (module docstring); so close to ell
    # a well of q may dip below z, and only the tail may raise DomainError
    dist = 8.0 / math.sqrt(max(abs(zr), 1e-6))
    while potential(ell + dist) - zr <= 0 and ell + 2.0 * dist <= x_max:
        dist *= 2.0
    X = min(ell + dist, x_max)
    sa, ca = _alpha_data(alpha)

    def rhs(x, u):
        return (potential(x) - zr - u[0] * u[0],)

    m_prev = None
    while True:
        s = potential(X) - zr
        if s <= 0:
            raise DomainError(
                f"q(X) - z = {s:g} <= 0 at X = {X:g}; the real-axis path "
                "requires z strictly below the potential tail "
                "(nonnegative-operator regime)")
        sol = solve_ivp(rhs, (X, ell), [-math.sqrt(s)], method="DOP853",
                        rtol=_RTOL, atol=_ATOL)
        _map_ivp_failure(sol)
        u = sol.y[0, -1]
        m = safe_div(sa - u * ca, ca + u * sa, z=zr, what="m_alpha").real
        if m_prev is not None:
            gap = abs(m - m_prev)
            if gap <= max(1e-10, tol * abs(m)):
                return m, X, gap
        m_prev = m
        dist *= 2.0
        X = ell + dist
        if X > x_max:
            raise ConvergenceError(
                f"Riccati truncation exceeded X_max = {x_max:g} "
                f"without the value settling (z = {zr})")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MEvaluation:
    """A single m-function value plus the diagnostics of its computation.

    ``error_bound`` is twice the Weyl-disk radius on the disk path, the
    truncation plateau gap on the Riccati path, and 0 for closed forms.
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
    truncation tolerance of the numeric paths: the Weyl-disk radius on the
    disk path, and the relative plateau gap on the Riccati path.  All
    operations are pure, so concurrent use from several threads is safe.
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
    if z.imag != 0.0:
        m, radius, X = _weyl_disk_m(evaluator.potential, math.pi, z, evaluator.tol)
        return MEvaluation(m, X, 2.0 * radius, "weyl-disk")
    m, X, gap = _riccati_m(evaluator.potential, math.pi, z.real, evaluator.tol)
    return MEvaluation(complex(m), X, gap, "riccati")


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

    Uses the Weyl-disk path off the real axis and the backward Riccati path
    for real z < 0, with the truncation tolerance ``tol`` of
    :class:`MFunctionEvaluator`; agrees with :func:`m_alpha` within the
    combined error bounds.
    """
    _check_tol(tol)
    check_alpha(alpha)
    z = _check_spectral_point(z)
    if z.imag != 0.0:
        m, _, _ = _weyl_disk_m(potential, alpha, z, tol)
        return m
    m, _, _ = _riccati_m(potential, alpha, z.real, tol)
    return complex(m)


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
