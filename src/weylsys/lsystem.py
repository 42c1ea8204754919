"""Two-parameter family of boundary-coupled systems for the half-line operator.

A system is fixed by a potential, a non-self-adjoint boundary parameter h
(Im h > 0) and a coupling parameter mu on the projectively extended real
line (a single point at infinity).  Its impedance function V is a fractional
linear transform of the principal m-function, and its transfer function W
satisfies W = (1 - iV)/(1 + iV).  The dual coupling xi gives the pair
V_mu = -1/V_xi, W_mu = -W_xi.

The functions take the value m = m_inf(z), not a solver: get it from
:mod:`weylsys.mfunc` (``m_infinity_batch`` for many z at once).  Reports
write a system by :func:`lsystem_to_dict`; nothing reads one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstructionError, DomainError
from .mfunc import safe_div
from .potentials import Potential

__all__ = [
    "MU_INFINITY",
    "as_extended_real",
    "check_h",
    "xi_parameter",
    "LSystem",
    "make_lsystem",
    "impedance",
    "transfer",
    "transfer_from_impedance",
    "impedance_from_transfer",
    "DualityReport",
    "duality_check",
    "lsystem_to_dict",
]

#: The single point at infinity of the projective coupling line.
MU_INFINITY = math.inf


def as_extended_real(value) -> float:
    """Normalize a coupling parameter to float or the single infinity.

    Accepts floats, ints and the strings "inf"/"-inf"/"+inf".  Both signs
    of infinity denote the same projective point and normalize to +inf.
    """
    if isinstance(value, str):
        try:
            value = float(value.strip())
        except ValueError as exc:
            raise DomainError(f"not an extended-real coupling: {value!r}") from exc
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise DomainError("coupling parameter mu must be real")
        value = value.real
    value = float(value)
    if math.isnan(value):
        raise DomainError("coupling parameter mu must not be NaN")
    if math.isinf(value):
        return MU_INFINITY
    return value


def check_h(h: complex) -> complex:
    """h as a complex number; ConstructionError unless finite with Im h > 0."""
    h = complex(h)
    if not (math.isfinite(h.real) and math.isfinite(h.imag)):
        raise ConstructionError("boundary parameter h must be finite")
    if h.imag <= 0.0:
        raise ConstructionError(
            f"boundary parameter h must have Im h > 0, got h = {h}"
        )
    return h


def xi_parameter(mu, h: complex) -> float:
    """Dual coupling xi = (mu*Re h - |h|^2) / (mu - Re h).

    The map is an involution on the projective line: mu = inf maps to Re h,
    mu = Re h maps to inf.
    """
    mu = as_extended_real(mu)
    h = check_h(h)
    re_h = h.real
    if math.isinf(mu):
        return re_h
    if mu == re_h:
        return MU_INFINITY
    return (mu * re_h - abs(h) ** 2) / (mu - re_h)


@dataclass(frozen=True)
class LSystem:
    potential: Potential
    mu: float
    h: complex
    xi: float
    channel_gain: float

    @property
    def mu_is_infinite(self) -> bool:
        return math.isinf(self.mu)


def make_lsystem(potential: Potential, mu, h: complex) -> LSystem:
    """Assemble the boundary-coupled system for the given (mu, h).

    The boundary point ell is the potential's own.  A missing mu or h, or
    Im h <= 0, raises ConstructionError.
    """
    if not isinstance(potential, Potential):
        raise ConstructionError("potential must be a Potential instance")
    if mu is None or h is None:
        raise ConstructionError("make_lsystem needs both mu and h")
    h = check_h(h)
    mu = as_extended_real(mu)
    xi = xi_parameter(mu, h)
    gain = 1.0 if math.isinf(mu) else math.sqrt(h.imag) / abs(mu - h)
    return LSystem(potential=potential, mu=mu, h=h, xi=xi, channel_gain=gain)


def impedance(system: LSystem, m: complex, z: complex) -> complex:
    """Impedance V(z) = Im(h) * (m + mu) / ((mu - Re h) m + mu Re h - |h|^2), m = m_inf(z).

    For mu = inf this reduces to V(z) = Im(h) / (m + Re h).  Zeros of the
    denominator raise PoleError carrying z.
    """
    h = system.h
    if system.mu_is_infinite:
        return safe_div(complex(h.imag), m + h.real, z=z, what="impedance")
    num = (m + system.mu) * h.imag
    den = (system.mu - h.real) * m + system.mu * h.real - abs(h) ** 2
    return safe_div(num, den, z=z, what="impedance")


def transfer(system: LSystem, m: complex, z: complex) -> complex:
    """Transfer W(z) = ((mu - h)/(mu - conj h)) * (m + conj h)/(m + h), m = m_inf(z).

    For mu = inf the unimodular prefactor is 1.
    """
    h = system.h
    core = safe_div(m + h.conjugate(), m + h, z=z, what="transfer")
    if system.mu_is_infinite:
        return core
    # mu - conj(h) has imaginary part Im h > 0, so the prefactor never blows up.
    return (system.mu - h) / (system.mu - h.conjugate()) * core


def transfer_from_impedance(v: complex) -> complex:
    """Moebius link W = (1 - iV) / (1 + iV); V = i has no image (PoleError)."""
    return safe_div(1.0 - 1j * v, 1.0 + 1j * v, what="transfer_from_impedance")


def impedance_from_transfer(w: complex) -> complex:
    """Inverse link V = i(W - 1) / (W + 1); W = -1 has no image (PoleError)."""
    return safe_div(1j * (w - 1.0), w + 1.0, what="impedance_from_transfer")


@dataclass(frozen=True)
class DualityReport:
    xi: float
    impedance_residual: float
    transfer_residual: float


def duality_check(system: LSystem, m: complex, z: complex) -> DualityReport:
    """Residuals of V_mu(z) + 1/V_xi(z) and W_mu(z) + W_xi(z), m = m_inf(z).

    Requires a finite mu with mu != Re h so that the dual system is itself an
    ordinary member of the family.
    """
    if system.mu_is_infinite:
        raise DomainError("duality_check needs a finite coupling mu")
    if math.isinf(system.xi):
        raise DomainError("duality_check needs mu != Re h (dual coupling is infinite)")
    dual = make_lsystem(system.potential, system.xi, system.h)
    v_mu, v_xi = impedance(system, m, z), impedance(dual, m, z)
    w_mu, w_xi = transfer(system, m, z), transfer(dual, m, z)
    inv_v_xi = safe_div(1.0, v_xi, z=z, what="1/impedance of the dual system")
    return DualityReport(xi=system.xi, impedance_residual=abs(v_mu + inv_v_xi),
                         transfer_residual=abs(w_mu + w_xi))


def _encode_extended(x: float):
    return "inf" if math.isinf(x) else float(x)


def lsystem_to_dict(system: LSystem) -> dict:
    return {
        "ell": system.potential.ell,
        "potential": system.potential.to_dict(),
        "mu": _encode_extended(system.mu),
        "h": {"re": system.h.real, "im": system.h.imag},
        "xi": _encode_extended(system.xi),
        "channel_gain": system.channel_gain,
    }
