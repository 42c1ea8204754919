"""Exception taxonomy shared by all weylsys modules."""

__all__ = ["WeylsysError", "DomainError", "ConstructionError", "PoleError",
           "IntegrationError", "StiffnessError", "ConvergenceError",
           "ExtrapolationError", "DivergenceError"]


class WeylsysError(Exception):
    """Base class for every weylsys-specific failure.

    ``z`` is the spectral point whose evaluation failed, once known, else None.
    """

    z: complex | None = None


class DomainError(WeylsysError):
    """Input lies outside the mathematical domain of an operation."""


class ConstructionError(DomainError):
    """Invalid parameters when building a descriptor (e.g. Im h <= 0)."""


class PoleError(WeylsysError):
    """A denominator vanished: evaluation at (or too close to) a pole.

    Carries the offending spectral point in ``z`` when known.
    """

    def __init__(self, message: str, z: complex | None = None):
        super().__init__(message)
        self.z = z


class IntegrationError(WeylsysError):
    """ODE integration failed (e.g. non-finite coefficient values).

    Once ``z`` is known, the message ends with it.
    """


class StiffnessError(IntegrationError):
    """Adaptive step size underflowed during integration."""


class ConvergenceError(WeylsysError):
    """Truncation growth or iteration exhausted its budget without converging."""


class ExtrapolationError(WeylsysError):
    """A sampled sequence was rejected by the limit extrapolator."""


class DivergenceError(WeylsysError):
    """A quadrature tail failed to converge (non-integrable integrand)."""
