"""Exception hierarchy shared by all phasejump modules."""

__all__ = [
    "PhasejumpError",
    "InvalidArgumentError",
    "DegenerateFieldError",
    "NoCrossingError",
    "WindowTooSmallError",
    "ConvergenceError",
    "QuadratureError",
    "InternalConsistencyError",
]


class PhasejumpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(PhasejumpError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateFieldError(InvalidArgumentError):
    """Both field components vanish; the mixing angle is undefined."""


class NoCrossingError(InvalidArgumentError):
    """Requested a crossing-based quantity for a model with no level crossing."""


class WindowTooSmallError(PhasejumpError):
    """Integration window does not reach the asymptotic regime.

    Carries ``required_half_width``, the smallest half-width that would
    satisfy the asymptotic condition.
    """

    def __init__(self, message, required_half_width=None):
        super().__init__(message)
        self.required_half_width = required_half_width


class ConvergenceError(PhasejumpError):
    """Adaptive stepping hit the minimum step before meeting the tolerance.

    Carries ``achieved_error``, the best local error estimate at failure.
    """

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class QuadratureError(PhasejumpError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class InternalConsistencyError(PhasejumpError):
    """A quantity that must be real (or otherwise constrained) is not."""
