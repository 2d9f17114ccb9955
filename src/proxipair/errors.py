"""Exception hierarchy shared across the package."""


class ProxipairError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ProxipairError, ValueError):
    """A vector or matrix does not match the dimension of its space."""


class UnsupportedProjectionError(ProxipairError):
    """No projection routine exists for this body / exponent combination."""


class ProjectionConvergenceError(ProxipairError):
    """An iterative projection hit its iteration cap before tolerance.

    Carries the gap achieved when the cap was hit so callers can report
    how far the result is from feasibility.
    """

    def __init__(self, message: str, achieved_gap: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.achieved_gap = achieved_gap
        self.iterations = iterations


class DomainError(ProxipairError):
    """A point lies outside the domain an operator requires."""


class PreconditionError(ProxipairError):
    """A solver or constructor precondition failed (bad start, bad map)."""


class InstanceFormatError(ProxipairError, ValueError):
    """An instance document is malformed; message names the offending field."""
