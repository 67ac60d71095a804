"""Exception types raised across the package.

Every error is a subclass of :class:`Ad1nError` so callers can catch the
whole family with one clause.  Numerical guards (condition numbers, matrix
log domains, stabilization criteria) raise rather than silently degrade.
"""


class Ad1nError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(Ad1nError):
    """Vector or matrix dimensions do not match the model dimension."""


class InadmissibleParamsError(Ad1nError):
    """Model parameters violate an invariant required by the operation."""


class NonDiagonalizableError(Ad1nError):
    """The mean-reversion matrix cannot be diagonalized within tolerance."""


class ComplexSpectrumError(Ad1nError):
    """Eigenvalues have imaginary parts above the reality tolerance."""


class InvalidGridError(Ad1nError):
    """Simulation grid arguments are inconsistent (step, horizon)."""


class NotSubcriticalError(Ad1nError):
    """Operation requires the subcritical regime."""


class OrderTooHighError(Ad1nError):
    """Requested mixed-moment order exceeds the supported maximum."""


class MissingInitialMomentError(Ad1nError):
    """Initial moment table lacks an entry needed by the transient solver."""


class SingularEGError(Ad1nError):
    """Limit design matrix is numerically singular (condition > 1e12)."""


class PathTooShortError(Ad1nError):
    """Path has too few observations to assemble the design blocks."""


class DegeneratePathError(Ad1nError):
    """Design blocks from the path are numerically singular."""


class SingularBlocksError(Ad1nError):
    """Design blocks cannot be solved (singular or ill conditioned)."""


class LogDomainError(Ad1nError):
    """Per-step regression output left the domain of the inverse map
    (b-tilde >= 1, or I - theta-tilde has an eigenvalue on (-inf, 0])."""


class UnsupportedRegimeError(Ad1nError):
    """No normalization or limit theory is implemented for this regime."""


class NotStabilizedError(Ad1nError):
    """Exponentially scaled path tail has not stabilized; increase horizon."""


class SingularUError(Ad1nError):
    """Critical limit design functional is numerically singular."""


class RegimeMismatchError(Ad1nError):
    """Declared regime does not match the classification of the parameters."""


class ConfigError(Ad1nError):
    """Experiment configuration file is malformed or inconsistent."""
