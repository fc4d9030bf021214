"""Exception types shared across the package."""


class PlboundsError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(PlboundsError):
    """A covariance matrix is not symmetric positive definite."""


class MissingRecord(PlboundsError):
    """A file-backed estimator has no record for the requested key."""


class InfeasibleContext(PlboundsError):
    """The measurement context lacks data the estimator requires."""


class InsufficientSamples(PlboundsError):
    """Too few samples to estimate a distribution reliably."""


class CorrectionNotPSD(PlboundsError):
    """An uncertainty-corrected covariance failed the definiteness check."""


class LengthMismatch(PlboundsError):
    """Mixture parameter arrays disagree in length."""


class WeightSumViolation(PlboundsError):
    """Mixture weights do not sum to one."""


class BracketingFailure(PlboundsError):
    """The quantile solver could not bracket the requested probability."""


class NonConvergence(PlboundsError):
    """The quantile solver exhausted its iteration budget."""


class TimestepFailure(PlboundsError):
    """Too few candidate evaluations survived to form a mixture."""


class ConfigError(PlboundsError):
    """A configuration document is malformed or inconsistent."""
