"""Exception types shared across the package."""


class WeplabError(Exception):
    """Base class for all package errors."""


class DomainError(WeplabError, ValueError):
    """An argument lies outside the contract of the operation."""


class IndefiniteCovarianceError(WeplabError):
    """A covariance matrix failed to factor even after jitter escalation.

    Signals a covariance bug or a too-coarse Monte Carlo estimate.
    """


class ConfigError(WeplabError):
    """A run configuration could not be parsed or validated."""
