"""Exception types shared across the package."""

from __future__ import annotations


class FracAutocorrError(Exception):
    """Base class for all package errors."""


class PoleError(FracAutocorrError, ValueError):
    """Evaluation requested at (or too close to) a pole.

    ``location`` carries the pole position when known; ``laurent`` may carry
    structured Laurent data for callers that want the singular part.
    """

    def __init__(self, message, location=None, laurent=None):
        super().__init__(message)
        self.location = location
        self.laurent = laurent


class DomainError(FracAutocorrError, ValueError):
    """Argument outside the documented domain (cut, strip, sign constraint)."""


class NonCoprimeError(FracAutocorrError, ValueError):
    """A (p, q) pair that must be coprime is not."""


class ToleranceError(FracAutocorrError, RuntimeError):
    """Requested tolerance is unreachable within configured resources.

    ``achieved`` carries the best certified radius that was attainable.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
