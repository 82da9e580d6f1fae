"""Exceptions shared across the package."""


class SphereFieldError(Exception):
    """Base class for package errors."""


class MalformedSpaceError(SphereFieldError, ValueError):
    """Input does not describe a well-formed pointed sphere space."""


class NotMemberError(SphereFieldError, ValueError):
    """Operation requires a certified space but certification was rejected.

    Carries the rejection witness (first non-positive pivot index and the
    exact leading principal minor) when available.
    """

    def __init__(self, message, rejection=None):
        super().__init__(message)
        self.rejection = rejection


class UnrealizableTypeError(NotMemberError):
    """A prescribed distance profile admits no realization (extended matrix not PD)."""


class PrecisionError(SphereFieldError, ArithmeticError):
    """A float result missed its tolerance in a round-trip or bisection check."""


class SnapError(SphereFieldError, RuntimeError):
    """Rounding float geometry onto the rational grid failed re-certification after retries."""


class SearchError(SphereFieldError, RuntimeError):
    """A randomized witness search exhausted its draw budget."""
