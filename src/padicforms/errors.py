"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A precondition on the mathematical domain of an operation failed."""


class EmbeddingError(DomainError):
    """A p-adic embedding is missing or incompatible with the requested field."""


class NonSplitDenominator(DomainError):
    """A denominator does not factor into linear factors over Q."""


class PrecisionError(ArithmeticError):
    """A result cannot be certified at the requested p-adic precision."""


class IntegralityError(ArithmeticError):
    """A coefficient that must be an algebraic integer has a denominator.

    This signals an implementation bug, never bad user input.
    """


class DegreeError(DomainError):
    """A constructed rational function does not decay fast enough at infinity."""
