"""Exception hierarchy shared by all heatgen modules, and the one check
of an evaluation time."""

import math


class HeatgenError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpaceSpec(HeatgenError):
    """Curvature datum violates a structural requirement: a shape, size,
    exact entry or symmetry at construction, definiteness in prepare."""


class DegenerateBasis(HeatgenError):
    """The generators E, and so the connection generators derived from
    them, are linearly dependent; prepare raises it."""


class CommutatorOutsideSpan(HeatgenError):
    """A commutator of connection generators leaves their linear span; the
    datum does not close into a Lie algebra."""


class InternalInconsistency(HeatgenError):
    """Two independent computations of the same quantity disagreed.  This
    always indicates a bug, never bad input."""


class ValidationError(HeatgenError):
    """One or more structural identity checks failed for the datum."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(HeatgenError):
    """A space file could not be parsed (syntax, schema, or field content)."""


class UnknownSpace(HeatgenError):
    """Requested name is not in the builtin catalog."""


class OrderTooLarge(HeatgenError):
    """The work units of the average that runs, over all of h or over a
    maximal torus, exceed the budget."""


class OrderMismatch(HeatgenError):
    """Coefficient lists of incompatible truncation orders were combined."""


class NonPositiveT(HeatgenError):
    """Evaluation time must be strictly positive."""


class InvalidTime(HeatgenError):
    """A time argument is malformed or not a finite number."""


def check_time(t: float) -> None:
    """An evaluation time must be a finite positive number: InvalidTime
    when it is not finite, NonPositiveT when it is not positive."""
    if not math.isfinite(t):
        raise InvalidTime(f"t must be finite, got {t}")
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
