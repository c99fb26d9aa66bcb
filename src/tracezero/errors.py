"""Exception types shared across the package, and :func:`int_text`, which
writes integers into their messages.

Every error raised deliberately by this package derives from :class:`Error`,
so callers (in particular the CLI) can distinguish precondition violations
from genuine bugs with a single ``except`` clause.
"""


def int_text(k: int) -> str:
    """``k`` in decimal, or only its size past 64 bits, so that a message
    about untrusted input never writes out, or fails on, a huge integer."""
    if k.bit_length() <= 64:
        return str(k)
    return f"{'-' if k < 0 else ''}<{k.bit_length()}-bit integer>"


class Error(Exception):
    """Base class for all package errors."""


# scalar / ring arithmetic
class DivisionByZero(Error, ZeroDivisionError):
    pass


class FieldMismatch(Error):
    pass


class ContextMismatch(Error):
    pass


class TruncationOverflow(Error):
    pass


class NonInvertibleLeadingCoefficient(Error):
    pass


class InfiniteRing(Error):
    pass


# matrices and linear algebra
class ShapeMismatch(Error):
    pass


class SingularBasis(Error):
    pass


class NonConstantEntries(Error):
    pass


class NotNilpotent(Error):
    pass


# witness constructions
class NotUpperTriangular(Error):
    pass


class NonzeroTrace(Error):
    pass


class NotHollow(Error):
    pass


class CliqueTooSmall(Error):
    pass


class NotAUnit(Error):
    pass


class DifferenceNotAUnit(Error):
    pass


# point packing
class DimensionMismatch(Error):
    pass


class NonUniqueConflict(Error):
    pass


class SetTooSmall(Error):
    pass


class PreconditionViolated(Error, ValueError):
    pass


# certificates
class NotSeparated(Error):
    pass


class WrongSimplex(Error):
    pass


class TooFewPoints(Error):
    pass


class BadDimensions(Error):
    pass


class MalformedInput(Error):
    pass


class ValidationFailed(Error):
    pass


# exhaustive searches
class BudgetExceeded(Error):
    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NoSquareRootOfMinusOne(Error):
    pass
