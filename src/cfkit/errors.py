"""Exception types shared across the library; each carries its CLI exit code as `exit_code`."""


class CFKitError(Exception):
    """Base class for every library-specific error: exit 3 (an evaluation or domain error)."""

    exit_code = 3


class UsageError(CFKitError, ValueError):
    """Bad input (exit 2): malformed, or naming nothing. Also a ValueError, for library callers."""

    exit_code = 2


class ZeroDenominator(CFKitError):
    """A rational was constructed with denominator zero."""


class UndefinedValue(CFKitError):
    """A continued fraction has no value (its final denominator is zero)."""


class IntermediateZero(CFKitError):
    """The right-to-left fold hit a zero partial value before a reciprocal."""


class EmptyCF(UsageError):
    """A continued fraction needs at least one term."""


class ParseError(UsageError):
    """Continued-fraction text violates the grammar.

    Carries the character offset of the offending token in `position`.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PerfectSquare(CFKitError):
    """sqrt(d) is an integer, so there is no periodic expansion."""


class PeriodNotFound(CFKitError):
    """The period of sqrt(d) was not detected within the term budget."""


class NegativeIndex(CFKitError):
    """The sequence is not defined for negative indices."""


class EvenOrder(CFKitError):
    """The scaled Fibonacci family requires an odd positive order."""


class BoundExceeded(CFKitError):
    """Brute-force enumeration was asked for more than its size bound."""


class BadDomain(CFKitError):
    """A catalog case was requested outside the identity's parameter domain."""


class MissingParam(UsageError):
    """A case or range omitted a parameter the identity's signature requires."""


class EmptyRange(UsageError):
    """A sweep or seq range runs from a larger value to a smaller one."""


class ExtraParam(UsageError):
    """A case or range supplied a parameter the identity's signature lacks."""


class UnknownIdentity(UsageError):
    """A catalog name was given that no IdentityId member has."""
