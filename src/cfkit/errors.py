"""Exception types shared across the library."""


class CFKitError(Exception):
    """Base class for every library-specific error."""


class ZeroDenominator(CFKitError):
    """A rational was constructed with denominator zero."""


class ZeroReciprocal(CFKitError):
    """The reciprocal of zero was requested."""


class UndefinedValue(CFKitError):
    """A continued fraction has no value (its final denominator is zero)."""


class IntermediateZero(CFKitError):
    """The right-to-left fold hit a zero partial value before a reciprocal."""


class EmptyCF(CFKitError):
    """A continued fraction needs at least one term."""


class ParseError(CFKitError):
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


class NotACFIdentity(CFKitError):
    """The catalog entry is a lemma, not a continued-fraction identity."""


class NotALemma(CFKitError, ValueError):
    """The catalog entry is a continued-fraction identity, not a lemma."""


class BadDomain(CFKitError):
    """A catalog case was requested outside the identity's parameter domain."""


class MissingParam(CFKitError):
    """A sweep omitted a parameter range the identity's signature requires."""


class ExtraParam(CFKitError):
    """A sweep supplied a parameter range the identity's signature lacks."""


class UnknownIdentity(CFKitError):
    """A catalog name was given that no IdentityId member has."""
