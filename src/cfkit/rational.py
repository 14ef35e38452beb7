"""Exact rational numbers over Python's arbitrary-precision integers.

Values are immutable and always stored fully reduced with a positive
denominator, so equality is structural. Only the operations the rest of
the library needs exist here: construction, comparison and printing. No
floating point is involved anywhere.
"""

from math import gcd

from .errors import ZeroDenominator


class Rational:
    """Reduced fraction num/den with den > 0; zero is stored as 0/1."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDenominator(f"{num}/0 is not a rational")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        self._num = num // g
        self._den = den // g
        assert self._den > 0

    @classmethod
    def _coprime(cls, num: int, den: int) -> "Rational":
        """num/den for den != 0 and gcd(num, den) == 1; only the sign is fixed."""
        if den < 0:
            num, den = -num, -den
        self = cls.__new__(cls)
        self._num = num
        self._den = den
        return self

    @property
    def num(self) -> int:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rational):
            return self._num == other._num and self._den == other._den
        if isinstance(other, int):
            return self._den == 1 and self._num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return self._num != 0

    def __str__(self) -> str:
        return f"{self._num}/{self._den}"

    def __repr__(self) -> str:
        return f"Rational({self._num}, {self._den})"
