"""The value of a finite continued fraction from products of its matrices (see `contfrac`).

[a_0, ..., a_n] is p_n/q_n, where the product of the matrices
[[a_i, 1], [1, 0]] is [[p_n, p_{n-1}], [q_n, q_{n-1}]]:

  * evaluate() takes a flat term list and evaluate_runs() takes (value,
    count) runs, the form the parser and the identity catalog produce.
    Both cut flat terms into leaves of at most _LEAF_TERMS terms, which run
    the recurrence, and share one balanced product tree that multiplies
    neighbours level by level, so the large products pair operands of
    similar size, where Python's Karatsuba multiplication pays off.
  * evaluate_runs() lays short runs out flat. A run of at least _LEAF_TERMS
    equal terms is one matrix power [[a, 1], [1, 0]]^count, found by
    repeated squaring in O(log count) steps; powers of that symmetric
    matrix stay symmetric, so three entries describe each. An identity
    sweep computes one power per prefix and then steps it by the
    continued-fraction recurrence, one term at a time (see `_engine`).

The final matrix has determinant (-1)^(n+1), so p_n and q_n are always
coprime and both routes return them as they are, with only the sign
normalised. `contfrac` imports evaluate(), evaluate_runs() and
_require_terms() back; the identity harness imports this module alone, so
check, sweep and fit do not compile the text format, convergents() or the
expansion code.
"""

from .errors import EmptyCF, UndefinedValue, UsageError
from .rational import Rational


def _require_terms(terms) -> list[int]:
    terms = list(terms)
    if not terms:
        raise EmptyCF("a continued fraction needs at least one term")
    return terms


# Leaves of at most this many terms run the forward recurrence directly;
# on word-sized values that is cheaper than splitting further.
_LEAF_TERMS = 32


def _mul(m1: tuple[int, int, int, int], m2: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Matrix product of two (p, p', q, q') tuples, in that order."""
    p1, p1_prev, q1, q1_prev = m1
    p2, p2_prev, q2, q2_prev = m2
    return (
        p1 * p2 + p1_prev * q2,
        p1 * p2_prev + p1_prev * q2_prev,
        q1 * p2 + q1_prev * q2,
        q1 * p2_prev + q1_prev * q2_prev,
    )


# Iterator is named only in an annotation, which postponed evaluation never
# resolves, so this module imports nothing for it.
def _leaves(terms: list[int]) -> "Iterator[tuple[int, int, int, int]]":
    """Product of [[a_i, 1], [1, 0]] over each slice of at most _LEAF_TERMS terms, as (p, p', q, q')."""
    for lo in range(0, len(terms), _LEAF_TERMS):
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in terms[lo:lo + _LEAF_TERMS]:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        yield p, p_prev, q, q_prev


def _run_power(a: int, n: int) -> tuple[int, int, int, int]:
    """[[a, 1], [1, 0]]^n for n >= 0 as (p, p', q, q'), by repeated squaring.

    Every power is symmetric, [[x, y], [y, z]], and is a power of the base,
    so x = a*y + z; a squaring therefore costs three multiplications.
    """
    if n == 0:
        return 1, 0, 0, 1
    x, y, z = a, 1, 0
    for bit in bin(n)[3:]:
        yy = y * y
        x, y = x * x + yy, y * (x + z)
        z = x - a * y
        if bit == "1":
            x, y, z = a * x + y, x, y
    return x, y, y, z


def _value(pieces: list[tuple[int, int, int, int]]) -> Rational:
    """p/q of the product of the pieces, neighbours multiplied level by level.

    An odd last piece goes up a level as it is. The product's determinant is
    +-1, so no gcd is needed.
    """
    while len(pieces) > 1:
        paired = [_mul(pieces[i], pieces[i + 1]) for i in range(0, len(pieces) - 1, 2)]
        if len(pieces) % 2:
            paired.append(pieces[-1])
        pieces = paired
    p, _, q, _ = pieces[0]
    if q == 0:
        raise UndefinedValue("final convergent denominator is zero")
    return Rational._coprime(p, q)


def evaluate(terms) -> Rational:
    """Exact value p_n/q_n of the final convergent, reduced."""
    return _value(list(_leaves(_require_terms(terms))))


def evaluate_runs(runs) -> Rational:
    """Exact value of the terms that the (value, count) runs expand to.

    Equals evaluate() on the expansion, but a run of at least _LEAF_TERMS
    terms costs O(log count) matrix squarings instead of count steps.
    """
    pieces = []
    flat: list[int] = []
    for a, count in runs:
        if count < 0:
            raise UsageError(f"count must be >= 0, got {count}")
        if count < _LEAF_TERMS:
            flat += [a] * count
            continue
        pieces += _leaves(flat)
        flat = []
        pieces.append(_run_power(a, count))
    pieces += _leaves(flat)
    if not pieces:
        raise EmptyCF("a continued fraction needs at least one term")
    return _value(pieces)
