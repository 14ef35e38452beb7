"""Finite continued fractions: convergents, evaluation, parsing, expansion.

Terms are plain integers and may be zero or negative; identity sweeps over
negative tail terms depend on that. The forward convergent recurrence

    p_i = a_i * p_{i-1} + p_{i-2}        (seeds p_{-1} = 1, p_{-2} = 0)
    q_i = a_i * q_{i-1} + q_{i-2}        (seeds q_{-1} = 0, q_{-2} = 1)

is the authoritative semantics: [a_0, ..., a_n] has the value p_n / q_n,
which exists exactly when q_n != 0. Equivalently, the product of the
matrices [[a_i, 1], [1, 0]] is [[p_n, p_{n-1}], [q_n, q_{n-1}]].
convergents() runs the recurrence and keeps every row; the other routes
compute only the last row and give the same p_n and q_n:

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
    sweep computes one power per prefix and then extends it by one matrix
    product per step of m (see `_engine`).

The final matrix has determinant (-1)^(n+1), so p_n and q_n are always
coprime and both routes return them as they are, with only the sign
normalised. The right-to-left fold is kept as a second, independent route
for cross-checking.

Text format (a stable interface, used by the CLI):

    cf    := '[' item (sep item)* ']'
    item  := INT | INT 'x' COUNT
    sep   := ','   (the first separator may be ';' instead)

Whitespace between tokens is ignored. INT is a signed decimal integer;
COUNT is a nonnegative decimal repetition count, so "[4x3, 9]" means
"[4,4,4,9]" and a zero count contributes nothing. The item rule, with the
whitespace around it, is what _ITEM matches. parse_runs() returns the
items as runs without expanding them; parse_cf() returns the expansion.
"""

import re
from math import isqrt
from typing import NamedTuple

from .errors import (
    EmptyCF,
    IntermediateZero,
    ParseError,
    PerfectSquare,
    PeriodNotFound,
    UndefinedValue,
    UsageError,
)
from .rational import Rational


class ConvergentTable(NamedTuple):
    """Parallel numerators p_i and denominators q_i for i = 0..n.

    Successive rows satisfy p_i*q_{i-1} - p_{i-1}*q_i = (-1)^(i+1).
    """

    p: tuple[int, ...]
    q: tuple[int, ...]

    def final(self) -> tuple[int, int]:
        return self.p[-1], self.q[-1]


class SurdExpansion(NamedTuple):
    """Periodic expansion of a quadratic surd: a0 followed by the minimal period."""

    a0: int
    period: tuple[int, ...]


def _require_terms(terms) -> list[int]:
    terms = list(terms)
    if not terms:
        raise EmptyCF("a continued fraction needs at least one term")
    return terms


def convergents(terms) -> ConvergentTable:
    """Full convergent table of [a_0, ..., a_n]; never rejects a zero q."""
    terms = _require_terms(terms)
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    ps, qs = [], []
    for a in terms:
        p_prev, p_prev2 = a * p_prev + p_prev2, p_prev
        q_prev, q_prev2 = a * q_prev + q_prev2, q_prev
        ps.append(p_prev)
        qs.append(q_prev)
    return ConvergentTable(tuple(ps), tuple(qs))


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


def eval_fold(terms) -> Rational:
    """Right-to-left fold x <- a_i + 1/x.

    Rejects any zero partial value with IntermediateZero (zero middle terms
    usually trip this even when the forward value exists). Whenever the fold
    succeeds it agrees with evaluate().
    """
    terms = _require_terms(terms)
    value = Rational(terms[-1])
    for a in reversed(terms[:-1]):
        if not value:
            raise IntermediateZero("partial value is zero before a reciprocal")
        value = value.reciprocal() + a
    return value


def expand_rational(r: Rational) -> list[int]:
    """Canonical continued fraction of r via the Euclidean algorithm.

    a_0 is the floor; every later term is >= 1 and the final term is >= 2
    unless the whole expansion is a single term, so the result is the
    unique canonical form and evaluate() inverts it exactly.
    """
    num, den = r.num, r.den
    terms = []
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            return terms
        num, den = den, rem


def build_uniform(c: int, count: int, tail: int | None = None) -> list[int]:
    """`count` copies of c, then the tail term if given."""
    if count < 0:
        raise UsageError(f"count must be >= 0, got {count}")
    terms = [c] * count
    if tail is not None:
        terms.append(tail)
    if not terms:
        raise EmptyCF("zero repetitions and no tail term")
    return terms


def _expand(runs) -> list[int]:
    terms: list[int] = []
    for a, count in runs:
        terms += [a] * count
    return terms


def parse_cf(text: str) -> list[int]:
    """Parse the bracketed text format into an expanded term list."""
    return _expand(parse_runs(text))


# An item, the whitespace around it and the character after it, which is
# empty at the end of the text. \s and \d match exactly what str.isspace()
# and str.isdecimal() accept. _SPACE is used only to locate an error. Both
# are compiled on the first parse (re keeps them), so the commands that
# parse no text (check, sweep, fit) do not compile them.
_ITEM = r"\s*([+-]?\d+)\s*(?:x\s*(\d+)\s*)?(\S?)"
_SPACE = r"\s*"


def parse_runs(text: str) -> list[tuple[int, int]]:
    """Parse the bracketed text format into (value, count) runs, one per item.

    Raises EmptyCF when every count is zero.
    """
    item_at, space_at = re.compile(_ITEM).match, re.compile(_SPACE).match
    pos = space_at(text).end()
    if not text.startswith("[", pos):
        raise ParseError("expected '['", pos)
    pos += 1
    runs = []
    seps = (",", ";")
    while True:
        item = item_at(text, pos)
        if item is None:
            raise ParseError("expected an integer", space_at(text, pos).end())
        digits, count, sep = item.groups()
        value = int(digits)
        pos = item.end()
        if count is None and sep == "x":
            raise ParseError("expected an integer", space_at(text, pos).end())
        runs.append((value, 1 if count is None else int(count)))
        if sep == "]":
            break
        if sep not in seps:
            raise ParseError("expected ',' or ']'", item.start(3))
        seps = (",",)
    end = space_at(text, pos).end()
    if end != len(text):
        raise ParseError("trailing input after ']'", end)
    if not any(count for _, count in runs):
        raise EmptyCF("expansion produced no terms")
    return runs


def surd_cf(d: int, max_terms: int = 10_000) -> SurdExpansion:
    """Periodic continued fraction of sqrt(d) for non-square d >= 2.

    Runs the classical (P, Q) state recurrence

        P_{i+1} = a_i*Q_i - P_i,   Q_{i+1} = (d - P_{i+1}^2) / Q_i,
        a_i = floor((a0 + P_i) / Q_i)

    from (P_1, Q_1). Every term before the end of the minimal period is at
    most a0, and the period ends with 2*a0, so the first term equal to
    2*a0 closes it. Raises PeriodNotFound when the period is longer than
    max_terms.
    """
    if d < 1:
        raise UsageError(f"expected a positive integer, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise PerfectSquare(f"{d} is a perfect square")

    period: list[int] = []
    p, q = a0, d - a0 * a0
    while not period or period[-1] != 2 * a0:
        if len(period) >= max_terms:
            raise PeriodNotFound(f"no period within {max_terms} terms")
        a = (a0 + p) // q
        period.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return SurdExpansion(a0, tuple(period))
