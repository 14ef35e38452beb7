"""Finite continued fractions: convergents, evaluation, parsing, expansion.

Terms are plain integers and may be zero or negative; identity sweeps over
negative tail terms depend on that. The forward convergent recurrence

    p_i = a_i * p_{i-1} + p_{i-2}        (seeds p_{-1} = 1, p_{-2} = 0)
    q_i = a_i * q_{i-1} + q_{i-2}        (seeds q_{-1} = 0, q_{-2} = 1)

is the authoritative semantics: [a_0, ..., a_n] has the value p_n / q_n,
which exists exactly when q_n != 0. Equivalently, the product of the
matrices [[a_i, 1], [1, 0]] is [[p_n, p_{n-1}], [q_n, q_{n-1}]].
_rows() runs the recurrence row by row and convergents() returns every
row; evaluate() and evaluate_runs() compute only the last row, by a
balanced product tree of the matrices (see `_products`, which defines
them), and give the same p_n and q_n.
The final matrix has determinant (-1)^(n+1), so p_n and q_n are always
coprime. The right-to-left fold is kept as a second, independent route
for cross-checking.

The text format and its parser parse_runs() live in `_parse`, which this
module imports back; parse_cf() returns the expansion of its runs.
"""

from math import isqrt
from typing import NamedTuple

# The product tree lives in _products and the parser in _parse; their public
# names stay contfrac attributes for the package namespace.
from ._parse import parse_runs
from ._products import _require_terms, evaluate, evaluate_runs
from .errors import EmptyCF, IntermediateZero, PerfectSquare, PeriodNotFound, UsageError
from .rational import Rational


class SurdExpansion(NamedTuple):
    """Periodic expansion of a quadratic surd: a0 followed by the minimal period."""

    a0: int
    period: tuple[int, ...]


# Iterator is named only in an annotation, which postponed evaluation never
# resolves, so this module imports nothing for it.
def _rows(terms) -> "Iterator[tuple[int, int]]":
    """(p_i, q_i) for i = 0..n by the forward recurrence, one row at a time.

    The seeds are the ints 0 and 1, and each row is a * row + row, so the
    rows are of the terms' type: ints for int terms, and Decimals for
    Decimal terms under a context that keeps every value exact (the
    `convergents` command, see `_decimals`).
    """
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for a in terms:
        p_prev, p_prev2 = a * p_prev + p_prev2, p_prev
        q_prev, q_prev2 = a * q_prev + q_prev2, q_prev
        yield p_prev, q_prev


def convergents(terms) -> list[tuple[int, int]]:
    """Every row (p_i, q_i) of [a_0, ..., a_n], i = 0..n; never rejects a zero q.

    Successive rows satisfy p_i*q_{i-1} - p_{i-1}*q_i = (-1)^(i+1).
    """
    return list(_rows(_require_terms(terms)))


def eval_fold(terms) -> Rational:
    """Right-to-left fold x <- a_i + 1/x.

    Rejects any zero partial value with IntermediateZero (zero middle terms
    usually trip this even when the forward value exists). Whenever the fold
    succeeds it agrees with evaluate().
    """
    terms = _require_terms(terms)
    # x = p/q with q an earlier nonzero p, and a + 1/x = (a*p + q)/p. The
    # result is reduced by Rational itself, so this route does not rest on
    # the determinant argument that lets the product tree skip the gcd.
    p, q = terms[-1], 1
    for a in reversed(terms[:-1]):
        if p == 0:
            raise IntermediateZero("partial value is zero before a reciprocal")
        p, q = a * p + q, p
    return Rational(p, q)


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


def surd_cf(d: int, max_terms: int = 10_000) -> SurdExpansion:
    """Periodic continued fraction of sqrt(d) for non-square d >= 2.

    Runs the classical (P, Q) state recurrence

        P_{i+1} = a_i*Q_i - P_i,   Q_{i+1} = (d - P_{i+1}^2) / Q_i,
        a_i = floor((a0 + P_i) / Q_i)

    from (P_1, Q_1). Every term before the end of the minimal period is at
    most a0, and the period ends with 2*a0, so the first term equal to
    2*a0 closes it. Raises PeriodNotFound when the period is longer than
    max_terms.

    What is proven: the period's value. The convergent certificate in
    tests/test_contfrac.py (p_{r-1} = a0*q_{r-1} + q_{r-2} and
    d*q_{r-1} = a0*p_{r-1} + p_{r-2} for the r-term period without its
    final 2*a0) shows sqrt(d) = [a0; period repeated]. That the period is
    minimal rests on the first-2*a0 rule above alone; nothing checks it.
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
