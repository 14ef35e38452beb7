"""Machine-checkable catalog of continued-fraction and sequence identities.

Each entry is one IdentityId member, declared once as its record in the
paper's terms. A continued-fraction entry's left side is [c]*(m + e) + [t]:
a base c(k), a count m or m + 1, and an optional tail t(k). Its right side
is one linear form N, a short sum of coef(k)*X(a*m + b) over the
`sequences` functions X, stated as the ratio N(m)/N(m - 1): a convergent's
denominator is the numerator one term back. A lemma (LEM_*) is one such
form on each side of an exact integer equation. c, t, coef and X's order
are data: c0 + c1*k, or X(c0 + c1*k) (the base L(2k + 1)). The record also
states the domain, k's lower bound and the m step; an entry takes k where
k appears in it.

Two routes read the same table:

  * run_case() is the reference, and the one worker that checks a case of
    either kind. It validates the case exactly once, as the one-case grid
    of a sweep, evaluates the left side's (value, count) runs with
    evaluate_runs() and calls every X of the forms directly.
  * sweep() is the stepped engine (cfkit._engine, which says how it
    steps). It checks the whole grid when it is called, then seeds one
    state at the first m, or one per k where k changes the base or a
    sequence (COR_GENERAL_LUCAS alone), and carries it from each m to the
    next, doing each step once: the left prefix steps by its own
    recurrence, and the terms of one side that read one sequence at one
    stride, whole strides apart (THM5_SWAPPED_LUCAS's four l terms), read
    one sequences.walk at their lags. A side is a continued fraction's
    stated ratio, both forms, or one form of a lemma; no walk is read by
    two sides. The engine yields the cases in (m, k) order, in batches of
    one m and at most 64 consecutive k: columns of plain ints and each
    case's Status, which the CLI reads as they are. sweep() streams them
    as (CaseParams, CheckOutcome) pairs, and fit_uniform() reads a one-k
    grid's statuses.

The two sides stay independent in both routes: the left side uses only the
continued-fraction recurrence and the right side only the sequence values,
and they share no value. In particular S_t(n) = F(tn)/F(t) is stepped as F
at stride t, never with the left side's recurrence b_{n+1} = L_t b_n + b_{n-1}.
l_n obeys x_{n+1} = x_n + x_{n-1} only from n = 2 on, so walk() calls it
directly below that index (THM5_SWAPPED_LUCAS for m <= 2, LEM_BRIDGE for
m <= 10) and steps it from there. Every other value obeys the recurrence at
every index, negative F indices included.

Each outcome is PASS/FAIL/SKIPPED; SKIPPED is reserved for cases whose two
sides are both undefined (a one-sided undefined is a FAIL). Both routes
decide every case with one function, _verdict(p, q, num, den): the left
side p/q, reduced because its final matrix has determinant +-1 (q >= 0;
q = 0: undefined), against the ratio num/den; a lemma lhs = rhs is lhs/1
against rhs/1. A case passes exactly when (num, den) = g*(p, q) for an
integer g, so one comparison decides it where den = q (g = 1, most cases)
and one exact division otherwise. The engine decides a batch of
consecutive k whole where its stated ratio is its left side's own linear
forms in k: they are equal at every k, so each case passes, or is SKIPPED
where q = 0, as _verdict() decides it; any other batch goes to _verdict()
case by case (see `_engine`). _record() builds a decided
case's CheckOutcome: a pass has one Rational as both sides, and only a
failing right side is reduced by gcd. A sweep builds its records with
_engine.sweep_records(), which carries that gcd from one failing case to
the next where one Euclid step proves it unchanged, and the CLI sweeps a
lemma in decimal.Decimal (see `_cli_cases`); sweep() gives ints, as
run_case() does.

Catalog, with F = fib, f = fib_comb, L = lucas, l = lucas_swapped,
G_k(n) = gibonacci(k, n) and S_t(n) = scaled_fib(t, n); m >= 0 throughout:

    ID117              [4]*m + [3]        f(3m+3) / f(3m)
    ID118              [4]*m + [5]        f(3m+4) / f(3m+1)
    ID_LUCAS7          [4]*m + [7]        L(3m+4) / L(3m+1)
    THM1_GIBONACCI     [4]*m + [2k+3]     G_k(3m+4) / G_k(3m+1)                            (k in Z)
    THM2_FIB_FORM      [4]*m + [2k+3]     (F(3m+4) + k*F(3m+3)) / (F(3m+1) + k*F(3m))      (k in Z)
    THM3_ONES          [1]*m + [k]        (F(m+2) + (k-1)*F(m+1)) / (F(m+1) + (k-1)*F(m))  (k in Z)
    THM4_ELEVEN3       [11]*m + [3]       F(5m+4) / F(5m-1)
    THM5_SWAPPED_LUCAS [11]*(m+1)         (l(5m+5) - l(5m-5)) / (l(5m) - l(5m-10))
    THM6_ELEVEN_FIB    [11]*(m+1)         F(5m+10) / F(5m+5)
    THM7_FOURS         [4]*(m+1)          S_3(m+2) / S_3(m+1)
    THM8_TWENTYNINES   [29]*(m+1)         S_7(m+2) / S_7(m+1)
    COR_GENERAL_LUCAS  [L(2k+1)]*(m+1)    S_{2k+1}(m+2) / S_{2k+1}(m+1)                    (k >= 0)
    EXT_ELEVEN8        [11]*m + [8]       F(5m+6) / F(5m+1)
    EXT_ELEVEN13       [11]*m + [13]      F(5m+7) / F(5m+2)

Lemmas (exact integer equations at index m >= 0):

    LEM_3F       3*F(m) = F(m+2) + F(m-2)
    LEM_4F       4*F(m) = F(m+2) + F(m) + F(m-2)
    LEM_L32      L(m) = F(m+1) + F(m-1)
    LEM_F9       F(m+9) = F(m-1) + 11*F(m+4)
    LEM_11F      11*F(m+4) = F(m) + F(m+2) + F(m+4) + F(m+6) + F(m+8)
    LEM_29F      F(m) + 29*F(m+7) = F(m+14)
    LEM_BRIDGE   5*(l(m) - l(m-10)) = F(m+5)   (m a multiple of 5; sweeps step m by 5)

Two caveats the harness itself demonstrates:

  * THM5_SWAPPED_LUCAS agrees with the evaluated convergent only for
    m <= 2. From m = 3 on the l-difference form drifts below the true
    value (first counterexample: [11,11,11,11] = 15005/1353 while the
    differences give 15004/1353): the irregular seeds l_0 = 1, l_1 = 2
    only compensate the ten-step index shift while an index below 2 is
    involved. The entry is kept verbatim so sweeps surface exactly where
    it stops holding; THM6_ELEVEN_FIB is the form that holds for all m.
  * LEM_BRIDGE holds for m in {0, 5, 10, 15} and fails from m = 20 on
    (5*(l_20 - l_10) = 75020 but F_25 = 75025), for the same seed reason;
    from there the right side exceeds the left by exactly F(m-15).
"""

from collections.abc import Iterator
from enum import Enum, auto
from typing import NamedTuple

from . import sequences
from ._products import evaluate_runs
from .errors import (
    BadDomain,
    EmptyRange,
    ExtraParam,
    MissingParam,
    UndefinedValue,
    UsageError,
)
from .rational import Rational
from .sequences import lucas_odd_index_of


class _Lin:
    """c0 + c1*k of a case's k, or X(c0 + c1*k) for the `sequences` function X named of; c1 = 0: a constant.

    Only a base names a sequence: the engine reads a tail's or a coefficient's c0 and c1 as they are.
    """

    __slots__ = ("c0", "c1", "of")

    def __init__(self, c0: int, c1: int = 0, of: str | None = None):
        self.c0, self.c1, self.of = c0, c1, of

    def __call__(self, k: int | None) -> int:
        n = self.c0 + self.c1 * k if self.c1 else self.c0
        return n if self.of is None else getattr(sequences, self.of)(n)


_K = _Lin(0, 1)


def _lin(value: int | _Lin) -> _Lin:
    return value if isinstance(value, _Lin) else _Lin(value)


def _t(coef: int | _Lin, x: str, a: int, b: int, p: int | _Lin | None = None) -> tuple:
    """The term coef(k) * X(a*m + b) as the tuple (coef, x, a, b, p).

    X is the `sequences` function named x, called as X(n), or as X(p(k), n)
    when p is given (gibonacci's k, scaled_fib's t); an integer coef or p is
    a constant. X is looked up by name on each call, so a wrapper put on the
    module attribute sees every call of the reference route and the seed
    calls of a sweep's walks.
    """
    return _lin(coef), x, a, b, None if p is None else _lin(p)


class _Cf:
    """The continued fraction [base(k)]*(m + extra), then [tail(k)] when given; an int is a constant."""

    __slots__ = ("base", "extra", "tail")

    def __init__(self, base: int | _Lin, extra: int = 0, tail: int | _Lin | None = None):
        self.base = _lin(base)
        self.extra = extra
        self.tail = None if tail is None else _lin(tail)


# The record each IdentityId member is declared as. A continued-fraction
# entry has a _Cf left side and, as its right side, one form N, the stated
# ratio being N(m)/N(m - 1); a lemma has one form on each side. A form is a
# tuple of terms (see _t), summed. The domain: k's lower bound k_min
# (None: every k), and m_step, the entry being stated only for multiples
# of it.
class _Entry(NamedTuple):
    lhs: _Cf | tuple[tuple, ...]
    rhs: tuple[tuple, ...]
    k_min: int | None = None
    m_step: int = 1


class IdentityId(Enum):
    """One catalog entry; the member carries its record's four fields as attributes, takes_k and forms.

    forms is the entry's two linear forms: a continued fraction's stated
    numerator and denominator (rhs, and rhs one m back), or a lemma's (lhs, rhs).
    """

    def __new__(cls, *fields):
        # Enum passes the fields of a tuple value as arguments. The values
        # stay 1, 2, ... in declaration order, as auto() would number them.
        member = object.__new__(cls)
        member._value_ = len(cls.__members__) + 1
        member.lhs, member.rhs, member.k_min, member.m_step = fields
        if member.is_lemma:
            member.forms, lins = (member.lhs, member.rhs), []
        else:
            # [c; x] = c + 1/x, so a convergent's denominator is the numerator
            # of the fraction one term shorter: N(m - 1), each index a*m + b
            # read at b - a. It is m - 1, the continued-fraction relation, and
            # not m - m_step: every continued-fraction entry has m_step 1.
            member.forms = member.rhs, tuple((coef, x, a, b - a, p) for coef, x, a, b, p in member.rhs)
            lins = [member.lhs.base, member.lhs.tail]
        lins += [lin for form in member.forms for coef, *_, p in form for lin in (coef, p)]
        member.takes_k = any(lin is not None and lin.c1 for lin in lins)  # k appears in the record
        return member

    ID117 = _Entry(_Cf(4, tail=3), (_t(1, "fib_comb", 3, 3),))
    ID118 = _Entry(_Cf(4, tail=5), (_t(1, "fib_comb", 3, 4),))
    ID_LUCAS7 = _Entry(_Cf(4, tail=7), (_t(1, "lucas", 3, 4),))
    THM1_GIBONACCI = _Entry(_Cf(4, tail=_Lin(3, 2)), (_t(1, "gibonacci", 3, 4, p=_K),))
    THM2_FIB_FORM = _Entry(_Cf(4, tail=_Lin(3, 2)), (_t(1, "fib", 3, 4), _t(_K, "fib", 3, 3)))
    THM3_ONES = _Entry(_Cf(1, tail=_K), (_t(1, "fib", 1, 2), _t(_Lin(-1, 1), "fib", 1, 1)))
    THM4_ELEVEN3 = _Entry(_Cf(11, tail=3), (_t(1, "fib", 5, 4),))
    THM5_SWAPPED_LUCAS = _Entry(_Cf(11, extra=1), (_t(1, "lucas_swapped", 5, 5), _t(-1, "lucas_swapped", 5, -5)))
    THM6_ELEVEN_FIB = _Entry(_Cf(11, extra=1), (_t(1, "fib", 5, 10),))
    THM7_FOURS = _Entry(_Cf(4, extra=1), (_t(1, "scaled_fib", 1, 2, p=3),))
    THM8_TWENTYNINES = _Entry(_Cf(29, extra=1), (_t(1, "scaled_fib", 1, 2, p=7),))
    COR_GENERAL_LUCAS = _Entry(
        _Cf(_Lin(1, 2, of="lucas"), extra=1), (_t(1, "scaled_fib", 1, 2, p=_Lin(1, 2)),), k_min=0
    )
    EXT_ELEVEN8 = _Entry(_Cf(11, tail=8), (_t(1, "fib", 5, 6),))
    EXT_ELEVEN13 = _Entry(_Cf(11, tail=13), (_t(1, "fib", 5, 7),))
    LEM_3F = _Entry((_t(3, "fib", 1, 0),), (_t(1, "fib", 1, 2), _t(1, "fib", 1, -2)))
    LEM_4F = _Entry(
        (_t(4, "fib", 1, 0),),
        (_t(1, "fib", 1, 2), _t(1, "fib", 1, 0), _t(1, "fib", 1, -2)),
    )
    LEM_L32 = _Entry((_t(1, "lucas", 1, 0),), (_t(1, "fib", 1, 1), _t(1, "fib", 1, -1)))
    LEM_F9 = _Entry((_t(1, "fib", 1, 9),), (_t(1, "fib", 1, -1), _t(11, "fib", 1, 4)))
    LEM_11F = _Entry((_t(11, "fib", 1, 4),), tuple(_t(1, "fib", 1, b) for b in (0, 2, 4, 6, 8)))
    LEM_29F = _Entry((_t(1, "fib", 1, 0), _t(29, "fib", 1, 7)), (_t(1, "fib", 1, 14),))
    LEM_BRIDGE = _Entry(
        (_t(5, "lucas_swapped", 1, 0), _t(-5, "lucas_swapped", 1, -10)),
        (_t(1, "fib", 1, 5),),
        m_step=5,
    )

    @property
    def is_lemma(self) -> bool:
        return not isinstance(self.lhs, _Cf)


class Status(Enum):
    PASS = auto()
    FAIL = auto()
    SKIPPED = auto()


# Read on every case; a module global is cheaper to load than an Enum attribute.
_PASS, _FAIL, _SKIPPED = Status.PASS, Status.FAIL, Status.SKIPPED


class CaseParams(NamedTuple):
    """One instance of a catalog entry: repetition count m, family parameter k."""

    m: int
    k: int | None = None


class CheckOutcome(NamedTuple):
    status: Status
    lhs: Rational | None
    rhs: Rational | None
    note: str = ""


def _case(ident: IdentityId, params: CaseParams) -> tuple[int, int | None]:
    """The case's (m, k), after checking that it lies in the entry's domain, as the one-case grid."""
    m, k = params
    _case_grid(ident, (m, m), None if k is None else (k, k))
    return m, k


# --- the reference route: every value computed directly ---------------------


def _runs(left: _Cf, m: int, k: int | None) -> list[tuple[int, int]]:
    """The (value, count) runs of a left side at (m, k)."""
    runs = [(left.base(k), m + left.extra)]
    if left.tail is not None:
        runs.append((left.tail(k), 1))
    return runs


def _form_value(form: tuple[tuple, ...], m: int, k: int | None) -> int:
    """The sum of coef(k) * X(a*m + b) over the form's terms, each X called directly."""
    total = 0
    for coef, x, a, b, p in form:
        fn = getattr(sequences, x)
        n = a * m + b
        total += coef(k) * (fn(n) if p is None else fn(p(k), n))
    return total


def _verdict(p: int, q: int, num: int, den: int) -> Status:
    """The status of a left side p/q (coprime, q >= 0; q = 0: undefined) against the ratio num/den."""
    if den == 0:
        return _FAIL if q else _SKIPPED
    if q == 0:
        return _FAIL
    # p/q is reduced with q > 0, so num/den equals it iff (num, den) is an
    # integer multiple g*(p, q). Most stated ratios are the left side's own
    # terms, g = 1, which need no division.
    if den == q:
        return _PASS if num == p else _FAIL
    g, rem = divmod(den, q)
    return _PASS if rem == 0 and num == g * p else _FAIL


def _record(status: Status, p: int, q: int, num: int, den: int, reduced=Rational) -> CheckOutcome:
    """The outcome record of a case _verdict() decided; only a failing right side is reduced, as reduced(num, den).

    run_case() reduces it with Rational, by math.gcd; a sweep passes the
    reducer of _engine.sweep_records(), which needs no gcd for a lemma's
    side, an integer over 1 and so already reduced, and carries g from case
    to case.
    """
    lhs = Rational._coprime(p, q) if q else None
    if status is _PASS:
        return CheckOutcome(_PASS, lhs, lhs)
    if den == 0:
        return CheckOutcome(status, lhs, None, "right side undefined" if q else "both sides undefined")
    return CheckOutcome(_FAIL, lhs, reduced(num, den), "values differ" if q else "left side undefined")


def run_case(ident: IdentityId, params: CaseParams) -> CheckOutcome:
    """Check one case of either kind; a lemma lhs = rhs is decided as lhs/1 against the ratio rhs/1."""
    m, k = _case(ident, params)
    first, second = (_form_value(form, m, k) for form in ident.forms)
    if ident.is_lemma:
        p, q, num, den = first, 1, second, 1
    else:
        num, den = first, second
        try:
            lhs = evaluate_runs(_runs(ident.lhs, m, k))
            p, q = lhs.num, lhs.den
        except UndefinedValue:
            p = q = 0
    return _record(_verdict(p, q, num, den), p, q, num, den)


def _case_grid(
    ident: IdentityId,
    m_range: tuple[int, int],
    k_range: tuple[int, int] | None,
) -> tuple[range, range | tuple[None]]:
    """The grid's m values and k values ((None,): the entry takes no k), after checking it.

    Every check that can fail runs here, before the first case is made:
    the ranges must be nonempty, k must be given exactly when the entry
    takes it, and the grid must lie in the entry's domain and hold at
    least one case of it. A single case is checked as its one-case grid.
    """
    m_lo, m_hi = m_range
    if m_lo > m_hi:
        raise EmptyRange(f"empty m range {m_lo}..{m_hi}")
    if ident.takes_k:
        if k_range is None:
            raise MissingParam(f"{ident.name} needs k")
        k_lo, k_hi = k_range
        if k_lo > k_hi:
            raise EmptyRange(f"empty k range {k_lo}..{k_hi}")
    elif k_range is not None:
        raise ExtraParam(f"{ident.name} takes no k")
    if m_lo < 0:
        raise BadDomain(f"m must be >= 0, got {m_lo}")
    if ident.k_min is not None and k_lo < ident.k_min:
        raise BadDomain(f"{ident.name} needs k >= {ident.k_min}, got {k_lo}")
    step = ident.m_step
    ms = range(m_lo + -m_lo % step, m_hi + 1, step)
    if not ms:
        raise BadDomain(f"{ident.name} is stated for multiples of {step}, none in m = {m_lo}..{m_hi}")
    return ms, range(k_lo, k_hi + 1) if ident.takes_k else (None,)


def sweep(
    ident: IdentityId,
    m_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
) -> Iterator[tuple[CaseParams, CheckOutcome]]:
    """Check every case in the parameter grid, yielding (params, outcome) in (m, k) order.

    The grid is checked when this is called, so a bad range raises before
    any case runs; the cases are then computed by the stepped engine as the
    result is consumed, and equal run_case() on each of them. The m interval
    is filtered to the entry's domain (multiples of 5 for LEM_BRIDGE).
    """
    from ._engine import sweep_cases, sweep_records  # compiled only by the commands that sweep

    batches, record = sweep_cases(ident, m_range, k_range), sweep_records()
    return ((CaseParams(m, k), record(*decided)) for m, kb, *columns in batches for k, *decided in zip(kb, *columns))


def fit_uniform(c: int, n_max: int) -> int | None:
    """Fit the uniform continued fraction [c, c, ..., c] to a scaled-Fibonacci family.

    Returns the odd t with lucas(t) = c, provided COR_GENERAL_LUCAS passes at
    k = (t-1)/2 for every m < n_max, that is [c]*n = S_t(n+1) / S_t(n) for
    every 1 <= n <= n_max; returns None when c is not an odd-index Lucas
    number or any length breaks the pattern.
    """
    if n_max < 3:
        raise UsageError(f"need n_max >= 3 for a meaningful fit, got {n_max}")
    t = lucas_odd_index_of(c)
    if t is None:
        return None
    from ._engine import sweep_cases

    batches = sweep_cases(IdentityId.COR_GENERAL_LUCAS, (0, n_max - 1), (t // 2, t // 2))
    return t if all(status is _PASS for _, _, statuses, *_ in batches for status in statuses) else None
