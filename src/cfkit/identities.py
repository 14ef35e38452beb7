"""Machine-checkable catalog of continued-fraction and sequence identities.

Each entry is one IdentityId member, declared as its record: its two sides
as functions of the case (m, k) and its domain. A continued-fraction entry's
left side returns (value, count) runs such as [(4, m), (3, 1)] for
[4]*m + [3]; check() evaluates them with evaluate_runs() under the forward
convergent semantics and compares them with the exact rational right side
(rhs_value), while lhs_terms() returns the expanded term list. Lemma
entries (LEM_*) are exact integer equations checked by check_lemma().
Every entry point validates a case exactly once; run_case() checks either
kind.
iter_sweep() checks a whole parameter grid against the entry's domain up
front and then yields one (params, outcome) pair per case as it goes, so a
caller that consumes it case by case (the CLI does) holds one case at a
time; sweep() collects it into a SweepReport. Each outcome is
PASS/FAIL/SKIPPED; SKIPPED is reserved for cases whose two sides are both
undefined (a one-sided undefined is a FAIL).

The right-hand sides are computed as an unreduced (num, den) pair. The
left side p/q comes out of evaluate_runs() already reduced, so a case
passes exactly when den = g*q and num = g*p for some integer g: one exact
division decides it, the passing case reuses the left Rational as its
right side, and only a failing right side is reduced by gcd.

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

from __future__ import annotations

from collections.abc import Callable, Iterator
from enum import Enum, auto
from typing import NamedTuple

from .contfrac import _expand, evaluate_runs
from .errors import (
    BadDomain,
    ExtraParam,
    MissingParam,
    NotACFIdentity,
    NotALemma,
    UndefinedValue,
)
from .rational import Rational
from .sequences import (
    fib,
    fib_comb,
    gibonacci,
    lucas,
    lucas_odd_index_of,
    lucas_swapped,
    scaled_fib,
)


# The record each IdentityId member is declared as. lhs and rhs take the
# case's (m, k): for a continued-fraction entry lhs gives the (value, count)
# runs of its terms and rhs the unreduced (num, den); for a lemma each gives
# one integer. The domain: takes_k, k's lower bound k_min (None: every k), and
# m_step, the entry being stated only for multiples of it.
class _Entry(NamedTuple):
    lhs: Callable
    rhs: Callable
    takes_k: bool = False
    k_min: int | None = None
    m_step: int = 1


class IdentityId(Enum):
    """One catalog entry; the member carries its record's five fields as attributes."""

    def __new__(cls, *fields):
        # Enum passes the fields of a tuple value as arguments. The values
        # stay 1, 2, ... in declaration order, as auto() would number them.
        member = object.__new__(cls)
        member._value_ = len(cls.__members__) + 1
        member.lhs, member.rhs, member.takes_k, member.k_min, member.m_step = fields
        return member

    ID117 = _Entry(
        lambda m, k: [(4, m), (3, 1)],
        lambda m, k: (fib_comb(3 * m + 3), fib_comb(3 * m)),
    )
    ID118 = _Entry(
        lambda m, k: [(4, m), (5, 1)],
        lambda m, k: (fib_comb(3 * m + 4), fib_comb(3 * m + 1)),
    )
    ID_LUCAS7 = _Entry(
        lambda m, k: [(4, m), (7, 1)],
        lambda m, k: (lucas(3 * m + 4), lucas(3 * m + 1)),
    )
    THM1_GIBONACCI = _Entry(
        lambda m, k: [(4, m), (2 * k + 3, 1)],
        lambda m, k: (gibonacci(k, 3 * m + 4), gibonacci(k, 3 * m + 1)),
        takes_k=True,
    )
    THM2_FIB_FORM = _Entry(
        lambda m, k: [(4, m), (2 * k + 3, 1)],
        lambda m, k: (fib(3 * m + 4) + k * fib(3 * m + 3), fib(3 * m + 1) + k * fib(3 * m)),
        takes_k=True,
    )
    THM3_ONES = _Entry(
        lambda m, k: [(1, m), (k, 1)],
        lambda m, k: (fib(m + 2) + (k - 1) * fib(m + 1), fib(m + 1) + (k - 1) * fib(m)),
        takes_k=True,
    )
    THM4_ELEVEN3 = _Entry(
        lambda m, k: [(11, m), (3, 1)],
        lambda m, k: (fib(5 * m + 4), fib(5 * m - 1)),
    )
    THM5_SWAPPED_LUCAS = _Entry(
        lambda m, k: [(11, m + 1)],
        lambda m, k: (
            lucas_swapped(5 * m + 5) - lucas_swapped(5 * m - 5),
            lucas_swapped(5 * m) - lucas_swapped(5 * m - 10),
        ),
    )
    THM6_ELEVEN_FIB = _Entry(
        lambda m, k: [(11, m + 1)],
        lambda m, k: (fib(5 * m + 10), fib(5 * m + 5)),
    )
    THM7_FOURS = _Entry(
        lambda m, k: [(4, m + 1)],
        lambda m, k: (scaled_fib(3, m + 2), scaled_fib(3, m + 1)),
    )
    THM8_TWENTYNINES = _Entry(
        lambda m, k: [(29, m + 1)],
        lambda m, k: (scaled_fib(7, m + 2), scaled_fib(7, m + 1)),
    )
    COR_GENERAL_LUCAS = _Entry(
        lambda m, k: [(lucas(2 * k + 1), m + 1)],
        lambda m, k: (scaled_fib(2 * k + 1, m + 2), scaled_fib(2 * k + 1, m + 1)),
        takes_k=True,
        k_min=0,
    )
    EXT_ELEVEN8 = _Entry(
        lambda m, k: [(11, m), (8, 1)],
        lambda m, k: (fib(5 * m + 6), fib(5 * m + 1)),
    )
    EXT_ELEVEN13 = _Entry(
        lambda m, k: [(11, m), (13, 1)],
        lambda m, k: (fib(5 * m + 7), fib(5 * m + 2)),
    )
    LEM_3F = _Entry(lambda m, k: 3 * fib(m), lambda m, k: fib(m + 2) + fib(m - 2))
    LEM_4F = _Entry(
        lambda m, k: 4 * fib(m),
        lambda m, k: fib(m + 2) + fib(m) + fib(m - 2),
    )
    LEM_L32 = _Entry(lambda m, k: lucas(m), lambda m, k: fib(m + 1) + fib(m - 1))
    LEM_F9 = _Entry(lambda m, k: fib(m + 9), lambda m, k: fib(m - 1) + 11 * fib(m + 4))
    LEM_11F = _Entry(
        lambda m, k: 11 * fib(m + 4),
        lambda m, k: fib(m) + fib(m + 2) + fib(m + 4) + fib(m + 6) + fib(m + 8),
    )
    LEM_29F = _Entry(lambda m, k: fib(m) + 29 * fib(m + 7), lambda m, k: fib(m + 14))
    LEM_BRIDGE = _Entry(
        lambda m, k: 5 * (lucas_swapped(m) - lucas_swapped(m - 10)),
        lambda m, k: fib(m + 5),
        m_step=5,
    )

    @property
    def is_lemma(self) -> bool:
        return self.name.startswith("LEM_")


class Status(Enum):
    PASS = auto()
    FAIL = auto()
    SKIPPED = auto()


class CaseParams(NamedTuple):
    """One instance of a catalog entry: repetition count m, family parameter k."""

    m: int
    k: int | None = None


class CheckOutcome(NamedTuple):
    status: Status
    lhs: Rational | None
    rhs: Rational | None
    note: str = ""


class SweepReport(NamedTuple):
    """All outcomes of one identity over a parameter range, in (m, k) order."""

    identity: IdentityId
    cases: tuple[tuple[CaseParams, CheckOutcome], ...]

    @property
    def passed(self) -> int:
        return sum(o.status is Status.PASS for _, o in self.cases)

    @property
    def failed(self) -> int:
        return sum(o.status is Status.FAIL for _, o in self.cases)

    @property
    def skipped(self) -> int:
        return sum(o.status is Status.SKIPPED for _, o in self.cases)


def _validate(ident: IdentityId, params: CaseParams) -> IdentityId:
    """The entry, after checking that the case lies in its domain."""
    if params.m < 0:
        raise BadDomain(f"m must be >= 0, got {params.m}")
    if ident.takes_k:
        if params.k is None:
            raise MissingParam(f"{ident.name} needs parameter k")
    elif params.k is not None:
        raise ExtraParam(f"{ident.name} takes no parameter k")
    if ident.k_min is not None and params.k < ident.k_min:
        raise BadDomain(f"{ident.name} needs k >= {ident.k_min}, got {params.k}")
    if params.m % ident.m_step:
        raise BadDomain(f"{ident.name} is stated for multiples of {ident.m_step}, got m = {params.m}")
    return ident


def _cf_entry(ident: IdentityId, params: CaseParams) -> IdentityId:
    """A continued-fraction entry, after validating the case."""
    if ident.is_lemma:
        raise NotACFIdentity(f"{ident.name} has no continued-fraction side")
    return _validate(ident, params)


def lhs_terms(ident: IdentityId, params: CaseParams) -> list[int]:
    """The exact term list the identity prescribes for these parameters."""
    return _expand(_cf_entry(ident, params).lhs(params.m, params.k))


def rhs_value(ident: IdentityId, params: CaseParams) -> Rational | None:
    """The identity's stated ratio, reduced, or None when its denominator is zero."""
    num, den = _cf_entry(ident, params).rhs(params.m, params.k)
    return None if den == 0 else Rational(num, den)


def _cf_outcome(entry: IdentityId | _Entry, params: CaseParams) -> CheckOutcome:
    """check() on a case its caller has validated."""
    try:
        lhs = evaluate_runs(entry.lhs(params.m, params.k))
    except UndefinedValue:
        lhs = None
    num, den = entry.rhs(params.m, params.k)
    if den == 0:
        if lhs is None:
            return CheckOutcome(Status.SKIPPED, None, None, "both sides undefined")
        return CheckOutcome(Status.FAIL, lhs, None, "right side undefined")
    if lhs is None:
        return CheckOutcome(Status.FAIL, None, Rational(num, den), "left side undefined")
    # lhs is reduced with lhs.den > 0, so num/den equals it iff (num, den)
    # is an integer multiple of (lhs.num, lhs.den).
    g, rem = divmod(den, lhs.den)
    if rem == 0 and num == g * lhs.num:
        return CheckOutcome(Status.PASS, lhs, lhs)
    return CheckOutcome(Status.FAIL, lhs, Rational(num, den), "values differ")


def _lemma_outcome(entry: IdentityId, params: CaseParams) -> CheckOutcome:
    """check_lemma() on a case its caller has validated."""
    lhs, rhs = entry.lhs(params.m, params.k), entry.rhs(params.m, params.k)
    if lhs == rhs:
        value = Rational(lhs)
        return CheckOutcome(Status.PASS, value, value)
    return CheckOutcome(Status.FAIL, Rational(lhs), Rational(rhs), "values differ")


def check(ident: IdentityId, params: CaseParams) -> CheckOutcome:
    """Compare the evaluated terms against the stated ratio for one case.

    Undefinedness is data, not an error: both sides undefined is SKIPPED,
    one side undefined is a FAIL.
    """
    return _cf_outcome(_cf_entry(ident, params), params)


def check_lemma(ident: IdentityId, params: CaseParams) -> CheckOutcome:
    """Check one lemma instance as an exact integer equation."""
    if not ident.is_lemma:
        raise NotALemma(f"{ident.name} is not a lemma; use check()")
    return _lemma_outcome(_validate(ident, params), params)


def run_case(ident: IdentityId, params: CaseParams) -> CheckOutcome:
    """Check one case of either kind: check() for identities, check_lemma() for lemmas."""
    return (_lemma_outcome if ident.is_lemma else _cf_outcome)(_validate(ident, params), params)


def _case_grid(
    ident: IdentityId,
    m_range: tuple[int, int],
    k_range: tuple[int, int] | None,
) -> Iterator[CaseParams]:
    """The grid's cases in (m, k) order, after checking the grid as a whole.

    Every check that can fail runs here, before the first case is made:
    the ranges must be nonempty, k must be given exactly when the entry
    takes it, and the grid must lie in the entry's domain and hold at
    least one case of it.
    """
    m_lo, m_hi = m_range
    if m_lo > m_hi:
        raise ValueError(f"empty m range {m_lo}..{m_hi}")
    if ident.takes_k:
        if k_range is None:
            raise MissingParam(f"{ident.name} needs a k range")
        k_lo, k_hi = k_range
        if k_lo > k_hi:
            raise ValueError(f"empty k range {k_lo}..{k_hi}")
    elif k_range is not None:
        raise ExtraParam(f"{ident.name} takes no k range")
    if m_lo < 0:
        raise BadDomain(f"m must be >= 0, got {m_lo}")
    if ident.k_min is not None and k_lo < ident.k_min:
        raise BadDomain(f"{ident.name} needs k >= {ident.k_min}, got {k_lo}")
    step = ident.m_step
    ms = range(m_lo + -m_lo % step, m_hi + 1, step)
    if not ms:
        raise BadDomain(f"{ident.name} is stated for multiples of {step}, none in {m_lo}..{m_hi}")
    if ident.takes_k:
        ks = range(k_lo, k_hi + 1)
        return (CaseParams(m, k) for m in ms for k in ks)
    return map(CaseParams, ms)


def iter_sweep(
    ident: IdentityId,
    m_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
) -> Iterator[tuple[CaseParams, CheckOutcome]]:
    """Check every case in the parameter grid, yielding (params, outcome) in (m, k) order.

    The grid is checked when this is called, so a bad range raises before
    any case runs; the cases then run one at a time as the result is
    consumed, each through run_case(). The m interval is filtered to the
    entry's domain (multiples of 5 for LEM_BRIDGE).
    """
    grid = _case_grid(ident, m_range, k_range)
    return ((params, run_case(ident, params)) for params in grid)


def sweep(
    ident: IdentityId,
    m_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
) -> SweepReport:
    """Every outcome of iter_sweep(), collected into one report."""
    return SweepReport(ident, tuple(iter_sweep(ident, m_range, k_range)))


def fit_uniform(c: int, n_max: int) -> int | None:
    """Fit the uniform continued fraction [c, c, ..., c] to a scaled-Fibonacci family.

    Returns the odd t with lucas(t) = c, provided [c]*n evaluates to
    scaled_fib(t, n+1) / scaled_fib(t, n) for every 1 <= n <= n_max;
    returns None when c is not an odd-index Lucas number or any length
    breaks the pattern.
    """
    if c < 1:
        raise ValueError(f"expected c >= 1, got {c}")
    if n_max < 3:
        raise ValueError(f"need n_max >= 3 for a meaningful fit, got {n_max}")
    t = lucas_odd_index_of(c)
    if t is None:
        return None
    for n in range(1, n_max + 1):
        expected = Rational(scaled_fib(t, n + 1), scaled_fib(t, n))
        if evaluate_runs([(c, n)]) != expected:
            return None
    return t
