"""Machine-checkable catalog of continued-fraction and sequence identities.

Each continued-fraction entry pairs a term constructor with an exact
rational right-hand side (rhs_value). The constructor returns (value,
count) runs such as [(4, m), (3, 1)] for [4]*m + [3]; check() evaluates
them with evaluate_runs() under the forward convergent semantics and
compares, while lhs_terms() returns the expanded term list. Lemma entries
(LEM_*) are exact integer equations checked by check_lemma(). Every
entry point validates a case exactly once; run_case() checks either kind.
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
    THM1_GIBONACCI     [4]*m + [2k+3]     G_k(3m+4) / G_k(3m+1)          (k in Z)
    THM2_FIB_FORM      [4]*m + [2k+3]     (F(3m+4) + k*F(3m+3)) / (F(3m+1) + k*F(3m))
    THM3_ONES          [1]*m + [k]        (F(m+2) + (k-1)*F(m+1)) / (F(m+1) + (k-1)*F(m))
    THM4_ELEVEN3       [11]*m + [3]       F(5m+4) / F(5m-1)
    THM5_SWAPPED_LUCAS [11]*(m+1)         (l(5m+5) - l(5m-5)) / (l(5m) - l(5m-10))
    THM6_ELEVEN_FIB    [11]*(m+1)         F(5m+10) / F(5m+5)
    THM7_FOURS         [4]*(m+1)          S_3(m+2) / S_3(m+1)
    THM8_TWENTYNINES   [29]*(m+1)         S_7(m+2) / S_7(m+1)
    COR_GENERAL_LUCAS  [L(2k+1)]*(m+1)    S_{2k+1}(m+2) / S_{2k+1}(m+1)  (k >= 0)
    EXT_ELEVEN8        [11]*m + [8]       F(5m+6) / F(5m+1)
    EXT_ELEVEN13       [11]*m + [13]      F(5m+7) / F(5m+2)

Lemmas (exact integer equations at index m >= 0):

    LEM_3F       3*F(m) = F(m+2) + F(m-2)
    LEM_4F       4*F(m) = F(m+2) + F(m) + F(m-2)
    LEM_L32      L(m) = F(m+1) + F(m-1)
    LEM_F9       F(m+9) = F(m-1) + 11*F(m+4)
    LEM_11F      11*F(m+4) = F(m) + F(m+2) + F(m+4) + F(m+6) + F(m+8)
    LEM_29F      F(m) + 29*F(m+7) = F(m+14)
    LEM_BRIDGE   5*(l(m) - l(m-10)) = F(m+5)   (m a multiple of 5)

Two caveats the harness itself demonstrates:

  * THM5_SWAPPED_LUCAS agrees with the evaluated convergent only for
    m <= 2. From m = 3 on the l-difference form drifts below the true
    value (first counterexample: [11,11,11,11] = 15005/1353 while the
    differences give 15004/1353): the irregular seeds l_0 = 1, l_1 = 2
    only compensate the ten-step index shift while an index below 2 is
    involved. The entry is kept verbatim so sweeps surface exactly where
    it stops holding; THM6_ELEVEN_FIB is the form that holds for all m.
  * LEM_BRIDGE holds for m in {0, 5, 10, 15} and fails from m = 20 on
    (5*(l_20 - l_10) = 75020 but F_25 = 75025), for the same seed reason.
"""

from __future__ import annotations

from collections.abc import Iterator
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


class IdentityId(Enum):
    ID117 = auto()
    ID118 = auto()
    ID_LUCAS7 = auto()
    THM1_GIBONACCI = auto()
    THM2_FIB_FORM = auto()
    THM3_ONES = auto()
    THM4_ELEVEN3 = auto()
    THM5_SWAPPED_LUCAS = auto()
    THM6_ELEVEN_FIB = auto()
    THM7_FOURS = auto()
    THM8_TWENTYNINES = auto()
    COR_GENERAL_LUCAS = auto()
    EXT_ELEVEN8 = auto()
    EXT_ELEVEN13 = auto()
    LEM_3F = auto()
    LEM_4F = auto()
    LEM_L32 = auto()
    LEM_F9 = auto()
    LEM_11F = auto()
    LEM_29F = auto()
    LEM_BRIDGE = auto()

    @property
    def is_lemma(self) -> bool:
        return self.name.startswith("LEM_")

    @property
    def takes_k(self) -> bool:
        return self in _K_IDENTITIES


_K_IDENTITIES = frozenset(
    {
        IdentityId.THM1_GIBONACCI,
        IdentityId.THM2_FIB_FORM,
        IdentityId.THM3_ONES,
        IdentityId.COR_GENERAL_LUCAS,
    }
)


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


def _thm5_rhs(m: int) -> tuple[int, int]:
    num = lucas_swapped(5 * m + 5) - lucas_swapped(5 * m - 5)
    den = lucas_swapped(5 * m) - lucas_swapped(5 * m - 10)
    return num, den


# entry -> (runs of the left side, unreduced (num, den) of the right side)
_CF_CATALOG = {
    IdentityId.ID117: (
        lambda p: [(4, p.m), (3, 1)],
        lambda p: (fib_comb(3 * p.m + 3), fib_comb(3 * p.m)),
    ),
    IdentityId.ID118: (
        lambda p: [(4, p.m), (5, 1)],
        lambda p: (fib_comb(3 * p.m + 4), fib_comb(3 * p.m + 1)),
    ),
    IdentityId.ID_LUCAS7: (
        lambda p: [(4, p.m), (7, 1)],
        lambda p: (lucas(3 * p.m + 4), lucas(3 * p.m + 1)),
    ),
    IdentityId.THM1_GIBONACCI: (
        lambda p: [(4, p.m), (2 * p.k + 3, 1)],
        lambda p: (gibonacci(p.k, 3 * p.m + 4), gibonacci(p.k, 3 * p.m + 1)),
    ),
    IdentityId.THM2_FIB_FORM: (
        lambda p: [(4, p.m), (2 * p.k + 3, 1)],
        lambda p: (
            fib(3 * p.m + 4) + p.k * fib(3 * p.m + 3),
            fib(3 * p.m + 1) + p.k * fib(3 * p.m),
        ),
    ),
    IdentityId.THM3_ONES: (
        lambda p: [(1, p.m), (p.k, 1)],
        lambda p: (
            fib(p.m + 2) + (p.k - 1) * fib(p.m + 1),
            fib(p.m + 1) + (p.k - 1) * fib(p.m),
        ),
    ),
    IdentityId.THM4_ELEVEN3: (
        lambda p: [(11, p.m), (3, 1)],
        lambda p: (fib(5 * p.m + 4), fib(5 * p.m - 1)),
    ),
    IdentityId.THM5_SWAPPED_LUCAS: (
        lambda p: [(11, p.m + 1)],
        lambda p: _thm5_rhs(p.m),
    ),
    IdentityId.THM6_ELEVEN_FIB: (
        lambda p: [(11, p.m + 1)],
        lambda p: (fib(5 * p.m + 10), fib(5 * p.m + 5)),
    ),
    IdentityId.THM7_FOURS: (
        lambda p: [(4, p.m + 1)],
        lambda p: (scaled_fib(3, p.m + 2), scaled_fib(3, p.m + 1)),
    ),
    IdentityId.THM8_TWENTYNINES: (
        lambda p: [(29, p.m + 1)],
        lambda p: (scaled_fib(7, p.m + 2), scaled_fib(7, p.m + 1)),
    ),
    IdentityId.COR_GENERAL_LUCAS: (
        lambda p: [(lucas(2 * p.k + 1), p.m + 1)],
        lambda p: (scaled_fib(2 * p.k + 1, p.m + 2), scaled_fib(2 * p.k + 1, p.m + 1)),
    ),
    IdentityId.EXT_ELEVEN8: (
        lambda p: [(11, p.m), (8, 1)],
        lambda p: (fib(5 * p.m + 6), fib(5 * p.m + 1)),
    ),
    IdentityId.EXT_ELEVEN13: (
        lambda p: [(11, p.m), (13, 1)],
        lambda p: (fib(5 * p.m + 7), fib(5 * p.m + 2)),
    ),
}

_LEMMA_CATALOG = {
    IdentityId.LEM_3F: lambda m: (3 * fib(m), fib(m + 2) + fib(m - 2)),
    IdentityId.LEM_4F: lambda m: (4 * fib(m), fib(m + 2) + fib(m) + fib(m - 2)),
    IdentityId.LEM_L32: lambda m: (lucas(m), fib(m + 1) + fib(m - 1)),
    IdentityId.LEM_F9: lambda m: (fib(m + 9), fib(m - 1) + 11 * fib(m + 4)),
    IdentityId.LEM_11F: lambda m: (
        11 * fib(m + 4),
        fib(m) + fib(m + 2) + fib(m + 4) + fib(m + 6) + fib(m + 8),
    ),
    IdentityId.LEM_29F: lambda m: (fib(m) + 29 * fib(m + 7), fib(m + 14)),
    IdentityId.LEM_BRIDGE: lambda m: (
        5 * (lucas_swapped(m) - lucas_swapped(m - 10)),
        fib(m + 5),
    ),
}


def _validate(ident: IdentityId, params: CaseParams) -> None:
    if params.m < 0:
        raise BadDomain(f"m must be >= 0, got {params.m}")
    if ident.takes_k:
        if params.k is None:
            raise MissingParam(f"{ident.name} needs parameter k")
    elif params.k is not None:
        raise ExtraParam(f"{ident.name} takes no parameter k")
    if ident is IdentityId.COR_GENERAL_LUCAS and params.k < 0:
        raise BadDomain(f"{ident.name} needs k >= 0, got {params.k}")
    if ident is IdentityId.LEM_BRIDGE and params.m % 5 != 0:
        raise BadDomain(f"{ident.name} is stated for multiples of 5, got m = {params.m}")


def _cf_entry(ident: IdentityId, params: CaseParams) -> tuple:
    """The (terms, rhs) constructors of a continued-fraction case, after validating it."""
    if ident.is_lemma:
        raise NotACFIdentity(f"{ident.name} has no continued-fraction side")
    _validate(ident, params)
    return _CF_CATALOG[ident]


def lhs_terms(ident: IdentityId, params: CaseParams) -> list[int]:
    """The exact term list the identity prescribes for these parameters."""
    return _expand(_cf_entry(ident, params)[0](params))


def rhs_value(ident: IdentityId, params: CaseParams) -> Rational | None:
    """The identity's stated ratio, reduced, or None when its denominator is zero."""
    num, den = _cf_entry(ident, params)[1](params)
    return None if den == 0 else Rational(num, den)


def _cf_outcome(entry: tuple, params: CaseParams) -> CheckOutcome:
    """check() on a case its caller has validated."""
    make_runs, make_rhs = entry
    try:
        lhs = evaluate_runs(make_runs(params))
    except UndefinedValue:
        lhs = None
    num, den = make_rhs(params)
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


def _lemma_outcome(equation, params: CaseParams) -> CheckOutcome:
    """check_lemma() on a case its caller has validated."""
    lhs, rhs = equation(params.m)
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
    _validate(ident, params)
    return _lemma_outcome(_LEMMA_CATALOG[ident], params)


def run_case(ident: IdentityId, params: CaseParams) -> CheckOutcome:
    """Check one case of either kind: check() for identities, check_lemma() for lemmas."""
    _validate(ident, params)
    if ident.is_lemma:
        return _lemma_outcome(_LEMMA_CATALOG[ident], params)
    return _cf_outcome(_CF_CATALOG[ident], params)


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
    if ident is IdentityId.COR_GENERAL_LUCAS and k_lo < 0:
        raise BadDomain(f"{ident.name} needs k >= 0, got {k_lo}")
    if ident is IdentityId.LEM_BRIDGE:
        m_lo += -m_lo % 5
        if m_lo > m_hi:
            raise BadDomain(f"{ident.name} is stated for multiples of 5, none in {m_range[0]}..{m_hi}")
        ms = range(m_lo, m_hi + 1, 5)
    else:
        ms = range(m_lo, m_hi + 1)
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
    consumed, each through run_case(). For LEM_BRIDGE the m interval is
    filtered to the lemma's domain (multiples of 5).
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
