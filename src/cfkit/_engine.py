"""The stepped engine behind every grid: identities.sweep(), fit_uniform() and the sweep command.

sweep_cases() is the one grid entry: it checks the grid with
identities._case_grid() when it is called, so a bad grid raises before any
case is made, and returns the grid's cases as batches. A state (_state)
yields each case's p, q, num and den at each m as linear forms in k, and
does each step once. One matrix power seeds the left prefix, the
continued-fraction recurrence steps it, and _left() applies the tail to
it where it is stepped. The terms of one side that read one function with
one lead value at one stride, whole strides apart, read one
`sequences.walk`; a continued fraction's two forms are one side, a
lemma's are two, and the left side shares nothing with them. A form
is P(m) + k*Q(m), where Q is 0 unless a coefficient has a k part. A
gibonacci term G_p(n) is read as the two F terms F(n) + p*F(n - 1)
(_terms()), so THM1_GIBONACCI's G_k is a P + k*Q form like
THM2_FIB_FORM's. Only where k changes the base or a sequence
(COR_GENERAL_LUCAS) is there one state per k, so its memory grows with
the k range.

The cases come out in batches of one m and at most _BATCH consecutive k.
Each of p, q, num and den is c + k*d along a batch, a column made by one
running addition. Where num's (c, d) is p's and den's is q's, the stated
ratio and the left side are the same linear forms in k, so they are equal
at every k (the degree-1 case of a C-finite identity): the batch is
decided by comparing those pairs, each case passing except where q = 0,
whose two sides are both undefined (SKIPPED), as identities._verdict()
decides it. Every batch of k in the catalog is such a batch; any other
goes to identities._verdict() case by case. sweep_records() builds the
records a sweep writes or yields, and
carries a failing right side's gcd from case to case. A batch's size is
fixed, so the memory a sweep holds grows neither with its m range nor,
with one state, with its k range. Its callers import this module on
first use, so the commands other than sweep and fit do not compile it.
"""

from collections import deque
from collections.abc import Iterator
from itertools import accumulate, islice, repeat
from math import gcd
from operator import itemgetter, mul

from . import _products, identities, sequences
from .identities import _PASS, _SKIPPED, IdentityId, _Lin
from .rational import Rational

# The most consecutive k one batch holds: enough that a case costs a step
# of a column, not a pass through the generators, and few enough that a
# sweep's memory does not grow with its k range, as whole rows of k would.
_BATCH = 64

def _terms(form: tuple[tuple, ...]) -> list[tuple]:
    """The form's terms, each G_p(n) written as F(n) + p*F(n - 1) where coef(k) * p(k) stays linear in k.

    G is defined for n >= 0 only, and every G index a*m + b of the catalog
    is at least 1, so the two F terms equal it wherever it is read.
    """
    terms = []
    for coef, x, a, b, p in form:
        if x == "gibonacci" and not (coef.c1 and p.c1):
            coef_p = _Lin(coef.c0 * p.c0, coef.c0 * p.c1 + coef.c1 * p.c0)  # coef(k) * p(k)
            terms += (coef, "fib", a, b, None), (coef_p, "fib", a, b - 1, None)
        else:
            terms.append((coef, x, a, b, p))
    return terms


def _left(left: "identities._Cf", k: int | None, m: int) -> Iterator[tuple]:
    """The left side's p and q at m, m + 1, ..., each a pair (c, d) for c + k*d.

    It steps one term per m: every continued-fraction entry has m_step 1.
    The prefix [c]^(m+e) is (p, p', q, q'). Each term c is appended by the
    recurrence (c*p + p', p, c*q + q', q). A power of [[c, 1], [1, 0]] is
    symmetric, p' = q, so that step is (c*p + q, p, p, q): one product.
    Without a tail the left side is p/q; a tail t = t0 + k*t1 makes it
    (t*p + p')/(t*q + q'), that is (t0*p + q, t1*p) over (t0*q + q', t1*q).
    """
    c, tail = left.base(k), left.tail
    p, q, _, q_prev = _products._run_power(c, m + left.extra)
    while True:
        if tail is None:
            yield (p, 0), (q, 0)
        else:
            yield (tail.c0 * p + q, tail.c1 * p), (tail.c0 * q + q_prev, tail.c1 * q)
        p, q, q_prev = c * p + q, p, q


def _linear(coefs: list[int], lo: int):
    """xs -> the sum of coefs[i] * xs[lo + i], as a function of a step's tuple xs; None where every coef is 0.

    Where coefs[i] = 1 is the one nonzero coef, the function is xs[lo + i] itself, with nothing multiplied.
    """
    nonzero = [(i, c) for i, c in enumerate(coefs, lo) if c]
    if len(nonzero) == 1 and nonzero[0][1] == 1:
        return itemgetter(nonzero[0][0])
    return (lambda xs: sum(map(mul, coefs, xs[lo:]))) if nonzero else None


def _state(ident: IdentityId, k: int | None, ms: range, number=int) -> Iterator[tuple]:
    """(p, q, num, den) of the case at k at each m of ms, each a pair (P, Q) for P + k*Q.

    A continued fraction's p and q are its left side's (_left()), num and
    den its two forms; a lemma's case is first/1 against second/1. A form's
    value is P + k*Q, of the type number; Q is the int 0 where no
    coefficient of the form has a k part.

    A stream is the terms of one side that read one X with one lead value
    at one stride a*m_step, their starts a*m + b whole strides apart. Its
    walk starts at the lowest start and fills a window of its last
    max(lags) + 1 values, which each term reads at its lag: a stream holds
    that many values, where itertools.tee would keep blocks of 57 alive.
    The state is an iterator that holds the walks, the windows, the left
    side and the two forms' sums, and none of the setup that made them.
    """
    m, m_step = ms[0], ms.step
    forms = [_terms(form) for form in ident.forms]
    streams = {}
    for j, (_, x, a, b, t) in enumerate(forms[0] + forms[1]):
        # A continued fraction's two forms are one side, a lemma's are two.
        side, stride, n = ident.is_lemma and j >= len(forms[0]), a * m_step, a * m + b
        streams.setdefault((side, x, () if t is None else (t(k),), stride, n % stride), []).append((n, j))
    feeds, readers = [], [None] * sum(map(len, forms))
    for (_, x, lead, stride, _), terms in streams.items():
        n0 = min(terms)[0]
        walk, lags = sequences.walk(x, lead, n0, stride, number), [(n - n0) // stride for n, _ in terms]
        window = deque(islice(walk, max(lags)), maxlen=max(lags) + 1)
        feeds.append(map(window.append, walk))  # zipped before the readers: each step appends, then they read
        for lag, (_, j) in zip(lags, terms):
            readers[j] = map(itemgetter(lag), repeat(window))
    los = len(feeds), len(feeds) + len(forms[0])  # where each form's values start in a step's tuple
    (p, pk), (q, qk) = (
        (_linear([c.c0 for c, *_ in f], lo), _linear([c.c1 for c, *_ in f], lo)) for f, lo in zip(forms, los)
    )

    def case(pq, xs):
        first, second = (p(xs), pk(xs) if pk else 0), (q(xs), qk(xs) if qk else 0)
        return (first, (1, 0), second, (1, 0)) if pq is None else (*pq, first, second)

    left = repeat(None) if ident.is_lemma else _left(ident.lhs, k, m)
    # The left side and the walks go on forever; the state ends with ms.
    return islice(map(case, left, zip(*feeds, *readers)), len(ms))


def _state_depends_on_k(ident: IdentityId) -> bool:
    """Whether k changes the base or a sequence (not only a tail or a coefficient)."""
    if not ident.is_lemma and ident.lhs.base.c1:
        return True
    return any(p is not None and p.c1 for form in ident.forms for *_, p in _terms(form))


def _column(c: int, d: int, k0: int, n: int) -> list[int]:
    """c + k*d for the n consecutive k from k0: each value is the one before plus d."""
    return list(accumulate(repeat(d, n - 1), initial=c + k0 * d))


def sweep_cases(
    ident: IdentityId, m_range: tuple[int, int], k_range: tuple[int, int] | None, number=int
) -> Iterator[tuple]:
    """Every case of the grid in (m, k) order, as batches (m, kb, statuses, ps, qs, nums, dens).

    The grid is checked (identities._case_grid()) on the call, before any
    case is made. kb is a slice of the grid's k values, (None,) for an
    entry without k: at most _BATCH consecutive k, or the one k of a per-k
    state. The other five are lists in kb's order: each case's Status, its
    left side p/q, coprime with q >= 0 (q = 0: undefined), and its stated
    ratio num/den; a lemma first = second is first/1 against second/1. The
    states are seeded at the grid's first m and stepped in m. The forms'
    values are of the type number (see sequences.walk): int, or
    decimal.Decimal for a lemma, whose case needs only +, * and ==.
    """
    return _batches(ident, *identities._case_grid(ident, m_range, k_range), number)


def _batches(ident: IdentityId, ms: range, ks: range | tuple[None], number) -> Iterator[tuple]:
    """sweep_cases()'s batches over the checked grid ms x ks."""
    # identities._verdict, the one comparison run_case() decides every case
    # with, looked up when the sweep starts.
    verdict = identities._verdict
    # One state for the grid, or one per k where k changes more than the
    # tail and the coefficients.
    per_k = _state_depends_on_k(ident)
    states = [_state(ident, k, ms, number) for k in (ks if per_k else (None,))]
    step = 1 if per_k else _BATCH
    starts = range(0, len(ks), step)
    for m, *values in zip(ms, *states):
        for i in starts:
            kb = ks[i : i + step]
            n = len(kb)
            p, q, num, den = values[i if per_k else 0]
            if n == 1:
                # A batch of one case (no k, or a state per k) is computed
                # directly: four one-item columns would cost more than the
                # arithmetic of a small case.
                (pc, pd), (qc, qd), (nc, nd), (dc, dd) = p, q, num, den
                k = kb[0]
                if k is not None:
                    pc, qc, nc, dc = pc + k * pd, qc + k * qd, nc + k * nd, dc + k * dd
                if qc < 0:
                    pc, qc = -pc, -qc
                yield m, kb, [verdict(pc, qc, nc, dc)], [pc], [qc], [nc], [dc]
                continue
            # A ratio column with its left column's pair is that column. Where
            # both are, the ratio is the left side's own forms, equal at every
            # k: g = 1 in _verdict(), or g = -1 once a negative q is flipped
            # with its p, and both sides undefined where q = 0. same_forms is
            # read before the flip, which makes new left columns.
            k0 = kb[0]
            ps, qs = _column(*p, k0, n), _column(*q, k0, n)
            nums = ps if num == p else _column(*num, k0, n)
            dens = qs if den == q else _column(*den, k0, n)
            same_forms = nums is ps and dens is qs
            statuses = ([_PASS] * n if all(qs) else [_PASS if y else _SKIPPED for y in qs]) if same_forms else None
            if qs[0] < 0 or qs[-1] < 0:  # q is linear in k: a negative q in kb puts one at an end
                ps = [-x if y < 0 else x for x, y in zip(ps, qs)]
                qs = list(map(abs, qs))
            if statuses is None:
                statuses = list(map(verdict, ps, qs, nums, dens))
            yield m, kb, statuses, ps, qs, nums, dens


def sweep_records():
    """identities._record() for the consecutive cases of one sweep; it keeps the last failing right side's gcd.

    A right side over 1 (a lemma's) is reduced as it is, so its values may
    be any exact integer type. Any other num/den is reduced by
    g = gcd(num, den), and (num, den, g, num // g) is kept for the next one.
    Where den is the last num and num - (num // den)*den is +-the last den,
    Euclid's step gives gcd(num, den) = gcd(den, last den) = the last g, so
    one division with a small quotient stands in for the gcd, and den // g
    is the last num // g (in THM5_SWAPPED_LUCAS den is the last num on
    every case and g = 11); otherwise g is math.gcd's. Every den reduced
    here is nonzero. _cli_cases.cmd_sweep() and identities.sweep() build
    their records with it; run_case() keeps the plain _record().
    """
    record, coprime = identities._record, Rational._coprime
    last_num = last_den = last_num_g = g = None

    def reduced(num: int, den: int) -> Rational:
        nonlocal last_num, last_den, last_num_g, g
        if den == 1:
            return coprime(num, 1)
        carried = den == last_num and num % den in (last_den, -last_den)
        g = g if carried else gcd(num, den)
        den_g = last_num_g if carried else den // g
        last_num, last_den, last_num_g = num, den, num // g
        return coprime(last_num_g, den_g)

    return lambda status, p, q, num, den: record(status, p, q, num, den, reduced)
