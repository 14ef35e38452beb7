"""The stepped engine behind every grid: identities.iter_sweep() and fit_uniform().

It reads the catalog's table (see `identities`). A state is the zip of the
left prefix's matrices and the two forms' values at each m of the grid:
one matrix power seeds the prefix and one product carries it to the next
m, and each term of a form is a `sequences.walk` at the stride of the
grid, which seeds it with direct calls and steps it from then on; a form
is P(m) + k*Q(m), made once per m. A sequence whose parameter enters
linearly is read as the F terms it sums (_IN_F), so THM1_GIBONACCI's
G_k is a P + k*Q form like THM2_FIB_FORM's. Only where k changes the base
or a sequence (COR_GENERAL_LUCAS) is there one state per k, so its memory
grows with the k range; every other entry has one state for the grid.

The cases come out in batches of one m and at most _BATCH consecutive k.
Each of p, q, num and den is c + k*d along a batch, so each is a column
of ints made by one running addition; where num's (c, d) is p's, or den's
is q's, the ratio column is the left column itself. A batch whose ratio
columns equal its left columns (every batch of k in the catalog, since
each stated ratio is its left side with g = +-1) is decided whole by
identities._own_ratio_verdicts(); any other batch, and a batch of one
case, goes to identities._verdict() case by case. No case gets a record.
A batch's size is fixed, so the memory a sweep holds grows neither with
its m range nor, with one state, with its k range.
identities._sweep_rows() imports this module on first use, so the
commands other than sweep and fit do not compile it.
"""

from collections.abc import Iterator
from itertools import accumulate, islice, repeat

from . import contfrac, identities, sequences
from .contfrac import _mul
from .identities import IdentityId, _Lin

# The most consecutive k one batch holds: enough that a case costs a step
# of a column, not a pass through the generators, and few enough that a
# sweep's memory does not grow with its k range, as whole rows of k would.
_BATCH = 64
# The most k of an m whose p strings a passing --json sweep keeps for the
# next m's q (_cli_cases.cmd_sweep): whole batches, and a fixed number, so
# the memory a sweep holds stays flat in its k range.
_HELD = 4 * _BATCH

# A sequence whose parameter p enters linearly, as the F terms it sums:
# X(p, n) = sum of p**e * F(n + s) over its (e, s), wherever X is defined.
# G is defined for n >= 0 only, and every G index a*m + b of the catalog
# is at least 1.
_IN_F = {"gibonacci": ((0, 0), (1, -1))}  # G_p(n) = F(n) + p*F(n - 1)


def _terms(form: tuple[tuple, ...]) -> list[tuple]:
    """The form's terms, each X of _IN_F written as its F terms where coef(k) * p(k) stays linear in k."""
    terms = []
    for coef, x, a, b, p in form:
        if x not in _IN_F or (coef.c1 and p.c1):
            terms.append((coef, x, a, b, p))
            continue
        for e, s in _IN_F[x]:
            c = _Lin(coef.c0 * p.c0, coef.c0 * p.c1 + coef.c1 * p.c0) if e else coef
            terms.append((c, "fib", a, b + s, None))
    return terms


def _prefix(ident: IdentityId, k: int | None, m: int, m_step: int) -> Iterator:
    """The left prefix [c]^(m+e) as (p, p', q, q') at m, m + m_step, ...; None for a lemma."""
    if ident.is_lemma:
        return repeat(None)
    c = ident.lhs.base(k)
    first = contfrac._run_power(c, m + ident.lhs.extra)
    return accumulate(repeat(contfrac._run_power(c, m_step)), _mul, initial=first)


def _form(form: tuple[tuple, ...], k: int | None, m: int, m_step: int) -> Iterator[tuple[int, int]]:
    """(P, Q) with the form's value P + k*Q at m, m + m_step, ..."""
    terms = _terms(form)
    coefs = [(coef.c0, coef.c1) for coef, *_ in terms]
    walks = [
        sequences.walk(x, () if p is None else (p(k),), a * m + b, a * m_step) for _, x, a, b, p in terms
    ]
    for xs in zip(*walks):
        p = q = 0
        for (c0, c1), x in zip(coefs, xs):
            p += c0 * x
            q += c1 * x
        yield p, q


def _state(ident: IdentityId, k: int | None, ms: range) -> Iterator[tuple]:
    """(prefix matrix, (P, Q) of the first form, (P, Q) of the second) at each m of ms."""
    m, m_step = ms[0], ms.step
    # The prefix and the walks go on forever; the state ends with ms.
    return islice(zip(_prefix(ident, k, m, m_step), *(_form(form, k, m, m_step) for form in ident.forms)), len(ms))


def _state_depends_on_k(ident: IdentityId) -> bool:
    """Whether k changes the base or a sequence (not only a tail or a coefficient)."""
    if not ident.is_lemma and ident.lhs.base.c1:
        return True
    return any(p is not None and p.c1 for form in ident.forms for *_, p in _terms(form))


def _column(c: int, d: int, k0: int, n: int) -> list[int]:
    """c + k*d for the n consecutive k from k0: each value is the one before plus d."""
    return list(accumulate(repeat(d, n - 1), initial=c + k0 * d)) if d else [c] * n


def sweep_cases(ident: IdentityId, ms: range, ks: range | tuple[None]) -> Iterator[tuple]:
    """Every case of the grid ms x ks in (m, k) order, as batches (m, kb, statuses, ps, qs, nums, dens).

    kb is a slice of ks: at most _BATCH consecutive k, or the one k of a
    per-k state. The other five are lists in kb's order: each case's Status,
    its left side p/q, coprime with q >= 0 (q = 0: undefined), and its
    stated ratio num/den; a lemma first = second is first/1 against
    second/1. The states are seeded at ms[0] and stepped in m.
    """
    # identities._verdict, the one comparison run_case() decides every case
    # with, and the column rule beside it, looked up when the sweep starts.
    verdict, own_ratio = identities._verdict, identities._own_ratio_verdicts
    tail = None if ident.is_lemma else ident.lhs.tail
    # One state for the grid, or one per k where k changes more than the
    # tail and the coefficients.
    per_k = _state_depends_on_k(ident)
    states = [_state(ident, k, ms) for k in (ks if per_k else (None,))]
    step = 1 if per_k else _BATCH
    starts = range(0, len(ks), step)
    for m, *values in zip(ms, *states):
        for i in starts:
            kb = ks[i : i + step]
            n = len(kb)
            matrix, first, second = values[i if per_k else 0]
            # Each of p, q, num and den is c + k*d, a pair (c, d) for the batch.
            if matrix is None:
                p, q, num, den = first, (1, 0), second, (1, 0)
            else:
                num, den = first, second
                p0, p1, q0, q1 = matrix
                if tail is None:
                    p, q = (p0, 0), (q0, 0)
                else:  # t*p0 + p1 with t = t0 + k*t1
                    p, q = (tail.c0 * p0 + p1, tail.c1 * p0), (tail.c0 * q0 + q1, tail.c1 * q0)
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
            # A ratio column with its left column's pair is that column, so
            # the column rule's comparison finds each case equal by identity.
            k0 = kb[0]
            ps, qs = _column(*p, k0, n), _column(*q, k0, n)
            nums = ps if num == p else _column(*num, k0, n)
            dens = qs if den == q else _column(*den, k0, n)
            statuses = own_ratio(ps, qs, nums, dens)
            if qs[0] < 0 or qs[-1] < 0:  # q is linear in k: a negative q in kb puts one at an end
                ps = [-x if y < 0 else x for x, y in zip(ps, qs)]
                qs = list(map(abs, qs))
            if statuses is None:
                statuses = list(map(verdict, ps, qs, nums, dens))
            yield m, kb, statuses, ps, qs, nums, dens
