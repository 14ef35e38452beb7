"""The stepped engine behind every grid: identities.iter_sweep() and fit_uniform().

It reads the catalog's table (see `identities`). A state is the zip of the
left prefix's matrices and the two forms' values at each m of the grid:
one matrix power seeds the prefix and one product carries it to the next
m, and each term of a form is a `sequences.walk` at the stride of the
grid, which seeds it with direct calls and steps it from then on; a form
is P(m) + k*Q(m), made once per m. Where k changes the base or a sequence
there is one state per k, so memory grows with the k range and not with
the m range. A case then costs one product for its tail and one call of
identities._verdict(), and comes out as a plain tuple of ints and its
Status, with no record. identities._sweep_rows() imports this module on
first use, so the commands other than sweep and fit do not compile it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, repeat

from . import contfrac, identities, sequences
from .contfrac import _mul
from .identities import IdentityId


def _prefix(ident: IdentityId, k: int | None, m: int, m_step: int) -> Iterator:
    """The left prefix [c]^(m+e) as (p, p', q, q') at m, m + m_step, ...; None for a lemma."""
    if ident.is_lemma:
        return repeat(None)
    c = ident.lhs.base(k)
    first = contfrac._run_power(c, m + ident.lhs.extra)
    return accumulate(repeat(contfrac._run_power(c, m_step)), _mul, initial=first)


def _form(form: tuple[tuple, ...], k: int | None, m: int, m_step: int) -> Iterator[tuple[int, int]]:
    """(P, Q) with the form's value P + k*Q at m, m + m_step, ..."""
    coefs = [(coef.c0, coef.c1) for coef, *_ in form]
    walks = [
        sequences.walk(x, () if p is None else (p(k),), a * m + b, a * m_step) for _, x, a, b, p in form
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
    return zip(_prefix(ident, k, m, m_step), *(_form(form, k, m, m_step) for form in ident.forms))


def _state_depends_on_k(ident: IdentityId) -> bool:
    """Whether k changes the base or a sequence (not only a tail or a coefficient)."""
    if not ident.is_lemma and ident.lhs.base.c1:
        return True
    return any(p is not None and p.c1 for form in ident.forms for *_, p in form)


def sweep_cases(ident: IdentityId, ms: range, ks: range | tuple[None]) -> Iterator[tuple]:
    """Every case of the grid ms x ks as (m, k, status, p, q, num, den), in (m, k) order.

    The states are seeded at ms[0] and stepped in m. p/q is the left side,
    coprime with q >= 0 (q = 0: undefined), num/den the stated ratio; a
    lemma first = second is first/1 against second/1.
    """
    # identities._verdict, the one comparison run_case() decides every case
    # with, looked up when the sweep starts.
    verdict = identities._verdict
    tail = None if ident.is_lemma else ident.lhs.tail
    if tail is not None:
        t0, t1 = tail.c0, tail.c1  # inlined below; a call per case would cost as much as the product
    # One state for the grid, or one per k where k changes more than the
    # tail and the coefficients.
    per_k = _state_depends_on_k(ident)
    states = [_state(ident, k, ms) for k in (ks if per_k else (None,))]
    for m, *values in zip(ms, *states):
        for j, k in enumerate(ks):
            matrix, (a0, b0), (a1, b1) = values[j if per_k else 0]
            first = a0 + k * b0 if b0 else a0
            second = a1 + k * b1 if b1 else a1
            if matrix is None:
                yield m, k, verdict(first, 1, second, 1), first, 1, second, 1
                continue
            p, p_prev, q, q_prev = matrix
            if tail is not None:
                t = t0 + t1 * k if t1 else t0
                p, q = t * p + p_prev, t * q + q_prev
            if q < 0:
                p, q = -p, -q
            yield m, k, verdict(p, q, first, second), p, q, first, second
