"""The stepped sweep engine behind identities.iter_sweep().

It reads the catalog's table (see `identities`): it seeds one state at the
grid's first m, one matrix power for the left prefix and two sequence
values per term, and then carries it to each next m, so that a case costs
one product for its tail and the exact division that decides it. Cases
with a term in the irregular start of lucas_swapped go through run_case().
iter_sweep() imports this module on first use, so commands that do not
sweep do not compile it.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import contfrac, identities, sequences
from .contfrac import _mul
from .identities import CaseParams, CheckOutcome, IdentityId, _Lin
from .rational import Rational


def _seed(term: tuple, k: int | None, m: int, m_step: int) -> list[int]:
    """A term's stepping state at m: [y_i, y_{i+1}, F_{D-1}, F_D, F_{D+1}, d, c0, c1].

    y is a Fibonacci-type sequence with X(n) = y_{s*n} / d: X itself
    (s = d = 1), or F for scaled_fib (s = t, d = F_t). One step moves i by
    D = s*a*m_step; c0 + c1*k is the term's coefficient.
    """
    coef, x, a, b, p = term
    n = a * m + b
    fib = sequences.fib
    if x == "scaled_fib":
        s = p(k)
        d = fib(s)
        pair = fib(s * n), fib(s * n + 1)
    else:
        fn = getattr(sequences, x)
        lead = () if p is None else (p(k),)
        s = d = 1
        pair = fn(*lead, n), fn(*lead, n + 1)
    f, f_next = fib(s * a * m_step), fib(s * a * m_step + 1)
    return [*pair, f_next - f, f, f_next, d, coef.c0, coef.c1]


def _parts(form: list[list[int]]) -> tuple[int, int]:
    """(P, Q) with the stepped form's value P + k*Q at its current m."""
    p = q = 0
    for y, _, _, _, _, d, c0, c1 in form:
        x = y if d == 1 else y // d
        p += c0 * x
        q += c1 * x
    return p, q


class _State:
    """What the cases at one m share: the left prefix [c]^(m+e) and both forms' terms.

    advance() carries it to the next m of the grid: the prefix matrix
    (p, p', q, q') by one product, each term by one constant step.
    """

    __slots__ = ("_matrix", "_step", "_forms")

    def __init__(self, ident: IdentityId, k: int | None, m: int, m_step: int):
        self._matrix = self._step = None
        if not ident.is_lemma:
            c = ident.lhs.base(k)
            self._matrix = contfrac._run_power(c, m + ident.lhs.extra)
            self._step = contfrac._run_power(c, m_step)
        self._forms = [[_seed(term, k, m, m_step) for term in form] for form in ident.forms]

    def advance(self) -> None:
        if self._step is not None:
            self._matrix = _mul(self._matrix, self._step)
        for form in self._forms:
            for term in form:
                y, y_next, f_prev, f, f_next = term[:5]
                term[0], term[1] = f_prev * y + f * y_next, f * y + f_next * y_next

    def values(self) -> tuple:
        """(prefix matrix, (P, Q) of the first form, (P, Q) of the second)."""
        return self._matrix, _parts(self._forms[0]), _parts(self._forms[1])


def _first_regular_m(ident: IdentityId) -> int:
    """The least m from which every term of the entry can be stepped.

    lucas_swapped obeys x_{n+1} = x_n + x_{n-1} only from l_2 on, so each of
    its terms needs a*m + b >= 2. Every other sequence obeys it everywhere.
    """
    return max(
        [0] + [-((b - 2) // a) for form in ident.forms for _, x, a, b, _ in form if x == "lucas_swapped"]
    )


def _state_depends_on_k(ident: IdentityId) -> bool:
    """Whether k changes the base or a sequence (not only a tail or a coefficient)."""
    base = None if ident.is_lemma else ident.lhs.base
    if base is not None and not (isinstance(base, _Lin) and not base.c1):
        return True
    return any(p is not None and p.c1 for form in ident.forms for *_, p in form)


def _stepped(
    ident: IdentityId, ms: range, ks: range | tuple[None]
) -> Iterator[tuple[CaseParams, CheckOutcome]]:
    """Every case of the grid ms x ks, from state seeded at ms[0] and stepped in m."""
    # The comparison run_case() decides with, looked up when the sweep starts.
    cf_outcome, lemma_outcome = identities._cf_outcome, identities._lemma_outcome
    tail = None if ident.is_lemma else ident.lhs.tail
    if tail is not None:
        t0, t1 = tail.c0, tail.c1  # inlined below; a call per case would cost as much as the product
    # One state for the grid, or one per k where k changes more than the
    # tail and the coefficients.
    per_k = _state_depends_on_k(ident)
    states = [_State(ident, k, ms[0], ms.step) for k in (ks if per_k else (None,))]
    for i_m, m in enumerate(ms):
        if i_m:
            for state in states:
                state.advance()
        values = [state.values() for state in states]
        for j, k in enumerate(ks):
            matrix, (a0, b0), (a1, b1) = values[j if per_k else 0]
            first = a0 + k * b0 if b0 else a0
            second = a1 + k * b1 if b1 else a1
            if matrix is None:
                outcome = lemma_outcome(first, second)
            else:
                p, p_prev, q, q_prev = matrix
                if tail is not None:
                    t = t0 + t1 * k if t1 else t0
                    p, q = t * p + p_prev, t * q + q_prev
                outcome = cf_outcome(Rational._coprime(p, q) if q else None, first, second)
            yield CaseParams(m, k), outcome


def sweep_cases(
    ident: IdentityId, ms: range, ks: range | tuple[None]
) -> Iterator[tuple[CaseParams, CheckOutcome]]:
    """The grid's cases: through run_case() below the first regular m, then stepped."""
    m_regular = _first_regular_m(ident)
    cut = next((i for i, m in enumerate(ms) if m >= m_regular), len(ms))
    for m in ms[:cut]:
        for k in ks:
            params = CaseParams(m, k)
            yield params, identities.run_case(ident, params)
    if ms[cut:]:
        yield from _stepped(ident, ms[cut:], ks)
