"""The stepped sweep engine against the reference route, case by case.

iter_sweep() seeds its state once and steps it in m; run_case() computes
every value directly. On any window of any catalog entry the two must give
the same (params, outcome) sequence, including where a term sits in the
irregular start of lucas_swapped and where a side is undefined.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import _engine, contfrac, identities
from cfkit.identities import CaseParams, IdentityId

I = IdentityId


def _grid(ident, m_range, k_range):
    """The cases of a window, in (m, k) order, computed without the library."""
    ms = [m for m in range(m_range[0], m_range[1] + 1) if m % ident.m_step == 0]
    ks = [None] if k_range is None else range(k_range[0], k_range[1] + 1)
    return [CaseParams(m, k) for m in ms for k in ks]


@st.composite
def _windows(draw):
    ident = draw(st.sampled_from(list(IdentityId)))
    m_lo = draw(st.integers(0, 40))
    m_hi = m_lo + draw(st.integers(ident.m_step - 1, 12))  # holds a multiple of m_step
    k_range = None
    if ident.takes_k:
        if ident.k_min is None:
            k_lo = draw(st.integers(-300, 300))
            k_range = (k_lo, k_lo + draw(st.integers(0, 40)))
        else:
            k_lo = draw(st.integers(ident.k_min, ident.k_min + 8))
            k_range = (k_lo, k_lo + draw(st.integers(0, 4)))
    return ident, (m_lo, m_hi), k_range


@settings(deadline=None, max_examples=300)
@given(_windows())
@example((I.THM5_SWAPPED_LUCAS, (0, 6), None))  # l(5m - 10) leaves the irregular start at m = 3
@example((I.THM5_SWAPPED_LUCAS, (2, 3), None))
@example((I.LEM_BRIDGE, (0, 40), None))  # l(m - 10) leaves it at m = 15
@example((I.LEM_BRIDGE, (7, 23), None))
@example((I.THM3_ONES, (0, 3), (-3, 3)))  # SKIPPED at (1, 0)
@example((I.THM3_ONES, (1, 1), (-1, 1)))
@example((I.THM2_FIB_FORM, (3, 5), (-500, 500)))  # a wide k window
@example((I.THM1_GIBONACCI, (9, 12), (-40, -20)))
@example((I.COR_GENERAL_LUCAS, (17, 20), (0, 9)))
def test_engine_matches_run_case(window):
    ident, m_range, k_range = window
    got = list(identities.iter_sweep(ident, m_range, k_range))
    assert got == [(params, identities.run_case(ident, params)) for params in _grid(ident, m_range, k_range)]


def test_state_per_k_only_where_k_changes_a_base_or_a_sequence():
    per_k = {ident for ident in IdentityId if _engine._state_depends_on_k(ident)}
    assert per_k == {I.THM1_GIBONACCI, I.COR_GENERAL_LUCAS}


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.name)
def test_stepped_state_equals_direct_values(ident):
    # Not only the outcomes: from m = 0, irregular starts included, each
    # form's value is the exact sum of coef(k) * X(a*m + b) at every m, and
    # the prefix is [c]^(m+e).
    k = 2 if ident.takes_k else None
    ms = range(0, 12 * ident.m_step, ident.m_step)
    for m, (matrix, *parts) in zip(ms, _engine._state(ident, k, ms)):
        for (p, q), form in zip(parts, ident.forms):
            assert p + (q * k if q else 0) == identities._form_value(form, m, k)
        if not ident.is_lemma:
            assert matrix == contfrac._run_power(ident.lhs.base(k), m + ident.lhs.extra)
