"""The stepped sweep engine against the reference route, case by case.

iter_sweep() seeds its state once and steps it in m; run_case() computes
every value directly. On any window of any catalog entry the two must give
the same (params, outcome) sequence, including where a term sits in the
irregular start of lucas_swapped and where a side is undefined. The CLI
reads the engine's plain tuples and writes a PASS from its ints; on the
same windows its lines must equal those rendered from iter_sweep()'s records.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import _cli_cases, _engine, cli, contfrac, identities
from cfkit.identities import CaseParams, CheckOutcome, IdentityId, Status

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
@example((I.THM1_GIBONACCI, (0, 3), (-150, 150)))  # wider than two batches of k
@example((I.THM3_ONES, (0, 3), (-100, 100)))  # a SKIPPED case inside a batch
@example((I.COR_GENERAL_LUCAS, (17, 20), (0, 9)))
@example((I.THM7_FOURS, (0, 12), None))  # a row without a tail
@example((I.EXT_ELEVEN8, (0, 12), None))  # a row with a constant tail
def test_engine_matches_run_case(window):
    ident, m_range, k_range = window
    got = list(identities.iter_sweep(ident, m_range, k_range))
    assert got == [(params, identities.run_case(ident, params)) for params in _grid(ident, m_range, k_range)]


@settings(deadline=None, max_examples=150)
@given(_windows(), st.booleans())
@example((I.THM3_ONES, (0, 3), (-3, 3)), True)  # SKIPPED at (1, 0) and (2, -1)
@example((I.THM3_ONES, (0, 3), (-3, 3)), False)
@example((I.LEM_BRIDGE, (0, 40), None), True)  # a lemma; FAIL from m = 20 on
@example((I.LEM_BRIDGE, (0, 40), None), False)
@example((I.THM5_SWAPPED_LUCAS, (0, 6), None), True)  # FAIL from m = 3 on
@example((I.THM5_SWAPPED_LUCAS, (0, 6), None), False)
@example((I.THM2_FIB_FORM, (0, 3), (-40, 40)), True)
@example((I.THM1_GIBONACCI, (0, 3), (-150, 150)), True)  # wider than two batches of k
@example((I.THM1_GIBONACCI, (0, 3), (-150, 150)), False)
@example((I.THM3_ONES, (0, 3), (-100, 100)), True)  # SKIPPED cases inside a batch
@example((I.THM3_ONES, (0, 3), (-100, 100)), False)
@example((I.THM2_FIB_FORM, (0, 3), (-300, 300)), True)  # more k than the sweep keeps strings for
@example((I.COR_GENERAL_LUCAS, (0, 12), (0, 3)), True)  # one state per k
def test_cli_sweep_lines_equal_the_records(window, as_json):
    ident, m_range, k_range = window
    argv = ["sweep", ident.name, "--m", f"{m_range[0]}..{m_range[1]}"]
    if k_range is not None:
        argv += ["--k", f"{k_range[0]}..{k_range[1]}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--json"] * as_json)
    *lines, summary = out.getvalue().splitlines()

    cases = list(identities.iter_sweep(ident, m_range, k_range))
    passed, failed, skipped = (sum(o.status is s for _, o in cases) for s in (Status.PASS, Status.FAIL, Status.SKIPPED))
    if as_json:
        assert lines == [_cli_cases._case_json(ident.name, params, outcome) for params, outcome in cases]
        assert summary == f'{{"identity": "{ident.name}", "pass": {passed}, "fail": {failed}, "skip": {skipped}}}'
    else:
        assert lines == [_cli_cases._case_text(p, o) for p, o in cases if o.status is not Status.PASS]
        assert summary == f"pass={passed} fail={failed} skip={skipped}"
    assert code == (1 if failed else 0)


@pytest.mark.parametrize(
    "ident, m_range, k_range",
    [
        (I.THM2_FIB_FORM, (0, 4), (-3, 3)),  # one state for the grid
        (I.THM1_GIBONACCI, (0, 4), (-3, 3)),  # G_k read as F terms
        (I.LEM_BRIDGE, (0, 30), None),  # a lemma; it fails from m = 20 on
        (I.COR_GENERAL_LUCAS, (0, 4), (0, 3)),  # one state per k
    ],
)
def test_engine_yields_the_named_records(ident, m_range, k_range):
    cases = list(identities.iter_sweep(ident, m_range, k_range))
    assert any(outcome.status is Status.PASS for _, outcome in cases)
    for params, outcome in cases:
        assert type(params) is CaseParams and type(outcome) is CheckOutcome
        if outcome.status is Status.PASS:
            assert outcome.note == "" and outcome.rhs is outcome.lhs


def test_state_per_k_only_where_k_changes_a_base_or_a_sequence():
    # THM1_GIBONACCI's G_k(n) = F(n) + k*F(n - 1) is read as F terms, so k
    # moves only its coefficients.
    per_k = {ident for ident in IdentityId if _engine._state_depends_on_k(ident)}
    assert per_k == {I.COR_GENERAL_LUCAS}


def test_batches_hold_one_m_and_at_most_64_consecutive_k():
    grid = identities._case_grid(I.THM2_FIB_FORM, (0, 2), (-100, 100))
    batches = list(_engine.sweep_cases(I.THM2_FIB_FORM, *grid))
    assert [(m, k) for m, kb, *_ in batches for k in kb] == [(m, k) for m in range(3) for k in range(-100, 101)]
    for _, kb, *columns in batches:
        assert 1 <= len(kb) <= 64
        assert all(len(column) == len(kb) for column in columns)


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


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.name)
def test_a_state_ends_with_its_m_range(ident):
    # The prefix and the walks are endless; the state stops at the last m
    # of ms, also when nothing zips it with ms.
    k = 2 if ident.takes_k else None
    ms = range(0, 201 * ident.m_step, ident.m_step)
    assert len(list(_engine._state(ident, k, ms))) == 201
