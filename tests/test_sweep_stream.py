"""Streaming sweeps and the work neighbouring cases share.

A CLI sweep prints each case as it is checked, so its memory must not grow
with the grid. Cases share kernel results through two bounded memos, and
a passing case's right side is decided by one exact division, without
gcd. Each shortcut is checked here against a route that does not take it.
"""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit
from cfkit import cli, contfrac, identities, rational, sequences
from cfkit.contfrac import expand_rational
from cfkit.errors import BadDomain
from cfkit.identities import CaseParams, IdentityId, Status
from cfkit.rational import Rational

I = IdentityId


class _Sink(io.TextIOBase):
    """A text stream that discards everything written to it."""

    def write(self, text):
        return len(text)


def _quiet_run(argv):
    with contextlib.redirect_stdout(_Sink()):
        return cli.run(argv)


def _sweep_peak(k_range):
    argv = ["sweep", "THM2_FIB_FORM", "--m", "0..20", "--k", k_range, "--json"]
    tracemalloc.start()
    try:
        code = _quiet_run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_cli_sweep_memory_does_not_grow_with_the_grid():
    _sweep_peak("0..0")  # first-use allocations (argparse, json, memos)
    small = _sweep_peak("-50..50")  # 2 121 cases
    large = _sweep_peak("-500..500")  # 21 021 cases
    # Ten times the cases; what a materialised report would need grows
    # by megabytes, a stream by the few digits k adds to each number.
    assert large < small + 32 * 1024, (small, large)


@pytest.mark.parametrize(
    "ident, m_range",
    [(I.LEM_BRIDGE, (-4, -1)), (I.LEM_BRIDGE, (1, 4)), (I.LEM_BRIDGE, (-4, 5)), (I.ID117, (-3, -1))],
)
def test_bad_grid_raises_before_any_case(monkeypatch, ident, m_range):
    def no_case(*_):
        raise AssertionError("a case ran")

    monkeypatch.setattr(identities, "run_case", no_case)
    with pytest.raises(BadDomain):
        identities.iter_sweep(ident, m_range)  # raises on the call, not on next()


def test_bridge_grid_starts_at_the_first_multiple_of_5():
    ms = [p.m for p, _ in identities.iter_sweep(I.LEM_BRIDGE, (3, 21))]
    assert ms == [5, 10, 15, 20]


def test_stream_matches_the_collected_report():
    stream = list(identities.iter_sweep(I.THM3_ONES, (0, 6), (-2, 2)))
    report = identities.sweep(I.THM3_ONES, (0, 6), (-2, 2))
    assert tuple(stream) == report.cases
    assert [p for p, _ in stream] == [CaseParams(m, k) for m in range(7) for k in range(-2, 3)]


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(rational, "gcd", counted)
    return calls


def test_thm2_grid_reuses_kernel_work_and_skips_gcd(gcd_calls):
    sequences._fib_pair.cache_clear()
    contfrac._run_power.cache_clear()
    argv = "sweep THM2_FIB_FORM --m 0..200 --k -96..104 --json".split()
    assert _quiet_run(argv) == 0  # every case passes
    fib_info, power_info = sequences._fib_pair.cache_info(), contfrac._run_power.cache_info()
    # 804 distinct indices, about half shared with the previous m; without
    # the memos these were 161 604 and 33 969 calls.
    assert fib_info.misses <= 1000
    assert power_info.misses <= 201
    assert fib_info.hits + fib_info.misses == 4 * 201 * 201
    assert gcd_calls == []


def test_failing_cases_reduce_their_right_side(gcd_calls):
    outcome = identities.check(I.THM5_SWAPPED_LUCAS, CaseParams(3))
    assert len(gcd_calls) == 1
    assert outcome.status is Status.FAIL
    assert (outcome.rhs.num, outcome.rhs.den) == (1364, 123)  # 15004/1353, reduced


# --- the division check ------------------------------------------------------


def _outcome(lhs, num, den):
    """_cf_outcome() on a synthetic entry whose left side evaluates to lhs."""
    runs = [(a, 1) for a in expand_rational(lhs)]
    entry = identities._Entry(lambda m, k: runs, lambda m, k: (num, den))
    return identities._cf_outcome(entry, CaseParams(0))


_value = st.integers(-(10**30), 10**30)
_nonzero = _value.filter(bool)
_lhs = st.builds(Rational, _value, _nonzero)


@settings(deadline=None)
@given(_lhs, _nonzero)
def test_multiples_of_the_left_side_pass(lhs, g):
    outcome = _outcome(lhs, g * lhs.num, g * lhs.den)
    assert outcome.status is Status.PASS
    assert outcome.rhs is outcome.lhs
    assert outcome.rhs == Rational(g * lhs.num, g * lhs.den)


@settings(deadline=None)
@given(_lhs, _value, _nonzero)
def test_division_check_agrees_with_reduction(lhs, num, den):
    for d in (den, -den):
        outcome = _outcome(lhs, num, d)
        expected = Rational(num, d)
        assert (outcome.status is Status.PASS) == (expected == lhs)
        assert outcome.rhs == expected
        if outcome.status is Status.FAIL:
            assert outcome.note == "values differ"
            assert outcome.rhs.den > 0 and gcd(outcome.rhs.num, outcome.rhs.den) == 1


@given(_lhs, _value)
def test_zero_denominator_is_an_undefined_right_side(lhs, num):
    outcome = _outcome(lhs, num, 0)
    assert (outcome.status, outcome.rhs, outcome.note) == (Status.FAIL, None, "right side undefined")


# --- the bounded memos -------------------------------------------------------

_N = 3000
_FIBS, _LUCAS = [0, 1], [2, 1]
while len(_FIBS) < _N + 2:
    _FIBS.append(_FIBS[-1] + _FIBS[-2])
    _LUCAS.append(_LUCAS[-1] + _LUCAS[-2])


@settings(deadline=None)
@given(st.lists(st.integers(-_N, _N), min_size=1, max_size=120))
def test_memoised_kernel_matches_recurrence_in_any_order(indices):
    for n in indices:
        assert sequences.fib(n) == _FIBS[abs(n)] * (-1 if n < 0 and n % 2 == 0 else 1)
        assert sequences.lucas(n) == _LUCAS[abs(n)] * (-1 if n < 0 and n % 2 else 1)
        assert sequences._fib_pair(abs(n)) == (_FIBS[abs(n)], _FIBS[abs(n) + 1])
        info = sequences._fib_pair.cache_info()
        assert info.currsize <= info.maxsize == sequences._MEMO_SIZE


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 200)), min_size=1, max_size=40))
def test_memoised_run_power_matches_repeated_multiplication(calls):
    for a, n in calls:
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for _ in range(n):
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        assert contfrac._run_power(a, n) == (p, p_prev, q, q_prev)
        info = contfrac._run_power.cache_info()
        assert info.currsize <= info.maxsize


# --- the import path ---------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, cfkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
