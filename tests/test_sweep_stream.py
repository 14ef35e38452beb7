"""Streaming sweeps and the work neighbouring cases share.

A CLI sweep prints each case as it is checked, so its memory must not grow
with the grid. The stepped engine carries kernel results from one m to the
next instead of recomputing them, and a passing case's right side is
decided by one exact division, without gcd. Each shortcut is checked here
against a route that does not take it.
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
from cfkit.contfrac import evaluate, expand_rational
from cfkit.errors import BadDomain, EmptyRange
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

    monkeypatch.setattr(sequences, "walk", no_case)
    with pytest.raises(BadDomain):
        identities.iter_sweep(ident, m_range)  # raises on the call, not on next()


@pytest.mark.parametrize("ident, m_range, k_range", [(I.ID117, (5, 1), None), (I.THM2_FIB_FORM, (0, 3), (2, -2))])
def test_empty_range_raises_a_typed_error(ident, m_range, k_range):
    with pytest.raises(EmptyRange):
        identities.iter_sweep(ident, m_range, k_range)
    assert issubclass(EmptyRange, ValueError)  # what a library caller caught before it had a type


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


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_thm2_grid_reuses_kernel_work_and_skips_gcd(monkeypatch, gcd_calls):
    fib_calls = _counted(monkeypatch, sequences, "_fib_pair")
    power_calls = _counted(monkeypatch, contfrac, "_run_power")
    argv = "sweep THM2_FIB_FORM --m 0..200 --k -96..104 --json".split()
    assert _quiet_run(argv) == 0  # every case passes
    # The state is seeded once and then stepped: two kernel calls for each
    # of the four terms and two for each term's step constants, one power
    # for the prefix [4]^0 and one for its step. Computed case by case,
    # these were 4 * 201 * 201 = 161 604 kernel calls and 40 401 powers.
    assert len(fib_calls) == 16
    assert power_calls == [(4, 0), (4, 1)]
    assert gcd_calls == []


def test_failing_cases_reduce_their_right_side(gcd_calls):
    outcome = identities.check(I.THM5_SWAPPED_LUCAS, CaseParams(3))
    assert len(gcd_calls) == 1
    assert outcome.status is Status.FAIL
    assert (outcome.rhs.num, outcome.rhs.den) == (1364, 123)  # 15004/1353, reduced


# --- the division check ------------------------------------------------------


def _outcome(lhs, num, den):
    """_cf_outcome(), which both routes decide a case with, on a left side evaluating to lhs."""
    return identities._cf_outcome(evaluate(expand_rational(lhs)), num, den)


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


# --- the import path ---------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, cfkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
