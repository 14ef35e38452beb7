"""Streaming sweeps and the work neighbouring cases share.

A CLI sweep writes its lines in blocks of 8 KB or more as the cases are
checked, so its memory must not grow with the grid, and a sweep cut short
still shows every case checked before the cut. The stepped engine carries
kernel results from one m to the next instead of recomputing them, and a
passing case's right side is decided without gcd, by a comparison where
it is +-(p, q) and by one exact division otherwise; a batch whose ratio
columns are its left columns is decided whole, by its columns.
Each shortcut is checked here against a route that does not take it.
"""

import contextlib
import functools
import io
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfkit
from cfkit import _engine, cli, contfrac, identities, rational, sequences
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


def _sweep_peak(k_range, ident="THM2_FIB_FORM", m_range="0..20"):
    argv = ["sweep", ident, "--m", m_range, "--k", k_range, "--json"]
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


def test_thm1_sweep_memory_does_not_grow_with_the_k_range():
    # G_k is read as F terms, so one engine state serves every k; with one
    # state per k the peak grew by megabytes from 201 to 2 001 k.
    peak = functools.partial(_sweep_peak, ident="THM1_GIBONACCI", m_range="0..1")
    peak("0..0")
    small, large = peak("0..200"), peak("0..2000")
    assert large < small + 32 * 1024, (small, large)


class _Recorder(io.TextIOBase):
    """A text stream that keeps each write as one item; a terminal if `tty`."""

    def __init__(self, tty=False):
        self.writes, self.tty = [], tty

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def isatty(self):
        return self.tty


_GRID = "sweep THM2_FIB_FORM --m 0..20 --k -50..50 --json".split()  # 2 121 cases


def test_cli_sweep_writes_blocks_not_lines():
    out = _Recorder()
    with contextlib.redirect_stdout(out):
        assert cli.run(_GRID) == 0
    text = "".join(out.writes)
    assert text.count("\n") == 2121 + 1  # every case, then the summary
    assert all(block.endswith("\n") for block in out.writes)  # no line is split
    assert len(out.writes) <= len(text) // 8192 + 2, len(out.writes)


@pytest.mark.parametrize("argv", [_GRID, "sweep LEM_BRIDGE --m 0..300".split()])
def test_cli_sweep_writes_each_line_at_once_to_a_terminal(argv):
    # Text mode writes only the lines that are not PASS; LEM_BRIDGE fails from m = 20 on.
    out = _Recorder(tty=True)
    with contextlib.redirect_stdout(out):
        cli.run(argv)
    assert len(out.writes) > 1
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in out.writes)


@pytest.mark.parametrize("n", [0, 1, 37, 300])
def test_a_sweep_cut_short_shows_every_case_checked(capsys, monkeypatch, n):
    cli.run(_GRID)
    complete = capsys.readouterr().out.splitlines()
    real = _engine.sweep_cases

    def cut_short(*grid):
        # The first n cases, the last batch cut partway, then a failure.
        left = n
        for m, kb, *columns in real(*grid):
            if left < len(kb):
                if left:
                    yield m, kb[:left], *(column[:left] for column in columns)
                raise RuntimeError("boom")
            left -= len(kb)
            yield m, kb, *columns

    monkeypatch.setattr(_engine, "sweep_cases", cut_short)
    assert cli.run(_GRID) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines() == complete[:n]
    assert captured.err == "error: internal error: RuntimeError: boom\n"


def test_a_sweep_over_the_digit_limit_keeps_the_lines_before_it(capsys):
    # Case 116 has a value past the interpreter's default 4 300-digit
    # integer-string limit. This changes once the CLI lifts the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = cli.run("sweep THM6_ELEVEN_FIB --m 4000..4200 --json".split())
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    assert code == 4
    assert len(out.splitlines()) == 115 and out.endswith("\n")


def test_a_sweep_over_the_digit_limit_keeps_the_lines_of_its_last_batch(capsys):
    # At m = 6854 a side passes the interpreter's default 4 300-digit
    # integer-string limit from k = 329 on, partway through the batch of
    # k = 320..383; the lines of k = 320..328 still go out.
    argv = "sweep THM2_FIB_FORM --m 6854..6854 --k 0..500 --json".split()
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert cli.run(argv) == 0
        complete = capsys.readouterr().out.splitlines()
        sys.set_int_max_str_digits(4300)
        code = cli.run(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    assert code == 4
    assert out.endswith("\n") and out.splitlines() == complete[:329]


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


def _decided(p, q, num, den):
    """The record of the case identities._verdict(), which both routes decide a case with, decides."""
    return identities._record(identities._verdict(p, q, num, den), p, q, num, den)


def _outcome(lhs, num, den):
    """_decided() on a left side evaluating to lhs."""
    lhs = evaluate(expand_rational(lhs))
    return _decided(lhs.num, lhs.den, num, den)


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


# Integers past 64 bits, negative ones, and pairs with a = b.
_side = st.integers(-(2**100), 2**100)
_lemma_sides = st.one_of(st.tuples(_side, _side), _side.map(lambda a: (a, a)))


@given(_lemma_sides)
@example((-(2**70), -(2**70)))
@example((2**64 + 1, 2**64))
@example((-3, 3))
def test_a_lemma_is_decided_as_its_right_side_over_one(sides):
    # A lemma a = b is the comparison of the left side a with the ratio b/1.
    a, b = sides
    outcome = _decided(a, 1, b, 1)
    if a == b:
        assert outcome.status is Status.PASS
        assert outcome.rhs is outcome.lhs
        assert (outcome.lhs.num, outcome.lhs.den, outcome.note) == (a, 1, "")
    else:
        assert outcome == (Status.FAIL, Rational(a), Rational(b), "values differ")


_side_or_zero = st.one_of(st.just(0), _side)


@st.composite
def _verdict_cases(draw):
    """(p, q, num, den): p/q coprime with q >= 0 (q = 0: undefined), num/den often a multiple of it."""
    p, q = draw(_side), draw(_side_or_zero)
    if q:
        g = gcd(p, q) * (1 if q > 0 else -1)
        p, q = p // g, q // g
    if draw(st.booleans()):
        g = draw(_side)
        return p, q, g * p, g * q
    return p, q, draw(_side_or_zero), draw(_side_or_zero)


@given(_verdict_cases())
@example((0, 0, 5, 0))  # both undefined
@example((1, 0, 5, 7))  # left undefined
@example((5, 7, 5, 0))  # right undefined
@example((0, 1, 0, -(2**70)))  # zero over a negative >64-bit denominator
@example((-(2**65), 3, 2**65, -3))
@example((2**64 + 1, 2**64, 2**64 + 1, 2**64 + 1))
@example((5, 7, -5, -7))  # g = -1
@example((5, 7, 5, -7))  # den = -q, num = p
@example((5, 7, 6, 7))  # den = q, num != p
def test_verdict_agrees_with_fraction(case):
    p, q, num, den = case
    lhs = Fraction(p, q) if q else None
    rhs = Fraction(num, den) if den else None
    if lhs is None and rhs is None:
        expected = Status.SKIPPED
    elif lhs is not None and lhs == rhs:
        expected = Status.PASS
    else:
        expected = Status.FAIL
    assert identities._verdict(p, q, num, den) is expected


@st.composite
def _verdict_columns(draw):
    """A batch's columns (ps, qs, nums, dens) as the engine makes them, before a negative q is flipped with its p.

    Each left side is one of _verdict_cases(), its sign flipped or not, so q
    may be negative or 0. The ratio columns are the left columns themselves
    (one list, as the engine shares it), equal copies, the left columns with
    one case changed, or _verdict_cases()' own ratios (g*(p, q) for any g, or
    anything).
    """
    cases = draw(st.lists(_verdict_cases(), min_size=1, max_size=6))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(cases), max_size=len(cases)))
    ps = [s * p for s, (p, *_) in zip(signs, cases)]
    qs = [s * q for s, (_, q, *_) in zip(signs, cases)]
    kind = draw(st.sampled_from(("same", "copy", "one changed", "own ratios")))
    if kind == "same":
        return ps, qs, ps, qs
    if kind == "own ratios":
        return ps, qs, [num for *_, num, _ in cases], [den for *_, den in cases]
    nums, dens = list(ps), list(qs)
    if kind == "one changed":
        i = draw(st.integers(0, len(cases) - 1))
        column = draw(st.sampled_from((nums, dens)))
        column[i] = draw(_side_or_zero.filter(lambda x: x != column[i]))
    return ps, qs, nums, dens


@given(_verdict_columns())
@example(([5, -5, 1], [7, -7, 0], [5, -5, 1], [7, -7, 0]))  # q > 0, q < 0 and q = 0 in one batch
@example(([1, 2], [0, 0], [1, 2], [0, 0]))  # every q = 0: both sides undefined
@example(([5, -5], [7, -7], [10, -10], [14, -14]))  # g = 2 is not decided whole
@example(([5, -5], [7, -7], [5, -6], [7, -7]))  # num != p at one case
@example(([5, 1], [7, 0], [5, 1], [7, 3]))  # den != q where q = 0: a left side undefined alone
def test_a_batch_decided_whole_agrees_with_verdict(columns):
    # The column rule decides a batch whole exactly when its ratio columns,
    # taken before the flip, equal its left columns, and then as _verdict()
    # decides each case once q >= 0.
    ps, qs, nums, dens = columns
    whole = identities._own_ratio_verdicts(ps, qs, nums, dens)
    assert (whole is not None) == (nums == ps and dens == qs)
    flipped = [(-p, -q) if q < 0 else (p, q) for p, q in zip(ps, qs)]
    per_case = [identities._verdict(p, q, num, den) for (p, q), num, den in zip(flipped, nums, dens)]
    if whole is not None:
        assert whole == per_case


@pytest.mark.parametrize("ident, k_range", [(I.THM2_FIB_FORM, (-70, 70)), (I.THM3_ONES, (-100, 100))])
def test_a_batch_the_column_rule_leaves_goes_case_by_case(monkeypatch, ident, k_range):
    # Every batch of k in the catalog is decided whole; the engine's
    # _verdict() route must give the same cases when none is.
    whole = list(identities.iter_sweep(ident, (0, 6), k_range))
    monkeypatch.setattr(identities, "_own_ratio_verdicts", lambda *columns: None)
    assert list(identities.iter_sweep(ident, (0, 6), k_range)) == whole


# --- the import path ---------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, cfkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
