"""Streaming sweeps and the work neighbouring cases share.

A CLI sweep writes its lines in blocks of 8 KB or more as the cases are
checked, so its memory must not grow with the grid, and a sweep cut short
still shows every case checked before the cut. The stepped engine carries
kernel results from one m to the next instead of recomputing them, and a
passing case's right side is decided without gcd, by a comparison where
it is +-(p, q) and by one exact division otherwise; a batch of k whose
ratio is its left side's own linear forms is decided by those forms, and
any other batch case by case. A failing
right side reuses the previous case's gcd where one Euclid step proves it,
and a lemma sweep steps in Decimal.
Each shortcut is checked here against a route that does not take it.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfkit
from cfkit import _engine, _products, cli, identities, rational, sequences
from cfkit.contfrac import evaluate, expand_rational
from cfkit.errors import BadDomain, EmptyRange
from cfkit.identities import CaseParams, IdentityId, Status
from cfkit.rational import Rational

from _recurrence import recurrence

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


def test_a_lemma_sweep_past_the_digit_limit_completes(capsys):
    # A lemma sweep steps in Decimal, whose str() has no digit limit, so
    # these F values of about 4 300 digits are written where an int's
    # str() raised. check converts ints and still exits 4 on the same case:
    # that changes once the CLI lifts the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argvs = ("sweep LEM_F9 --m 20600..20602 --json", "sweep LEM_BRIDGE --m 20600..20610")
        codes = [cli.run(argv.split()) for argv in argvs]
        f9, bridge = capsys.readouterr().out.split('{"identity": "LEM_F9", "pass": 3, "fail": 0, "skip": 0}\n')
        assert cli.run("check LEM_F9 --m 20600".split()) == 4
        sys.set_int_max_str_digits(0)  # for the expected lines only
        fs, ls = recurrence(0, 1, 0, 20620), recurrence(2, 1, 0, 20620)
        assert len(str(fs[20609])) > 4300
        expected_f9 = [
            json.dumps(
                {
                    "identity": "LEM_F9",
                    "params": {"m": m},
                    "lhs": {"num": str(fs[m + 9]), "den": "1"},
                    "rhs": {"num": str(fs[m + 9]), "den": "1"},
                    "status": "PASS",
                    "note": "",
                }
            )
            for m in (20600, 20601, 20602)
        ]
        # 5*(l_m - l_{m-10}) against F_{m+5}; l_n = L_n from n = 2 on.
        expected_bridge = [
            f"FAIL m={m} lhs={5 * (ls[m] - ls[m - 10])}/1 rhs={fs[m + 5]}/1 (values differ)"
            for m in (20600, 20605, 20610)
        ] + ["pass=0 fail=3 skip=0"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [0, 1]
    assert f9.splitlines() == expected_f9
    assert bridge.splitlines() == expected_bridge


@pytest.mark.parametrize(
    "ident, m_range",
    [(I.LEM_BRIDGE, (-4, -1)), (I.LEM_BRIDGE, (1, 4)), (I.LEM_BRIDGE, (-4, 5)), (I.ID117, (-3, -1))],
)
def test_bad_grid_raises_before_any_case(monkeypatch, ident, m_range):
    def no_case(*_):
        raise AssertionError("a case ran")

    monkeypatch.setattr(sequences, "walk", no_case)
    with pytest.raises(BadDomain):
        identities.sweep(ident, m_range)  # raises on the call, not on next()


@pytest.mark.parametrize("ident, m_range, k_range", [(I.ID117, (5, 1), None), (I.THM2_FIB_FORM, (0, 3), (2, -2))])
def test_empty_range_raises_a_typed_error(ident, m_range, k_range):
    with pytest.raises(EmptyRange):
        identities.sweep(ident, m_range, k_range)
    assert issubclass(EmptyRange, ValueError)  # what a library caller caught before it had a type


def test_bridge_grid_starts_at_the_first_multiple_of_5():
    ms = [p.m for p, _ in identities.sweep(I.LEM_BRIDGE, (3, 21))]
    assert ms == [5, 10, 15, 20]


def test_stream_matches_the_collected_report():
    # Two streams of one grid give the same cases, in (m, k) order.
    stream = list(identities.sweep(I.THM3_ONES, (0, 6), (-2, 2)))
    assert tuple(stream) == tuple(identities.sweep(I.THM3_ONES, (0, 6), (-2, 2)))
    assert [p for p, _ in stream] == [CaseParams(m, k) for m in range(7) for k in range(-2, 3)]


@pytest.fixture
def gcd_calls(monkeypatch):
    """Every math.gcd call of Rational() and of a sweep's record builder."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(rational, "gcd", counted)
    monkeypatch.setattr(_engine, "gcd", counted)
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
    power_calls = _counted(monkeypatch, _products, "_run_power")
    argv = "sweep THM2_FIB_FORM --m 0..200 --k -96..104 --json".split()
    assert _quiet_run(argv) == 0  # every case passes
    # The state is seeded once and then stepped. Its four F terms are two
    # streams at stride 3, F(3m + 1), F(3m + 4) and F(3m), F(3m + 3), each
    # one walk: two kernel calls for its seed and two for its step
    # constants. One power seeds the prefix [4]^0, which the recurrence
    # then steps. Computed case by case, these were 4 * 201 * 201 =
    # 161 604 kernel calls and 40 401 powers.
    assert len(fib_calls) == 8
    assert power_calls == [(4, 0)]
    assert gcd_calls == []


# The walks a state opens: one per stream, the terms of one side that read
# one sequence at one stride, whole strides apart. THM2_FIB_FORM's terms,
# and THM1_GIBONACCI's G_k read as F terms, are two streams, residues 1 and
# 0 mod 3; a lemma's sides never share one; every other entry has one.
_WALKS = {I.THM1_GIBONACCI: 2, I.THM2_FIB_FORM: 2} | {ident: 2 for ident in IdentityId if ident.is_lemma}


class _Read:
    """A stand-in for a walk's values: a sum of them knows which walks it read."""

    def __init__(self, walks):
        self.walks = walks

    def __rmul__(self, coef):
        return self

    def __add__(self, other):
        return _Read(self.walks | other.walks)

    def __radd__(self, zero):  # sum() starts from the int 0
        return self


def _walks_read(pair):
    return set().union(*(part.walks for part in pair if isinstance(part, _Read)))


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.name)
def test_a_state_opens_one_walk_per_stream_of_a_side(monkeypatch, ident):
    opened = []

    def walk(name, lead, start, stride, number=int):
        opened.append((name, start))
        return itertools.repeat(_Read({len(opened) - 1}))

    monkeypatch.setattr(sequences, "walk", walk)
    k = 2 if ident.takes_k else None
    m = 20 * ident.m_step
    state, *_ = _engine._state(ident, k, range(m, m + 3 * ident.m_step, ident.m_step))
    # A continued fraction's forms are its num and den; a lemma's are its p and num, each over 1.
    first, second = state[::2] if ident.is_lemma else state[2:]
    assert len(opened) == _WALKS.get(ident, 1)
    read = [_walks_read(first), _walks_read(second)]
    assert read[0] | read[1] == set(range(len(opened)))
    if ident.is_lemma:
        # Each side reads only the walk opened for it, at the lowest index
        # of its own terms.
        assert read[0].isdisjoint(read[1])
        for side, form in zip(read, ident.forms):
            assert {opened[i] for i in side} == {(form[0][1], min(a * m + b for _, _, a, b, _ in form))}


def test_thm5s_carried_gcd_reuses_the_last_reduced_num():
    # Where g is carried, den is the last num, so den // g is the last
    # num // g: the same int, not a second division of it.
    cases = list(identities.sweep(I.THM5_SWAPPED_LUCAS, (3, 400)))
    for i, (params, outcome) in enumerate(cases):
        num, den = (identities._form_value(form, params.m, None) for form in I.THM5_SWAPPED_LUCAS.forms)
        assert outcome.rhs == Rational(num, den)
        if i:
            assert outcome.rhs.den is cases[i - 1][1].rhs.num


def test_failing_cases_reduce_their_right_side(gcd_calls):
    outcome = identities.run_case(I.THM5_SWAPPED_LUCAS, CaseParams(3))
    assert len(gcd_calls) == 1
    assert outcome.status is Status.FAIL
    assert (outcome.rhs.num, outcome.rhs.den) == (1364, 123)  # 15004/1353, reduced


def test_a_sweep_carries_thm5s_gcd_by_one_euclid_step(gcd_calls):
    # Each failing right side's den is the previous case's num, and the
    # remainder of one division is +-the previous den, so only the first
    # case needs a gcd; every case is still reduced, by g = 11.
    cases = list(identities.sweep(I.THM5_SWAPPED_LUCAS, (3, 60)))
    assert len(gcd_calls) == 1
    for params, outcome in cases:
        assert outcome == identities.run_case(I.THM5_SWAPPED_LUCAS, params)


_small = st.one_of(st.integers(-(10**6), 10**6), st.sampled_from((0, 1, -1)))


@st.composite
def _right_sides(draw):
    """A run of failing right sides (num, den) as a sweep meets them, with g often carried and often not.

    A den is drawn (zero, one and negative ones included) or is the last
    num. A num is drawn, or is t*den + r with r = +-the last den, where the
    last g carries, or with any other r, where it may not. The first side
    is scaled by c, so a carried g is c*gcd and a wrongly carried one shows.
    """
    c = draw(st.integers(1, 50))
    first = (c * draw(_small), c * draw(_small))
    sides = [first]
    for _ in range(draw(st.integers(0, 12))):
        last_num, last_den = sides[-1]
        den = last_num if last_num and draw(st.booleans()) else draw(_small)
        kind = draw(st.sampled_from(("drawn", "carried", "other remainder")))
        if kind == "drawn" or not last_den:
            num = draw(_small)
        else:
            r = draw(st.sampled_from((last_den, -last_den)))
            if kind == "other remainder":
                r += draw(_small.filter(bool))
            num = draw(st.integers(-20, 20)) * den + r
        sides.append((num, den))
    return sides


@settings(deadline=None, max_examples=300)
@given(_right_sides())
@example([(6, 4), (70, 6)])  # den = last num, 70 = 11*6 + 4: g = 2 carries
@example([(6, 4), (71, 6)])  # den = last num, 71 = 11*6 + 5: gcd 1, not the last g
@example([(6, 4), (-62, 6)])  # remainder -4 under floor division: carries
@example([(6, -4), (58, 6)])  # a negative last den: 58 = 9*6 + 4
@example([(0, 5), (3, 0)])  # a zero num, then an undefined right side
@example([(10, 4), (7, 1), (14, 10)])  # a side over 1 keeps the last (num, den, g)
@example([(6, 4), (70, 6), (776, 70)])  # g = 2 carried twice: 776 = 11*70 + 6
def test_the_sweep_record_builder_reduces_as_rational_does(sides):
    record = _engine.sweep_records()
    for num, den in sides:
        outcome = record(Status.FAIL, 1, 1, num, den)
        assert outcome == identities._record(Status.FAIL, 1, 1, num, den)
        if den:
            assert outcome.rhs == Rational(num, den)
            assert Fraction(outcome.rhs.num, outcome.rhs.den) == Fraction(num, den)


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


def _stand_in(forms):
    """An entry with THM2_FIB_FORM's record but the given forms, read as the engine and run_case() read a member."""
    thm2 = I.THM2_FIB_FORM
    fields = ("name", "lhs", "rhs", "k_min", "m_step", "is_lemma", "takes_k")
    return SimpleNamespace(**{field: getattr(thm2, field) for field in fields}, forms=forms)


_THM2_FORMS = I.THM2_FIB_FORM.forms
# Every coefficient doubled: the ratio is 2*(p, q), g = 2, so every case passes.
_DOUBLED = _stand_in(tuple(tuple((identities._Lin(2 * c.c0, 2 * c.c1), *rest) for c, *rest in f) for f in _THM2_FORMS))
# The numerator reads F(3m + 5) for F(3m + 4): every case fails.
_SHIFTED = _stand_in(((identities._t(1, "fib", 3, 5), _THM2_FORMS[0][1]), _THM2_FORMS[1]))


@pytest.mark.parametrize("stand_in, status", [(_DOUBLED, Status.PASS), (_SHIFTED, Status.FAIL)], ids=["g2", "F3m5"])
def test_a_batch_whose_forms_differ_goes_case_by_case(monkeypatch, stand_in, status):
    # Every batch of k in the catalog states its left side's own linear
    # forms and is decided by them. A ratio whose forms differ goes through
    # the engine's _verdict() fallback, one call per case, and must give
    # run_case()'s outcome on each.
    calls, verdict = [], identities._verdict
    monkeypatch.setattr(identities, "_verdict", lambda *case: calls.append(case) or verdict(*case))
    got = list(identities.sweep(stand_in, (0, 6), (-70, 70)))
    assert len(calls) == 7 * 141
    assert [params for params, _ in got] == [CaseParams(m, k) for m in range(7) for k in range(-70, 71)]
    assert {outcome.status for _, outcome in got} == {status}
    assert got == [(params, identities.run_case(stand_in, params)) for params, _ in got]


# --- the import path ---------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, cfkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
