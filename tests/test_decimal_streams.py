"""seq and convergents step their values in Decimal and print them as int's str() would.

Each drawn window's lines are compared with an int recurrence, run here from
the seeds alone, and str() of its values: Fibonacci and Lucas at negative
indices, gibonacci with a negative k, scaled Fibonacci by its own recurrence
b_{n+1} = L_t b_n + b_{n-1} (which the CLI never steps), and continued
fractions with zero and negative terms. No line may print a Decimal's -0.
A long convergents run keeps no table: its memory peak hardly grows with
the term count.

Past the interpreter's integer-string digit limit a line fails as an int's
str() did: exit 4, the lines before it on stdout, and int's own ValueError
on stderr. Each of those tests sets the limit to 4 300 itself.
"""

import contextlib
import hashlib
import io
import sys
import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import cli


def _run(argv):
    """(exit code, stdout, stderr) of cli.run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class _Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


def _recurrence(x0, x1, lo, hi, c=1):
    """x_lo..x_hi of x_{n+1} = c x_n + x_{n-1} from x_0 and x_1; below 0 it runs backward, x_{n-1} = x_{n+1} - c x_n."""
    values = {0: x0, 1: x1}
    for n in range(2, hi + 1):
        values[n] = c * values[n - 1] + values[n - 2]
    for n in range(-1, lo - 1, -1):
        values[n] = values[n + 2] - c * values[n + 1]
    return [values[n] for n in range(lo, hi + 1)]


def _lucas(n):
    return _recurrence(2, 1, n, n)[0]


def _expected_seq(kind, param, lo, hi):
    """The values of `seq kind` at lo..hi, from the seeds and the recurrence alone."""
    if kind == "fib":
        return _recurrence(0, 1, lo, hi)
    if kind == "fibc":
        return _recurrence(1, 1, lo, hi)
    if kind == "lucas":
        return _recurrence(2, 1, lo, hi)
    if kind == "lucas-swapped":
        return [(0 if n < 0 else (1, 2, 3, 4)[n] if n < 4 else _lucas(n)) for n in range(lo, hi + 1)]
    if kind == "gib":
        return _recurrence(param, 1, lo, hi)
    assert kind == "scaled"
    return _recurrence(0, 1, lo, hi, c=_lucas(param))


@st.composite
def _seq_windows(draw):
    """(kind, param, lo, hi): negative indices where the kind has them, k of either sign, odd t."""
    kind = draw(st.sampled_from(["fib", "lucas", "fibc", "lucas-swapped", "gib", "scaled"]))
    param = None
    if kind == "gib":
        param = draw(st.integers(-50, 50) | st.integers(-(10**40), 10**40))
    elif kind == "scaled":
        param = draw(st.sampled_from([1, 3, 5, 7, 9, 11, 21]))
    low = -400 if kind in ("fib", "lucas", "lucas-swapped") else 0
    lo = draw(st.integers(low, 400))
    return kind, param, lo, lo + draw(st.integers(0, 40))


def _seq_argv(kind, param, lo, hi):
    needs = cli._SEQ_KINDS[kind][1]
    argv = ["seq", kind, "--from", str(lo), "--to", str(hi)]
    return argv if needs is None else argv + [f"--{needs}", str(param)]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_seq_windows(), st.booleans())
@example(("fib", None, -40, 40), False)
@example(("lucas", None, -40, 40), True)
@example(("gib", -3, 0, 30), False)
@example(("gib", -(10**40), 0, 3), True)
@example(("scaled", 7, 0, 60), False)
@example(("lucas-swapped", None, -3, 6), False)
def test_seq_lines_equal_an_int_recurrence(window, as_json):
    kind, param, lo, hi = window
    values = _expected_seq(kind, param, lo, hi)
    needs = cli._SEQ_KINDS[kind][1]
    extra = "" if needs is None else f', "{needs}": {param}'
    if as_json:
        expected = "".join(f'{{"kind": "{kind}", "n": {n}{extra}, "value": "{v}"}}\n' for n, v in zip(range(lo, hi + 1), values))
    else:
        expected = "".join(f"{n}\t{v}\n" for n, v in zip(range(lo, hi + 1), values))
    code, out, err = _run(_seq_argv(kind, param, lo, hi) + ["--json"] * as_json)
    assert (code, out, err) == (0, expected, "")
    assert "\t-0\n" not in out and '"-0"' not in out


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.lists(st.integers(-3, 3) | st.integers(-(10**30), 10**30), min_size=1, max_size=40),
    st.booleans(),
)
@example([-3, 0, 0, 5, 0, -7], False)
@example([0, 0, 0, -1, 0, 1], True)
@example([0], False)
@example([-1] * 30, True)
def test_convergent_lines_equal_an_int_recurrence(terms, as_json):
    rows, (p1, p2), (q1, q2) = [], (1, 0), (0, 1)
    for a in terms:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        rows.append((p1, q1))
    if as_json:
        expected = "".join(f'{{"i": {i}, "p": "{p}", "q": "{q}"}}\n' for i, (p, q) in enumerate(rows))
    else:
        expected = "".join(f"{i}: {p}/{q}\n" for i, (p, q) in enumerate(rows))
    text = "[" + ",".join(map(str, terms)) + "]"
    code, out, err = _run(["convergents", text] + ["--json"] * as_json)
    assert (code, out, err) == (0, expected, "")
    assert ": -0/" not in out and "/-0\n" not in out and '"-0"' not in out


def _convergents_peak(count):
    """The tracemalloc peak of `convergents [4xcount]`, with stdout hashed, not kept."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Digest()):
            code = cli.run(["convergents", f"[4x{count}]"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_convergents_keep_no_table():
    _convergents_peak(10)  # first-use allocations (decimal, the command's modules)
    small, large = _convergents_peak(1000), _convergents_peak(3000)
    # The table of [4x3000] would hold about 2.3 MB of integers, 2 MB more
    # than [4x1000]'s. A stream holds the term list, a few rows and a block
    # of lines, each row under 2 000 digits.
    assert large < small + 256 * 1024, (small, large)


# --- the digit limit ----------------------------------------------------------


@contextlib.contextmanager
def _digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _limit_error():
    """The stderr line of a value past the 4 300-digit limit: int's own ValueError, as an internal error."""
    with _digit_limit(4300):
        try:
            str(10**4300)
        except ValueError as exc:
            return f"error: internal error: ValueError: {exc}\n"
    raise AssertionError("a 4 301-digit int converted under the limit")


def _seq_lines_before_the_limit(indices, values):
    """The text lines of the values before the first that passes 4 300 digits."""
    with _digit_limit(0):
        kept = []
        for n, v in zip(indices, values):
            if len(str(abs(v))) > 4300:
                return kept
            kept.append(f"{n}\t{v}\n")
    raise AssertionError("no value passes the limit")


def test_seq_scaled_past_the_digit_limit_keeps_the_lines_before_it():
    values = _expected_seq("scaled", 7, 2935, 2945)
    kept = _seq_lines_before_the_limit(range(2935, 2946), values)
    assert 0 < len(kept) < 11
    with _digit_limit(4300):
        result = _run("seq scaled --t 7 --from 2935 --to 2945".split())
    assert result == (4, "".join(kept), _limit_error())


def test_seq_fib_past_the_digit_limit_keeps_the_lines_before_it():
    values = _expected_seq("fib", None, 20500, 20700)
    kept = _seq_lines_before_the_limit(range(20500, 20701), values)
    assert 0 < len(kept) < 201
    with _digit_limit(4300):
        result = _run("seq fib --from 20500 --to 20700".split())
    assert result == (4, "".join(kept), _limit_error())


def test_convergents_past_the_digit_limit_keep_the_rows_before_it():
    # About 30 MB of rows come before the first that passes the limit, so
    # stdout is hashed as it is written rather than kept.
    expected, (p1, p2), (q1, q2) = hashlib.sha256(), (1, 0), (0, 1)
    with _digit_limit(0):
        for i in range(10000):
            p1, p2 = 4 * p1 + p2, p1
            q1, q2 = 4 * q1 + q2, q1
            p, q = str(p1), str(q1)
            if len(p) > 4300 or len(q) > 4300:
                break
            expected.update(f"{i}: {p}/{q}\n".encode())
    assert 0 < i < 9999
    out, err = _Digest(), io.StringIO()
    with _digit_limit(4300), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["convergents", "[4x10000]"])
    assert (code, out.sha.hexdigest(), err.getvalue()) == (4, expected.hexdigest(), _limit_error())


def test_a_first_value_past_the_digit_limit_fails_at_once():
    # F(1 000 000) has 208 988 digits. Its str() fails on the length check
    # alone; converting it to a Decimal first would take seconds.
    with _digit_limit(4300):
        start = time.perf_counter()
        result = _run("seq fib --from 1000000 --to 1000001".split())
        elapsed = time.perf_counter() - start
    assert result == (4, "", _limit_error())
    assert elapsed < 1.0, elapsed
