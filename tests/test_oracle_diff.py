"""Differential test: random CLI commands against the benchmark's independent oracle.

`perfbench/oracle.py` models the stdout bytes and the exit code of `sweep`,
`check`, `eval`, `convergents`, `seq` (fib, lucas and scaled, n >= 0),
`oracle board` and `surd` (text mode) with `fractions.Fraction` and plain
recurrences, and imports no cfkit. It is loaded here by its path, so
`perfbench` stays a directory of scripts, not a package. Each example runs
one command through `cfkit.cli.run` in process and must match the oracle
byte for byte; no generated command may exit 4 (an internal error). Every
value stays below the interpreter's 4 300-digit integer-string limit: a
sweep's largest index is F(5*80 + 10), about 86 digits, a fraction of at
most 24 terms of size at most 20 has about 32 digits, and the largest `seq`
value, S_9(1000) = F(9000)/F(9), has about 1 880. The examples are
derandomised, so a run in CI draws the same commands as a local one.
"""

import contextlib
import importlib.util
import io
from math import isqrt
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit.cli import run

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_SPEC = importlib.util.spec_from_file_location("_perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

_FUZZ = settings(deadline=None, derandomize=True, max_examples=150)

# The entries the oracle models; a sweep passes --k exactly to those in _K_IDENTITIES.
_ENTRIES = sorted([*oracle._CF, *oracle._LEMMAS])
_NO_K = [name for name in _ENTRIES if name not in oracle._K_IDENTITIES]


def _cli(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code != 4, argv
    return code, out.getvalue().encode()


def _span(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


@st.composite
def _sweeps(draw):
    """(ident, m range, k range or None, as_json); small m and k are drawn often, THM3's zero denominators among them."""
    ident = draw(st.sampled_from(_ENTRIES))
    m_lo = draw(st.integers(0, 70))
    # LEM_BRIDGE is stated for multiples of 5: a window of 5 values holds one.
    m_hi = m_lo + draw(st.integers(4 if ident == "LEM_BRIDGE" else 0, 10))
    k_range = None
    if ident in oracle._K_IDENTITIES:
        k_lo = draw(st.integers(-8, 8))
        k_range = (k_lo, k_lo + draw(st.integers(0, 6)))
    return ident, (m_lo, m_hi), k_range, draw(st.booleans())


@_FUZZ
@given(_sweeps())
def test_sweep_matches_the_oracle(sweep):
    ident, m_range, k_range, as_json = sweep
    argv = ["sweep", ident, "--m", _span(*m_range)]
    if k_range is not None:
        argv += ["--k", _span(*k_range)]
    if as_json:
        argv.append("--json")
    assert _cli(argv) == oracle.sweep(ident, m_range, k_range, as_json), argv


@st.composite
def _checks(draw):
    ident = draw(st.sampled_from(_NO_K))
    m = draw(st.integers(0, 80))
    return ident, m - m % 5 if ident == "LEM_BRIDGE" else m


@_FUZZ
@given(_checks())
def test_check_matches_the_oracle(case):
    ident, m = case
    assert _cli(["check", ident, "--m", str(m)]) == oracle.check(ident, m), case


# Run lists [(value, count), ...] with zero, negative and repeated terms, at least one term in all.
_runs = st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 4)), min_size=1, max_size=6).filter(
    lambda runs: sum(count for _, count in runs) > 0
)


def _cf_text(runs) -> str:
    return "[" + ",".join(f"{value}x{count}" if count != 1 else str(value) for value, count in runs) + "]"


@_FUZZ
@given(_runs, st.none() | st.integers(0, 30))
def test_eval_matches_the_oracle(runs, digits):
    argv = ["eval", _cf_text(runs)]
    if digits is not None:
        argv += ["--digits", str(digits)]
    assert _cli(argv) == oracle.evaluate(runs, digits), argv


@_FUZZ
@given(_runs)
def test_convergents_match_the_oracle(runs):
    argv = ["convergents", _cf_text(runs)]
    assert _cli(argv) == oracle.convergents(runs), argv


@st.composite
def _seqs(draw):
    """(kind, lo, hi, t or None, as_json): a window of up to 30 indices, n <= 1 500 (n <= 1 000 for scaled, odd t <= 9)."""
    kind = draw(st.sampled_from(["fib", "lucas", "scaled"]))
    t = draw(st.sampled_from([1, 3, 5, 7, 9])) if kind == "scaled" else None
    width = draw(st.integers(0, 30))
    top = (1000 if t else 1500) - width
    lo = draw(st.integers(0, top))
    if draw(st.booleans()):  # Hypothesis favours small integers; half the windows are drawn down from the top
        lo = top - lo
    return kind, lo, lo + width, t, draw(st.booleans())


@_FUZZ
@given(_seqs())
def test_seq_matches_the_oracle(case):
    kind, lo, hi, t, as_json = case
    argv = ["seq", kind, "--from", str(lo), "--to", str(hi)]
    if t is not None:
        argv += ["--t", str(t)]
    if as_json:
        argv.append("--json")
    assert _cli(argv) == oracle.seq(kind, lo, hi, t, as_json), argv


@_FUZZ
@given(st.integers(0, 25))
def test_oracle_board_matches_the_oracle(n):
    assert _cli(["oracle", "board", str(n)]) == oracle.board(n), n


# The oracle's period loop divides by zero on a perfect square, so none is drawn.
@_FUZZ
@given(st.integers(2, 10**5).filter(lambda d: isqrt(d) ** 2 != d))
def test_surd_matches_the_oracle(d):
    assert _cli(["surd", str(d)]) == oracle.surd(d), d
