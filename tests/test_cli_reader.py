"""The argv reader agrees with argparse, and every benchmark command line takes it.

`cli._read` reads a well-formed command line from the subcommand table and
returns None for anything else, which then goes to argparse. Whenever the
reader returns a namespace, argparse must parse the same argv to the same
attributes; whenever argparse exits (help or a usage error), the reader must
have deferred. The argv are drawn from every subcommand and option name,
abbreviations, `--opt=value`, `--`, `-h`, negative numbers, `..` ranges and
junk, and from command lines built well formed from the table.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import _cli_usage, cli


def _argparse(argv):
    """vars() of argparse's namespace for argv, or its exit code."""
    parser = _cli_usage.parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _assert_agree(argv):
    read, parsed = cli._read(argv), _argparse(argv)
    if read is not None:
        assert vars(read) == parsed, argv
    if not isinstance(parsed, dict):
        assert read is None, argv
    return read


_NAMES = list(cli._SUBCOMMANDS)
_OPTIONS = sorted(
    {"--json", *(flag for _, _, arguments in cli._SUBCOMMANDS.values() for flag, _ in arguments if flag[0] == "-")}
)
_ABBREVIATIONS = sorted({option[:n] for option in _OPTIONS for n in range(3, len(option))} - set(_OPTIONS))
_VALUES = [
    "0", "3", "12", "-1", "-3", "-1.5", "-.5", "-13/3", "5/3", "0..3", "-2..2", "5..0", "-3..-1", "1..x", "..",
    "[1]", "[2,3,7]", "[4x3,9]", "ID117", "THM2_FIB_FORM", "fib", "gib", "board", "stacked", "2,3", "x", "",
    "-", "-x", "-.", "--", "-h", "--help", "٣", "-٣", "5.0", "1_0", " 7 ", "nope",
]
_TOKEN = st.one_of(
    st.sampled_from(_OPTIONS),
    st.sampled_from(_ABBREVIATIONS),
    st.sampled_from(_VALUES),
    st.builds("{}={}".format, st.sampled_from(_OPTIONS + _ABBREVIATIONS), st.sampled_from(_VALUES)),
    st.text(max_size=4),
)
_JUNK_ARGV = st.lists(_TOKEN, max_size=3).flatmap(
    lambda head: st.tuples(st.sampled_from(_NAMES + head), st.lists(_TOKEN, max_size=7))
).map(lambda parts: [parts[0], *parts[1]])

# Plausible values for each type, so that well-formed lines are often read.
_PLAUSIBLE = {
    int: ["0", "3", "-2", "10", "x"],
    cli._range_pair: ["0..3", "-2..2", "2..2", "5..0", "3"],
    cli._nonneg_int: ["0", "5", "-1"],
    None: ["[2,3,7]", "-13/3", "ID117", "5/3", "19", "2,3", "-x", "-", "--json"],
}


def _value(spec):
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], "nope"])
    return st.sampled_from(_PLAUSIBLE[spec.get("type")])


@st.composite
def _well_formed(draw):
    """A command line from the table: its positionals in order, some options, in a drawn order."""
    name = draw(st.sampled_from(_NAMES))
    _, _, arguments = cli._SUBCOMMANDS[name]
    positionals = [[draw(_value(spec))] for flag, spec in arguments if flag[0] != "-"]
    options = [["--json"]] if draw(st.booleans()) else []
    for flag, spec in arguments:
        if flag[0] == "-" and (spec.get("required") or draw(st.booleans())):
            options.append([flag, draw(_value(spec))])
    groups = positionals + options
    order = draw(st.permutations(range(len(groups))))
    # Positionals keep their order; the options go between them as drawn.
    picks, next_positional = [], iter(positionals)
    for i in order:
        picks.append(next(next_positional) if i < len(positionals) else groups[i])
    argv = [name, *(token for group in picks for token in group)]
    if draw(st.booleans()):  # now and then a token too many, or one spelled otherwise
        argv.insert(draw(st.integers(1, len(argv))), draw(_TOKEN))
    return argv


@settings(deadline=None, derandomize=True, max_examples=600)
@given(st.one_of(_well_formed(), _JUNK_ARGV))
def test_the_reader_agrees_with_argparse(argv):
    _assert_agree(argv)


@pytest.mark.parametrize(
    "argv",
    [
        "eval [2,3,7] --digits 4",
        "eval [1] extra",
        "eval",
        "eval --digits -1 [1]",
        "eval --help",
        "expand -- -13/3 extra",
        "seq fib --from 0",
        "seq nope --from 0 --to 1",
        "oracle board",
        "check ID117 --m 2 --k 1 --json",
        "sweep ID117 --m 5..0",
        "sweep ID117 --m 5.0",
        "sweep THM2_FIB_FORM --m 0..2 --k=-3..3 --jobs 2",
        "fit --n-max 3",
        "surd 19 --max-terms x",
        "convergents [1] --json",
    ],
)
def test_pinned_lines_agree_with_argparse(argv):
    # Help, each kind of usage error and a line argparse alone reads, one
    # subcommand or more of each.
    _assert_agree(argv.split())


def test_the_drawn_lines_take_both_paths():
    # The differential test means something only if it draws both kinds.
    read = deferred = 0

    @settings(deadline=None, derandomize=True, max_examples=200, database=None)
    @given(_well_formed())
    def count(argv):
        nonlocal read, deferred
        if cli._read(argv) is None:
            deferred += 1
        else:
            read += 1

    count()
    assert read > 50 and deferred > 20, (read, deferred)


# Each argv shape the benchmark's workloads run (perfbench/workloads.py),
# with the attributes the reader must give it.
WORKLOAD_SHAPES = {
    "sweep THM2_FIB_FORM --m 0..200 --k -97..103 --json": {"m": (0, 200), "k": (-97, 103), "json": True, "jobs": None},
    "sweep THM2_FIB_FORM --m 0..200 --k -97..103 --json --jobs 2": {"k": (-97, 103), "jobs": 2},
    "sweep THM3_ONES --m 0..300 --k -33..27": {"m": (0, 300), "k": (-33, 27), "json": False},
    "sweep THM6_ELEVEN_FIB --m 4..2004": {"identity": "THM6_ELEVEN_FIB", "m": (4, 2004), "k": None},
    "sweep THM6_ELEVEN_FIB --m 4110..4120 --json": {"m": (4110, 4120), "json": True},
    "sweep THM7_FOURS --m 3..2003 --json": {"identity": "THM7_FOURS", "m": (3, 2003)},
    "check THM5_SWAPPED_LUCAS --m 5000": {"identity": "THM5_SWAPPED_LUCAS", "m": 5000, "k": None},
    "eval [4x60000] --digits 50": {"cf": "[4x60000]", "digits": 50},
    "eval [2x15000,-3,1x15000,7,7x15000,-2,5x15000] --digits 50": {"digits": 50},
    "eval [4x10000,3]": {"cf": "[4x10000,3]", "digits": None},
    "convergents [11x1500]": {"cf": "[11x1500]", "json": False},
    "seq fib --from 3 --to 6003": {"kind": "fib", "start": 3, "stop": 6003, "k": None, "t": None},
    "seq lucas --from 0 --to 6000 --json": {"kind": "lucas", "json": True},
    "seq scaled --from 2935 --to 2945 --t 7": {"kind": "scaled", "start": 2935, "stop": 2945, "t": 7},
    "oracle board 25": {"kind": "board", "arg": "25"},
    "surd 9999991": {"d": 9999991, "max_terms": 10_000},
}


@pytest.mark.parametrize("argv", WORKLOAD_SHAPES)
def test_every_workload_shape_is_read_without_argparse(argv):
    read = _assert_agree(argv.split())
    assert read is not None
    assert {key: getattr(read, key) for key in WORKLOAD_SHAPES[argv]} == WORKLOAD_SHAPES[argv]


def test_every_benchmark_operation_is_read_without_argparse(monkeypatch):
    # The workloads themselves, loaded by path; workloads.py imports its
    # oracle as the top-level module `oracle`, and a dataclass needs its
    # module in sys.modules.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    for name in ("oracle", "workloads"):
        spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    workloads = sys.modules["workloads"]
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, workloads.DEFAULT_SEED):
            assert _assert_agree(list(op.argv)) is not None, op
