"""Every --json line comes from a template; it must equal what json.dumps() wrote.

`_case_json_dict`, `_case_text_bits`, `_seq_json_dict`,
`_convergent_json_dict` and the objects of `LINES` below are what the CLI
built before its lines came from f-string templates. They stay here as the
reference: for every shape a line can take, the template's line must equal
json.dumps() of the reference object (and parse back to it), and the text
line must equal the reference's fields. No command imports json, so this
module is where the two are compared.
"""

import json
import os
import subprocess
import sys

import pytest

import cfkit
from cfkit import _cli_cases, cli, contfrac, identities, sequences, tiling
from cfkit.errors import CFKitError
from cfkit.identities import CaseParams, CheckOutcome, IdentityId, Status
from cfkit.rational import Rational

I = IdentityId


def _fresh_digits():
    """One string-reuse closure per side, new for each case, so a case reuses no string of another."""
    return cli._reusing(str), cli._reusing(str)


def _rat_json(r):
    return {"num": str(r.num), "den": str(r.den)}


def _case_json_dict(ident, params, outcome):
    obj = {"identity": ident.name, "params": {"m": params.m}}
    if params.k is not None:
        obj["params"]["k"] = params.k
    if outcome.lhs is not None:
        obj["lhs"] = _rat_json(outcome.lhs)
    if outcome.rhs is not None:
        obj["rhs"] = _rat_json(outcome.rhs)
    obj["status"] = outcome.status.name
    obj["note"] = outcome.note
    return obj


def _case_text_bits(params, outcome):
    bits = [outcome.status.name, f"m={params.m}"]
    if params.k is not None:
        bits.append(f"k={params.k}")
    if outcome.lhs is not None:
        bits.append(f"lhs={outcome.lhs}")
    if outcome.rhs is not None:
        bits.append(f"rhs={outcome.rhs}")
    if outcome.note:
        bits.append(f"({outcome.note})")
    return " ".join(bits)


def _catalog(ident, m, k=None):
    params = CaseParams(m, k)
    return ident, params, identities.run_case(ident, params)


_BIG = Rational(-(10**60) - 7, 3**40)

# Every shape a case line takes: the catalog's own outcomes where the catalog
# has one, and built outcomes for the one-sided undefined FAILs, which no
# catalog case in reach produces.
SHAPES = {
    "pass": _catalog(I.ID117, 2),
    "pass_with_k": _catalog(I.THM2_FIB_FORM, 3, -4),
    "pass_negative": _catalog(I.THM2_FIB_FORM, 0, -100),
    "fail_values_differ": _catalog(I.THM5_SWAPPED_LUCAS, 3),
    "fail_values_differ_with_k": (
        I.THM3_ONES,
        CaseParams(4, -2),
        CheckOutcome(Status.FAIL, Rational(3, 5), _BIG, "values differ"),
    ),
    "fail_left_undefined": (
        I.THM3_ONES,
        CaseParams(2, -1),
        CheckOutcome(Status.FAIL, None, _BIG, "left side undefined"),
    ),
    "fail_right_undefined": (
        I.ID117,
        CaseParams(7),
        CheckOutcome(Status.FAIL, _BIG, None, "right side undefined"),
    ),
    "skipped": _catalog(I.THM3_ONES, 1, 0),
    "lemma_pass": _catalog(I.LEM_BRIDGE, 15),
    "lemma_fail": _catalog(I.LEM_BRIDGE, 20),
}


def test_shapes_are_what_they_say():
    statuses = {name: outcome.status for name, (_, _, outcome) in SHAPES.items()}
    assert statuses["pass"] is statuses["lemma_pass"] is Status.PASS
    assert statuses["skipped"] is Status.SKIPPED
    assert statuses["fail_values_differ"] is statuses["lemma_fail"] is Status.FAIL


@pytest.mark.parametrize("shape", SHAPES)
def test_json_line_equals_json_dumps(shape):
    ident, params, outcome = SHAPES[shape]
    line = _cli_cases._case_json(ident.name, params, outcome, *_fresh_digits())
    reference = _case_json_dict(ident, params, outcome)
    assert line == json.dumps(reference)
    assert json.loads(line) == reference


@pytest.mark.parametrize("shape", SHAPES)
def test_text_line_equals_joined_fields(shape):
    _, params, outcome = SHAPES[shape]
    assert _cli_cases._case_text(params, outcome, *_fresh_digits()) == _case_text_bits(params, outcome)


@pytest.mark.parametrize(
    "ident, m, k",
    [
        (I.ID117, 2, None),
        (I.THM2_FIB_FORM, 3, -4),
        (I.THM5_SWAPPED_LUCAS, 3, None),
        (I.THM3_ONES, 1, 0),
        (I.LEM_BRIDGE, 15, None),
        (I.LEM_BRIDGE, 20, None),
    ],
)
def test_check_lines(capsys, ident, m, k):
    argv = ["check", ident.name, "--m", str(m)] + ([] if k is None else ["--k", str(k)])
    _, params, outcome = _catalog(ident, m, k)
    cli.run(argv + ["--json"])
    assert capsys.readouterr().out == json.dumps(_case_json_dict(ident, params, outcome)) + "\n"
    cli.run(argv)
    assert capsys.readouterr().out == _case_text_bits(params, outcome) + "\n"


def test_a_passing_check_converts_its_one_rational_once(capsys, monkeypatch):
    # A PASS carries one Rational as both sides, so its text line makes its
    # digits once.
    conversions = []
    real = Rational.__str__

    def counted(self):
        conversions.append(self)
        return real(self)

    monkeypatch.setattr(Rational, "__str__", counted)
    assert cli.run(["check", "THM6_ELEVEN_FIB", "--m", "40"]) == 0
    side = str(identities.run_case(I.THM6_ELEVEN_FIB, CaseParams(40)).lhs)
    assert capsys.readouterr().out == f"PASS m=40 lhs={side} rhs={side}\n"
    assert len(conversions) == 2  # the command's one and this test's own


@pytest.mark.parametrize(
    "ident, m_range, k_range",
    [
        (I.THM2_FIB_FORM, (0, 6), (-5, 5)),
        (I.THM3_ONES, (0, 4), (-2, 2)),  # a SKIPPED case
        (I.THM5_SWAPPED_LUCAS, (0, 6), None),  # FAIL from m = 3 on
        (I.THM6_ELEVEN_FIB, (3, 9), None),
        (I.LEM_BRIDGE, (0, 40), None),  # lemma PASS and FAIL
        (I.COR_GENERAL_LUCAS, (0, 3), (0, 3)),
    ],
)
def test_sweep_lines(capsys, ident, m_range, k_range):
    argv = ["sweep", ident.name, "--m", f"{m_range[0]}..{m_range[1]}"]
    if k_range is not None:
        argv += ["--k", f"{k_range[0]}..{k_range[1]}"]
    cases = list(identities.sweep(ident, m_range, k_range))

    cli.run(argv + ["--json"])
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == [json.dumps(_case_json_dict(ident, p, o)) for p, o in cases]
    assert [json.loads(line) for line in lines] == [_case_json_dict(ident, p, o) for p, o in cases]
    assert json.loads(summary)["identity"] == ident.name

    cli.run(argv)
    *lines, _ = capsys.readouterr().out.splitlines()
    assert lines == [_case_text_bits(p, o) for p, o in cases if o.status is not Status.PASS]


# --- seq and convergents ----------------------------------------------------


def _seq_json_dict(kind, n, needs, param, value):
    obj = {"kind": kind, "n": n}
    if needs is not None:
        obj[needs] = param
    obj["value"] = str(value)
    return obj


def _convergent_json_dict(i, p, q):
    return {"i": i, "p": str(p), "q": str(q)}


# Every seq kind with its extra parameter, if any: gib over k in -3..3 and
# scaled over t in -2..4, where only t = 1 and t = 3 are valid orders.
SEQ_CASES = (
    [(kind, None) for kind, (_, needs) in cli._SEQ_KINDS.items() if needs is None]
    + [("gib", k) for k in range(-3, 4)]
    + [("scaled", t) for t in range(-2, 5)]
)


def _seq_argv(kind, param, start, stop):
    argv = ["seq", kind, "--from", str(start), "--to", str(stop)]
    needs = cli._SEQ_KINDS[kind][1]
    return argv if needs is None else argv + [f"--{needs}", str(param)]


@pytest.mark.parametrize("kind, param", SEQ_CASES, ids=[f"{k}-{p}" for k, p in SEQ_CASES])
def test_seq_lines_equal_direct_calls(capsys, kind, param):
    name, needs = cli._SEQ_KINDS[kind]
    function = getattr(sequences, name)
    leading = () if needs is None else (param,)
    for start in (-3, -1, 0, 1, 2):
        indices = range(start, 13)  # every range crosses 2, and all but the last cross 0 and 1
        argv = _seq_argv(kind, param, start, indices[-1])
        try:
            values = [function(*leading, n) for n in indices]
        except CFKitError as exc:
            # The first index raises; seq must fail the same way in both forms.
            for form in ([], ["--json"]):
                assert cli.run(argv + form) == 3, argv
                assert capsys.readouterr() == ("", f"error: {exc}\n")
            continue

        assert cli.run(argv) == 0
        assert capsys.readouterr() == ("".join(f"{n}\t{v}\n" for n, v in zip(indices, values)), "")

        assert cli.run(argv + ["--json"]) == 0
        out, err = capsys.readouterr()
        reference = [_seq_json_dict(kind, n, needs, param, v) for n, v in zip(indices, values)]
        assert (out.splitlines(), err) == ([json.dumps(obj) for obj in reference], "")
        assert [json.loads(line) for line in out.splitlines()] == reference


# Exit code, stdout and stderr of each failing seq command, recorded from the
# build whose lines came from json.dumps(); with --json they are the same.
SEQ_ERRORS = [
    ("seq fibc --from -2 --to 3", 3, "error: f_n is a tiling count, undefined for n = -2\n"),
    ("seq gib --from -1 --to 3 --k 1", 3, "error: G is defined for n >= 0, got -1\n"),
    ("seq scaled --from 0 --to 3 --t 2", 3, "error: order must be odd and positive, got 2\n"),
    ("seq scaled --t -3 --from 0 --to 1", 3, "error: order must be odd and positive, got -3\n"),
    ("seq scaled --t 1 --from -1 --to 1", 3, "error: scaled Fibonacci is defined for n >= 0, got -1\n"),
    ("seq gib --from 0 --to 3", 2, "error: seq gib needs --k\n"),
    ("seq scaled --from 0 --to 3 --k 2", 2, "error: seq scaled needs --t\n"),
    ("seq fib --from 0 --to 3 --k 1 --t 1", 2, "error: seq fib takes no --k\n"),
    ("seq lucas --from 3 --to 1", 2, "error: empty index range 3..1\n"),
]


@pytest.mark.parametrize("argv, code, err", SEQ_ERRORS, ids=[a for a, _, _ in SEQ_ERRORS])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_seq_errors_are_unchanged(capsys, argv, code, err, as_json):
    assert cli.run(argv.split() + ["--json"] * as_json) == code
    assert capsys.readouterr() == ("", err)


def test_seq_unknown_kind_is_an_argparse_error(capsys):
    # argparse words the list of choices differently across Python versions;
    # the exit code and the start of its message are the same everywhere.
    assert cli.run(["seq", "nope", "--from", "0", "--to", "1", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cfkit seq: error: argument kind: invalid choice: 'nope'" in err


@pytest.mark.parametrize("cf", ["[2,3,7]", "[-3,1,2]", "[0]", "[1x40]", "[5,-2,3x3]", "[999999999999x3,1]"])
def test_convergent_lines_equal_json_dumps(capsys, cf):
    rows = list(enumerate(contfrac.convergents(contfrac.parse_cf(cf))))

    assert cli.run(["convergents", cf, "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reference = [_convergent_json_dict(i, p, q) for i, (p, q) in rows]
    assert lines == [json.dumps(obj) for obj in reference]
    assert [json.loads(line) for line in lines] == reference

    assert cli.run(["convergents", cf]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{i}: {p}/{q}" for i, (p, q) in rows]


# --- eval, expand, oracle, fit, surd and the sweep summary -------------------


def _value(cf):
    return contfrac.evaluate_runs(contfrac.parse_runs(cf))


def _terms(num, den):
    return {"terms": [str(t) for t in contfrac.expand_rational(Rational(num, den))]}


def _surd(d):
    expansion = contfrac.surd_cf(d, 10_000)
    return {"d": str(d), "a0": str(expansion.a0), "period": [str(a) for a in expansion.period]}


def _summary(ident, m_range, k_range=None):
    statuses = [outcome.status for _, outcome in identities.sweep(ident, m_range, k_range)]
    counts = {key: statuses.count(status) for key, status in (("pass", Status.PASS), ("fail", Status.FAIL), ("skip", Status.SKIPPED))}
    return {"identity": ident.name, **counts}


# argv -> the object of the last line that argv with --json prints.
LINES = {
    "eval [2,3,7]": lambda: _rat_json(_value("[2,3,7]")),
    "eval [-3,1,2]": lambda: _rat_json(_value("[-3,1,2]")),
    "eval [-99999999999999999999x2,7]": lambda: _rat_json(_value("[-99999999999999999999x2,7]")),
    "eval [4x40,3]": lambda: _rat_json(_value("[4x40,3]")),
    "eval [-5]": lambda: _rat_json(_value("[-5]")),
    "expand -13/3": lambda: _terms(-13, 3),
    "expand 5": lambda: _terms(5, 1),
    "expand -123456789012345678901234567/89": lambda: _terms(-123456789012345678901234567, 89),
    "oracle board 10": lambda: {"kind": "board", "n": 10, "count": str(tiling.count_board(10))},
    "oracle board 0": lambda: {"kind": "board", "n": 0, "count": str(tiling.count_board(0))},
    "oracle bracelet 9": lambda: {"kind": "bracelet", "n": 9, "count": str(tiling.count_bracelet(9))},
    "oracle stacked 2,3,7": lambda: {"kind": "stacked", "heights": [2, 3, 7], "count": str(tiling.count_stacked([2, 3, 7]))},
    "oracle stacked 5": lambda: {"kind": "stacked", "heights": [5], "count": str(tiling.count_stacked([5]))},
    "fit 29": lambda: {"c": "29", "t": identities.fit_uniform(29, 10)},
    "fit 1": lambda: {"c": "1", "t": identities.fit_uniform(1, 10)},
    "fit 18": lambda: {"c": "18", "t": identities.fit_uniform(18, 10)},
    "surd 19": lambda: _surd(19),
    "surd 2": lambda: _surd(2),
    "sweep ID117 --m 0..6": lambda: _summary(I.ID117, (0, 6)),
    "sweep THM5_SWAPPED_LUCAS --m 0..6": lambda: _summary(I.THM5_SWAPPED_LUCAS, (0, 6)),
    "sweep THM3_ONES --m 0..4 --k -2..2": lambda: _summary(I.THM3_ONES, (0, 4), (-2, 2)),
}


def test_lines_cover_null_fail_and_skip():
    assert LINES["fit 29"]()["t"] == 7 and LINES["fit 18"]()["t"] is None
    assert LINES["sweep THM5_SWAPPED_LUCAS --m 0..6"]()["fail"] > 0
    assert LINES["sweep THM3_ONES --m 0..4 --k -2..2"]()["skip"] > 0


@pytest.mark.parametrize("argv", LINES)
def test_other_lines_equal_json_dumps(capsys, argv):
    reference = LINES[argv]()
    cli.run(argv.split() + ["--json"])
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == json.dumps(reference)
    assert json.loads(line) == reference


# --- a reader that stops early ------------------------------------------------


CLOSED_PIPE = [
    "sweep THM2_FIB_FORM --m 0..200 --k -100..100 --json",
    "seq fib --from 0 --to 3000",
]


@pytest.mark.parametrize("argv", CLOSED_PIPE)
def test_closed_pipe_exits_141_without_a_traceback(argv):
    _read_one_line_then_close(argv.split())


@pytest.mark.parametrize("argv", CLOSED_PIPE)
def test_closed_pipe_exits_141_on_an_unbuffered_stdout(argv):
    # Under python -u every write reaches the pipe as it is made.
    _read_one_line_then_close(argv.split(), ["-u"])


def _child_env():
    """This environment with cfkit's source on PYTHONPATH and no PYTHONUNBUFFERED: a child's stdout is buffered unless it runs with -u."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfkit.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _read_one_line_then_close(argv, flags=()):
    # Read one line, then close the pipe; the command has megabytes left to
    # write, so its next write finds no reader.
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "cfkit", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert first.strip()


# --- a stdout that cannot be written ------------------------------------------


def _launch(argv, flags=(), **kwargs):
    """Run `python [flags] -m cfkit argv` to its end, with stderr captured."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "cfkit", *argv], stderr=subprocess.PIPE, env=_child_env(), timeout=120, **kwargs
    )


def _assert_cannot_write(proc):
    # One documented line and code: no traceback, and no "Exception ignored"
    # from the flush at interpreter shutdown.
    assert proc.returncode == 74, proc.stderr
    err = proc.stderr.decode()
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


FULL_DISK = [
    ("eval [1]", ()),  # buffered: the flush in main() fails
    ("eval [1]", ("-u",)),  # unbuffered: the write in run() fails
    ("sweep ID117 --m 0..3", ()),
    # 370 KB: a write in run() fails, and its block stays buffered
    ("sweep THM2_FIB_FORM --m 0..30 --k -30..30 --json", ()),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, flags", FULL_DISK)
def test_a_full_disk_exits_74_with_one_error_line(argv, flags):
    with open("/dev/full", "wb") as full:
        _assert_cannot_write(_launch(argv.split(), flags, stdout=full))


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
def test_a_closed_stdout_exits_74_with_one_error_line():
    # As `cfkit eval "[1]" >&-`: Python starts with sys.stdout None.
    _assert_cannot_write(_launch(["eval", "[1]"], preexec_fn=lambda: os.close(1)))


# --- a stderr that cannot be written -------------------------------------------

# An error line that cannot be written is dropped; the exit code stays.
STDERR_LOST = [
    ("eval [1,0]", 3),  # an evaluation error
    ("eval [1,x]", 2),  # a usage error from the text format
    ("check ID117 --m -1", 3),  # a domain error
    ("eval [1]", 74),  # stdout on /dev/full as well
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child")
@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("argv, code", STDERR_LOST)
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, stderr):
    with open("/dev/full", "wb") as full:
        # stderr on /dev/full, or fd 2 closed as in `cfkit ... 2>&-`
        lost = {"stderr": full} if stderr == "full" else {"preexec_fn": lambda: os.close(2)}
        proc = subprocess.run(
            [sys.executable, "-m", "cfkit", *argv.split()],
            stdout=full if code == 74 else subprocess.PIPE,
            env=_child_env(),
            timeout=120,
            **lost,
        )
    assert proc.returncode == code
    assert not proc.stdout  # the error line does not go to stdout instead
