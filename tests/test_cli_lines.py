"""Case lines are written from templates; they must equal what json.dumps() wrote.

`_case_json_dict` and `_case_text_bits` below are the builders the CLI used
before its lines came from f-string templates. They stay here as the
reference: for every shape a case line can take, the template's line must
equal json.dumps() of the reference object (and parse back to it), and the
text line must equal the reference's space-joined fields.
"""

import json
import os
import subprocess
import sys

import pytest

import cfkit
from cfkit import cli, identities
from cfkit.identities import CaseParams, CheckOutcome, IdentityId, Status
from cfkit.rational import Rational

I = IdentityId


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
    line = cli._case_json(ident.name, params, outcome)
    reference = _case_json_dict(ident, params, outcome)
    assert line == json.dumps(reference)
    assert json.loads(line) == reference


@pytest.mark.parametrize("shape", SHAPES)
def test_text_line_equals_joined_fields(shape):
    _, params, outcome = SHAPES[shape]
    assert cli._case_text(params, outcome) == _case_text_bits(params, outcome)


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
    cases = list(identities.iter_sweep(ident, m_range, k_range))

    cli.run(argv + ["--json"])
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == [json.dumps(_case_json_dict(ident, p, o)) for p, o in cases]
    assert [json.loads(line) for line in lines] == [_case_json_dict(ident, p, o) for p, o in cases]
    assert json.loads(summary)["identity"] == ident.name

    cli.run(argv)
    *lines, _ = capsys.readouterr().out.splitlines()
    assert lines == [_case_text_bits(p, o) for p, o in cases if o.status is not Status.PASS]


# --- a reader that stops early ------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        "sweep THM2_FIB_FORM --m 0..200 --k -100..100 --json",
        "seq fib --from 0 --to 3000",
    ],
)
def test_closed_pipe_exits_141_without_a_traceback(argv):
    # Read one line, then close the pipe; the command has megabytes left to
    # write, so its next write finds no reader.
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cfkit", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert first.strip()
