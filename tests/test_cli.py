import argparse
import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import _cli_cases, _cli_usage, _products, cli, errors
from cfkit._cli_eval import _decimal
from cfkit.cli import run
from cfkit.errors import UnknownIdentity
from cfkit.rational import Rational


def invoke(capsys, args, expect_code=0):
    code = run(args)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err or captured.out
    return captured


def test_eval_text(capsys):
    out = invoke(capsys, ["eval", "[2,3,7]"]).out
    assert out == "51/22\n"


def test_eval_json(capsys):
    out = invoke(capsys, ["eval", "[2,3,7]", "--json"]).out
    assert json.loads(out) == {"num": "51", "den": "22"}


def test_eval_digits_marks_truncation(capsys):
    assert invoke(capsys, ["eval", "[2,3,7]", "--digits", "6"]).out == "2.318181…\n"
    assert invoke(capsys, ["eval", "[3]", "--digits", "2"]).out == "3.00\n"
    assert invoke(capsys, ["eval", "[-4,1,2]", "--digits", "2"]).out == "-3.33…\n"


def _long_division(num, den, digits):
    """num/den truncated toward zero, one digit at a time, with '…' when inexact."""
    sign = "-" if num != 0 and (num < 0) != (den < 0) else ""
    whole, rem = divmod(abs(num), abs(den))
    text = sign + str(whole) + ("." if digits else "")
    for _ in range(digits):
        digit, rem = divmod(rem * 10, abs(den))
        text += str(digit)
    return text + "…" if rem else text


_big = st.integers(-(10**30), 10**30)


@settings(deadline=None)
@given(_big, _big.filter(bool), st.integers(0, 60))
def test_decimal_matches_long_division(num, den, digits):
    assert _decimal(Rational(num, den), digits) == _long_division(num, den, digits)


def test_decimal_edge_cases():
    assert _decimal(Rational(-1, 2), 2) == "-0.50"
    assert _decimal(Rational(-1, 2), 0) == "-0…"
    assert _decimal(Rational(3), 2) == "3.00"
    assert _decimal(Rational(1, 7), 0) == "0…"
    # more fractional digits than str(int) converts in one piece
    assert _decimal(Rational(-22, 7), 9000) == _long_division(-22, 7, 9000)
    assert _decimal(Rational(1, 2**40), 9000) == _long_division(1, 2**40, 9000)


def test_eval_undefined_value_exits_3(capsys):
    captured = invoke(capsys, ["eval", "[1,0]"], expect_code=3)
    assert "denominator" in captured.err


def test_eval_parse_error_exits_2(capsys):
    captured = invoke(capsys, ["eval", "[ ]"], expect_code=2)
    assert "position" in captured.err


def test_eval_repetition_syntax(capsys):
    assert invoke(capsys, ["eval", "[4x2, 9]"]).out == "157/37\n"


def test_expand(capsys):
    assert invoke(capsys, ["expand", "302/253"]).out == "[1,5,6,8]\n"
    assert invoke(capsys, ["expand", "5"]).out == "[5]\n"
    assert invoke(capsys, ["expand", "-13/3"]).out == "[-5,1,2]\n"
    assert json.loads(invoke(capsys, ["expand", "51/22", "--json"]).out) == {
        "terms": ["2", "3", "7"]
    }


def test_expand_error_codes(capsys):
    invoke(capsys, ["expand", "5/0"], expect_code=3)
    invoke(capsys, ["expand", "five"], expect_code=2)


@pytest.mark.parametrize(
    "text, terms",
    [(" 5 / 3 ", "[1,1,2]"), ("+5/-3", "[-2,3]"), ("007/3", "[2,3]"), ("-0/4", "[0]"), ("٣/4", "[0,1,3]")],
)
def test_expand_reads_signed_decimal_digits_with_spacing(capsys, text, terms):
    assert invoke(capsys, ["expand", text]).out == terms + "\n"


@pytest.mark.parametrize("text", ["3_0/4", "3_0", "5/1_0", "5/", "/5", "1/2/3", "5.0/3", "0x10/3", "", "5 3/4"])
def test_expand_rejects_what_is_not_num_slash_den(capsys, text):
    captured = invoke(capsys, ["expand", text], expect_code=2)
    assert (captured.out, captured.err) == ("", f"error: expected NUM/DEN, got '{text}' (at position 0)\n")


def test_an_underscore_is_no_digit_in_eval_either(capsys):
    invoke(capsys, ["eval", "[3_0]"], expect_code=2)


@pytest.mark.parametrize("argv", [["expand", "1" * 5000 + "/7"], ["expand", "7/" + "1" * 5000], ["eval", "[" + "7" * 5000 + "]"]])
def test_over_limit_input_is_an_internal_error_in_eval_and_expand(capsys, argv):
    # A well-formed numeral over the interpreter's integer-string limit is a
    # limit of this program, not bad input, whichever command reads it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        captured = invoke(capsys, argv, expect_code=4)
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ValueError: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stray",
    [
        ("expand -13/3 extra", "extra"),
        ("expand -13/3 extra --json", "extra"),
        ("expand -13/3 extra -7/2", "extra -7/2"),
        ("expand --json -13/3 -4 5", "-4 5"),
        ("expand -13/3 --m 4 extra", "--m 4 extra"),
    ],
)
def test_stray_token_after_negative_value_is_the_one_reported(capsys, argv, stray):
    err = invoke(capsys, argv.split(), expect_code=2).err
    assert err.rstrip().endswith(f"error: unrecognized arguments: {stray}")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("-13/3", "argument command: invalid choice: '-13/3'"),
        ("sweep THM2_FIB_FORM --m 0..1 --k -.5..1", "argument --k: expected LO..HI, got '-.5..1'"),
    ],
)
def test_negative_token_is_reported_as_typed(capsys, argv, message):
    err = invoke(capsys, argv.split(), expect_code=2).err
    assert f"error: {message}" in err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["eval", "[1]"], "eval"),
        (["sweep", "--json"], "sweep"),
        (["-h", "check"], None),
        (["--json", "sweep", "ID117"], None),
        (["--", "expand", "5/3"], None),
        (["bogus", "eval"], None),
        ([], None),
    ],
)
def test_command_is_the_first_token(argv, command):
    assert cli._command(argv) == command


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            args = exc.code
    return args, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, parsed",
    [
        # a negative value after an option is its value
        ("sweep X --m 0..2 --k -3..3", {"m": (0, 2), "k": (-3, 3)}),
        ("sweep X --m 0..2 --k -.5..1", 2),
        ("eval [1] --digits -1.5", 2),
        ("eval [1] --digits -.5", 2),
        ("check X --m -1", {"identity": "X", "m": -1}),
        # a negative positional is a positional, and the tokens after it keep their meaning
        ("expand -13/3", {"rational": "-13/3", "json": False}),
        ("expand -13/3 extra --json", 2),
        ("expand -13/3 --m 4 extra", 2),
        ("expand -13/3 -- extra", 2),
        ("expand 13/3 extra", 2),
    ],
)
def test_negative_values_parse_as_values(argv, parsed):
    argv = argv.split()
    args, _, _ = _parse(_cli_usage.parser(), argv)
    if isinstance(parsed, int):
        assert args == parsed
    else:
        assert {key: args[key] for key in parsed} == parsed


def test_every_parser_reads_a_leading_minus_and_digit_as_a_value():
    # The parsers rely on argparse's private `_negative_number_matcher`; if a
    # Python release drops it, this fails by name.
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    (subparsers,) = [a for a in _cli_usage.parser()._actions if a.dest == "command"]
    matcher = subparsers.choices["expand"]._negative_number_matcher
    assert all(matcher.match(tok) for tok in ("-3..3", "-13/3", "-1.5", "-.5"))
    assert not any(matcher.match(tok) for tok in ("--m", "-h", "-x1", "-"))


def test_convergents_text(capsys):
    out = invoke(capsys, ["convergents", "[2,3,7]"]).out
    assert out.splitlines() == ["0: 2/1", "1: 7/3", "2: 51/22"]


def test_convergents_json(capsys):
    lines = invoke(capsys, ["convergents", "[2,3,7]", "--json"]).out.splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows[-1] == {"i": 2, "p": "51", "q": "22"}


def test_seq_text(capsys):
    out = invoke(capsys, ["seq", "fib", "--from", "-2", "--to", "3"]).out
    assert out.splitlines() == ["-2\t-1", "-1\t1", "0\t0", "1\t1", "2\t1", "3\t2"]


def test_seq_json_carries_parameters(capsys):
    lines = invoke(
        capsys, ["seq", "gib", "--from", "7", "--to", "7", "--k", "3", "--json"]
    ).out.splitlines()
    assert json.loads(lines[0]) == {"kind": "gib", "n": 7, "k": 3, "value": "37"}


def test_seq_parameter_validation(capsys):
    invoke(capsys, ["seq", "gib", "--from", "0", "--to", "3"], expect_code=2)
    invoke(capsys, ["seq", "scaled", "--from", "0", "--to", "3"], expect_code=2)
    invoke(capsys, ["seq", "fib", "--from", "0", "--to", "3", "--k", "2"], expect_code=2)
    invoke(capsys, ["seq", "fibc", "--from", "-2", "--to", "3"], expect_code=3)


def test_oracle(capsys):
    assert invoke(capsys, ["oracle", "board", "4"]).out == "5\n"
    assert invoke(capsys, ["oracle", "bracelet", "0"]).out == "2\n"
    assert invoke(capsys, ["oracle", "stacked", "2,3,7"]).out == "51\n"
    payload = json.loads(invoke(capsys, ["oracle", "stacked", "2,3,7", "--json"]).out)
    assert payload == {"kind": "stacked", "heights": [2, 3, 7], "count": "51"}


def test_oracle_error_codes(capsys):
    invoke(capsys, ["oracle", "board", "26"], expect_code=3)
    invoke(capsys, ["oracle", "stacked", "a,b"], expect_code=2)


def test_check_pass(capsys):
    out = invoke(capsys, ["check", "ID117", "--m", "2"]).out
    assert out == "PASS m=2 lhs=55/13 rhs=55/13\n"


def test_check_fail_exits_1(capsys):
    out = invoke(capsys, ["check", "THM5_SWAPPED_LUCAS", "--m", "3"], expect_code=1).out
    assert out.startswith("FAIL")


def test_check_skipped_exits_0(capsys):
    out = invoke(capsys, ["check", "THM3_ONES", "--m", "1", "--k", "0"]).out
    assert "SKIPPED" in out


def test_check_json_schema(capsys):
    payload = json.loads(
        invoke(capsys, ["check", "ID117", "--m", "2", "--json"]).out
    )
    assert payload == {
        "identity": "ID117",
        "params": {"m": 2},
        "lhs": {"num": "55", "den": "13"},
        "rhs": {"num": "55", "den": "13"},
        "status": "PASS",
        "note": "",
    }


def test_check_usage_errors(capsys):
    invoke(capsys, ["check", "ID117"], expect_code=2)
    invoke(capsys, ["check", "NO_SUCH_IDENTITY", "--m", "1"], expect_code=2)
    invoke(capsys, ["check", "ID117", "--m", "1", "--k", "2"], expect_code=2)
    invoke(capsys, ["check", "THM2_FIB_FORM", "--m", "1"], expect_code=2)


def test_unknown_identity_is_a_typed_usage_error(capsys):
    with pytest.raises(UnknownIdentity):
        _cli_cases._identity("NO_SUCH_IDENTITY")
    for argv in (["check", "NO_SUCH_IDENTITY", "--m", "1"], ["sweep", "NO_SUCH_IDENTITY", "--m", "0..1"]):
        err = invoke(capsys, argv, expect_code=2).err
        assert err.startswith("error: unknown identity 'NO_SUCH_IDENTITY'; choose one of: ID117, ID118,")


def test_sweep_summary_line(capsys):
    out = invoke(capsys, ["sweep", "ID117", "--m", "0..200"]).out
    assert out == "pass=201 fail=0 skip=0\n"


def test_sweep_with_failures_exits_1(capsys):
    out = invoke(capsys, ["sweep", "THM5_SWAPPED_LUCAS", "--m", "0..5"], expect_code=1).out
    assert out.splitlines()[-1] == "pass=3 fail=3 skip=0"


def test_sweep_json_cases_and_summary(capsys):
    lines = invoke(
        capsys, ["sweep", "THM3_ONES", "--m", "0..3", "--k", "0..1", "--json"]
    ).out.splitlines()
    cases, summary = [json.loads(l) for l in lines[:-1]], json.loads(lines[-1])
    assert len(cases) == 8
    assert summary == {"identity": "THM3_ONES", "pass": 7, "fail": 0, "skip": 1}
    skipped = [c for c in cases if c["status"] == "SKIPPED"]
    assert [(c["params"]["m"], c["params"]["k"]) for c in skipped] == [(1, 0)]
    assert "lhs" not in skipped[0] and "rhs" not in skipped[0]
    assert all(isinstance(c["lhs"]["num"], str) for c in cases if "lhs" in c)


def test_sweep_signature_usage_errors(capsys):
    invoke(capsys, ["sweep", "THM2_FIB_FORM", "--m", "0..5"], expect_code=2)
    invoke(capsys, ["sweep", "ID117", "--m", "0..5", "--k", "0..1"], expect_code=2)
    invoke(capsys, ["sweep", "ID117", "--m", "5..0"], expect_code=2)


def test_sweep_jobs_do_not_change_output(capsys):
    serial = invoke(capsys, ["sweep", "THM2_FIB_FORM", "--m", "0..8", "--k", "-3..3", "--json"]).out
    threaded = invoke(
        capsys,
        ["sweep", "THM2_FIB_FORM", "--m", "0..8", "--k", "-3..3", "--jobs", "4", "--json"],
    ).out
    assert serial == threaded


def test_sweep_output_is_reproducible(capsys):
    first = invoke(capsys, ["sweep", "THM4_ELEVEN3", "--m", "0..40", "--json"]).out
    second = invoke(capsys, ["sweep", "THM4_ELEVEN3", "--m", "0..40", "--json"]).out
    assert first == second


def test_text_and_json_verdicts_agree(capsys):
    text = invoke(capsys, ["check", "THM5_SWAPPED_LUCAS", "--m", "3"], expect_code=1).out
    payload = json.loads(
        invoke(capsys, ["check", "THM5_SWAPPED_LUCAS", "--m", "3", "--json"], expect_code=1).out
    )
    assert text.split()[0] == payload["status"] == "FAIL"


def test_fit(capsys):
    assert invoke(capsys, ["fit", "18", "--n-max", "10"]).out == "NONE\n"
    assert invoke(capsys, ["fit", "29", "--n-max", "10"]).out == "7\n"
    assert json.loads(invoke(capsys, ["fit", "29", "--json"]).out) == {"c": "29", "t": 7}


def test_surd(capsys):
    assert invoke(capsys, ["surd", "19"]).out == "a0=4 period=[2,1,3,1,2,8]\n"
    payload = json.loads(invoke(capsys, ["surd", "19", "--json"]).out)
    assert payload == {"d": "19", "a0": "4", "period": ["2", "1", "3", "1", "2", "8"]}
    invoke(capsys, ["surd", "16"], expect_code=3)


def test_missing_subcommand_exits_2(capsys):
    invoke(capsys, [], expect_code=2)


# Every error class, by the exit code the CLI reports for it. Written out,
# so that a new class must be placed on one side on purpose.
USAGE_ERRORS = {
    "UsageError", "EmptyCF", "ParseError", "EmptyRange", "MissingParam", "ExtraParam", "UnknownIdentity",
}
DOMAIN_ERRORS = {
    "CFKitError", "ZeroDenominator", "UndefinedValue", "IntermediateZero",
    "PerfectSquare", "PeriodNotFound", "NegativeIndex", "EvenOrder", "BoundExceeded", "BadDomain",
}
ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.CFKitError)
]


def test_error_classes_are_split_into_usage_and_domain():
    assert {cls.__name__ for cls in ERROR_CLASSES} == USAGE_ERRORS | DOMAIN_ERRORS
    assert not USAGE_ERRORS & DOMAIN_ERRORS
    for cls in ERROR_CLASSES:
        # a usage error is still a ValueError to a library caller
        assert issubclass(cls, ValueError) == (cls.__name__ in USAGE_ERRORS), cls
        assert len(cls.__bases__) == 1 or cls is errors.UsageError, cls


def _raiser(exc):
    def raise_it(*args):
        raise exc

    return raise_it


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, cls):
    exc = cls("boom", 0) if cls is errors.ParseError else cls("boom")
    monkeypatch.setattr(_products, "evaluate_runs", _raiser(exc))
    captured = invoke(capsys, ["eval", "[1]"], expect_code=2 if cls.__name__ in USAGE_ERRORS else 3)
    assert captured.out == "" and captured.err.startswith("error: boom")


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("boom"), MemoryError()])
def test_an_error_from_outside_the_library_is_an_internal_error(capsys, monkeypatch, exc):
    monkeypatch.setattr(_products, "evaluate_runs", _raiser(exc))
    captured = invoke(capsys, ["eval", "[1]"], expect_code=4)
    assert captured.out == ""
    assert captured.err.startswith("error: internal error") and captured.err.count("\n") == 1


def test_broken_pipe_reaches_main(monkeypatch):
    monkeypatch.setattr(_products, "evaluate_runs", _raiser(BrokenPipeError()))
    with pytest.raises(BrokenPipeError):
        run(["eval", "[1]"])


def test_over_limit_output_is_an_internal_error(capsys, monkeypatch):
    # str() of the 6 000-digit value exceeds the interpreter's default
    # integer-string limit; that is a limit of this program, not bad input.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        captured = invoke(capsys, ["eval", "[4x10000,3]"], expect_code=4)
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ValueError: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # the library's own checks of these inputs are usage errors
        ("oracle board -1", 2, "board length must be >= 0, got -1"),
        ("oracle bracelet -1", 2, "bracelet length must be >= 0, got -1"),
        ("oracle stacked 0,1", 2, "stack capacities must be >= 1"),
        # a length that is no integer is malformed input
        ("oracle board x", 2, "oracle board needs an integer length"),
        ("oracle bracelet 2.5", 2, "oracle bracelet needs an integer length"),
        ("oracle stacked 1,x", 2, "oracle stacked needs a,b,c,... integer heights"),
        ("surd 0", 2, "expected a positive integer, got 0"),
        ("fit 0", 2, "expected c >= 1, got 0"),
        ("fit 0 --n-max 2", 2, "need n_max >= 3 for a meaningful fit, got 2"),
        # a superscript digit is no digit of an integer; an Arabic-Indic one is
        ("eval [²]", 2, "expected an integer (at position 1)"),
        ("eval [3x²]", 2, "expected an integer (at position 3)"),
        # a case both malformed and out of the domain: its shape is checked first
        ("check ID117 --m -1 --k 1", 2, "ID117 takes no k"),
        ("sweep ID117 --m -1..-1 --k 1..1", 2, "ID117 takes no k"),
        ("check THM2_FIB_FORM --m -1", 2, "THM2_FIB_FORM needs k"),
        ("sweep THM2_FIB_FORM --m -1..-1", 2, "THM2_FIB_FORM needs k"),
        ("check LEM_BRIDGE --m 7", 3, "LEM_BRIDGE is stated for multiples of 5, none in m = 7..7"),
        # an empty range is rejected by the library, as in sweep()
        ("sweep ID117 --m 5..3", 2, "empty m range 5..3"),
        ("sweep THM2_FIB_FORM --m 0..3 --k 2..-2", 2, "empty k range 2..-2"),
    ],
)
def test_rejected_input_message_and_code(capsys, argv, code, message):
    assert invoke(capsys, argv.split(), expect_code=code).err == f"error: {message}\n"
