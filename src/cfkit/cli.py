"""Command-line interface.

    cfkit eval "[2,3,7]"              exact value of a continued fraction
    cfkit expand 51/22                canonical expansion of a rational
    cfkit convergents "[2,3,7]"       full p/q table
    cfkit seq fib --from -5 --to 10   sequence values
    cfkit oracle board 10             brute-force tiling counts
    cfkit check ID117 --m 2           one identity case
    cfkit sweep THM2_FIB_FORM --m 0..100 --k -50..50
    cfkit fit 29 --n-max 10           uniform-base pattern fit
    cfkit surd 19                     periodic expansion of sqrt(d)

Every subcommand accepts --json for machine-readable output; sweeps emit
one JSON object per case followed by a summary object, with big integers
as decimal strings. sweep, seq and convergents write their lines in
blocks of 8 KB or more as they make them (to a terminal, each line at
once) and keep none they have written; each handler module says how it
makes its lines.

Exit codes: 0 success (all PASS), 1 at least one FAIL, 2 usage error,
3 evaluation or domain error, 4 internal error (a bug, not a verdict;
stdout may be cut short), 74 standard output cannot be written (a full
disk, or stdout closed at launch; sysexits' EX_IOERR), 141 standard
output closed before the command finished writing (a broken pipe, as in
`cfkit sweep ... | head`; 128 + SIGPIPE, the code a shell reports for a
process that signal ends). A stderr that cannot be written (a full disk,
fd 2 closed) drops the error line and keeps the code.

A launch loads and compiles only what its subcommand runs. This module
holds the subcommand table, the argv reader, run(), main() and what every
command shares, and imports `errors` alone. Each handler lives in a module
that run() imports for its subcommand only, with the library module it
drives: _cli_eval (eval; _parse and _products, not contfrac), _cli_cf
(expand, convergents, surd; contfrac), _cli_seq (seq; sequences),
_cli_oracle (oracle; tiling) and _cli_cases (check, sweep, fit;
identities). Every --json line is written from a template whose bytes
equal json.dumps() of its object, so no command imports json. Without
cached bytecode every launch compiles each module it imports.

A well-formed argv is read straight from the table: the subcommand, then
its positionals, --json and its options spelled in full, each given once,
every value one that its option's type and choices take. Anything else
(-h, --, --opt=value, an abbreviation, a repeat, an unknown, missing or
extra argument, a bad value) goes to the one argparse parser of all nine
subcommands, which writes every help text and usage error; it is built in
_cli_usage, which run() imports, with argparse, only then.
"""

import os
import re
import sys
from types import SimpleNamespace

from .errors import CFKitError

def _range_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if sep:
        try:
            return int(lo), int(hi)
        except ValueError:
            pass
    from ._cli_usage import ArgumentTypeError

    raise ArgumentTypeError(f"expected LO..HI, got '{text}'")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        from ._cli_usage import ArgumentTypeError

        kind = "an integer" if value is None else "a nonnegative integer"
        raise ArgumentTypeError(f"expected {kind}, got '{text}'")
    return value


def _write_lines(pieces) -> None:
    """Write pieces of newline-ended lines in blocks of over 8 KB, so python -u makes no write per line.

    A terminal gets each line at once. When `pieces` raises, the pieces
    before go out; a write that raises (a closed pipe) empties `parts` first.
    """
    write = sys.stdout.write
    if sys.stdout.isatty():
        for piece in pieces:
            for line in piece.splitlines(keepends=True):
                write(line)
        return
    parts, size = [], 0
    try:
        for piece in pieces:
            parts.append(piece)
            size += len(piece)
            if size > 8192:
                text, parts, size = "".join(parts), [], 0
                write(text)
    finally:
        if parts:
            write("".join(parts))


def _reusing(to_str):
    """digits(num, den) -> both as strings by to_str (str, _decimals.int_str), reusing the last num's for an equal den.

    The values are compared, not hashed, so a string is reused only for its own value.
    """
    last_num, last_str = None, ""

    def digits(num, den) -> tuple[str, str]:
        nonlocal last_num, last_str
        den_str = last_str if den == last_num else to_str(den)
        last_num, last_str = num, to_str(num)
        return last_str, den_str

    return digits


# kind -> (function in `sequences`, the extra parameter it takes first or None).
# seq calls the function by name for its first value and reads the rest from
# sequences.walk(), which looks it up by name too, so a wrapper put on the
# module attribute (as perfbench/launch.py does) sees the seed calls; the
# stepped values do not pass through it.
_SEQ_KINDS = {
    "fib": ("fib", None),
    "fibc": ("fib_comb", None),
    "lucas": ("lucas", None),
    "lucas-swapped": ("lucas_swapped", None),
    "gib": ("gibonacci", "k"),
    "scaled": ("scaled_fib", "t"),
}


def _handler(module: str, name: str):
    """The function `name` of cfkit.<module>, which is imported (and compiled) only when it runs."""

    def handler(args) -> int:
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)

    return handler


# A token this matches (-5, -.5, -3..3, -13/3) is a value, never an option
# name, to both argv readers.
_VALUE = r"-\.?\d"

# name -> (handler, help, arguments as (flag, options) pairs). Every
# subcommand also takes --json. Both argv readers, _read() and argparse's
# (_cli_usage.parser()), are made from this table.
_SUBCOMMANDS = {
    "eval": (
        _handler("_cli_eval", "cmd_eval"),
        "exact value of a continued fraction",
        [
            ("cf", {"help": 'continued fraction text, e.g. "[2,3,7]" or "[4x10,3]"'}),
            ("--digits", {"type": _nonneg_int, "help": "also render D decimal digits (text mode only)"}),
        ],
    ),
    "expand": (
        _handler("_cli_cf", "cmd_expand"),
        "canonical expansion of NUM/DEN",
        [("rational", {"help": "exact rational, e.g. 51/22"})],
    ),
    "convergents": (_handler("_cli_cf", "cmd_convergents"), "full convergent table", [("cf", {})]),
    "seq": (
        _handler("_cli_seq", "cmd_seq"),
        "sequence values over an index range",
        [
            ("kind", {"choices": tuple(_SEQ_KINDS)}),
            ("--from", {"dest": "start", "type": int, "required": True}),
            ("--to", {"dest": "stop", "type": int, "required": True}),
            ("--k", {"type": int, "help": "family parameter (gib)"}),
            ("--t", {"type": int, "help": "odd order (scaled)"}),
        ],
    ),
    "oracle": (
        _handler("_cli_oracle", "cmd_oracle"),
        "brute-force tiling counts",
        [
            ("kind", {"choices": ("board", "bracelet", "stacked")}),
            ("arg", {"help": "length, or a,b,c,... heights for stacked"}),
        ],
    ),
    "check": (
        _handler("_cli_cases", "cmd_check"),
        "check a single identity case",
        [("identity", {}), ("--m", {"type": int}), ("--k", {"type": int})],
    ),
    "sweep": (
        _handler("_cli_cases", "cmd_sweep"),
        "check an identity over ranges",
        [
            ("identity", {}),
            ("--m", {"type": _range_pair, "required": True, "metavar": "LO..HI"}),
            ("--k", {"type": _range_pair, "metavar": "LO..HI"}),
            ("--jobs", {"type": int, "help": "accepted for compatibility; has no effect (cases run serially)"}),
        ],
    ),
    "fit": (
        _handler("_cli_cases", "cmd_fit"),
        "fit [c,c,...,c] to a scaled-Fibonacci family",
        [("c", {"type": int}), ("--n-max", {"dest": "n_max", "type": int, "default": 10})],
    ),
    "surd": (
        _handler("_cli_cf", "cmd_surd"),
        "periodic expansion of sqrt(d)",
        [
            ("d", {"type": int}),
            ("--max-terms", {"dest": "max_terms", "type": _nonneg_int, "default": 10_000}),
        ],
    ),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed argv, or None to leave argv to argparse.

    Well-formed: the subcommand, then its positionals, --json and its
    options spelled in full, in any order, each option given once and
    followed by its value. Each value goes through the type argparse calls
    and must be among its choices. The namespace holds what argparse's
    does: command, handler, json and every destination with its default.
    """
    command = _command(argv)
    if command is None:
        return None
    handler, _, arguments = _SUBCOMMANDS[command]
    values = {"command": command, "handler": handler, "json": False}
    options, positionals = {"--json": None}, []
    for flag, spec in arguments:
        if flag.startswith("-"):
            dest = spec.get("dest", flag[2:].replace("-", "_"))
            options[flag] = dest, spec
            values[dest] = spec.get("default")
        else:
            positionals.append((flag, spec))
    positionals.reverse()
    value_at = re.compile(_VALUE).match
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-") and not value_at(token):
            # An option: one this subcommand has and that is not yet given,
            # or it is -h, --, --opt=value, an abbreviation, a repeat or unknown.
            if token not in options:
                return None
            option = options.pop(token)
            if option is None:
                values["json"] = True
                continue
            dest, spec = option
            token = next(tokens, None)
            if token is None or (token.startswith("-") and not value_at(token)):
                return None
        elif positionals:
            dest, spec = positionals.pop()
        else:
            return None
        try:
            value = spec["type"](token) if "type" in spec else token
        except Exception:
            # A ValueError or argparse's ArgumentTypeError (see
            # _cli_usage); argparse calls the type again and reports it.
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    if positionals or any(option and option[1].get("required") for option in options.values()):
        return None
    return SimpleNamespace(**values)


def _command(argv: list[str]) -> str | None:
    """The subcommand argv names, if it begins with one; None leaves argv to argparse."""
    return argv[0] if argv and argv[0] in _SUBCOMMANDS else None


def run(argv: list[str]) -> int:
    """Read argv, execute, and map errors onto the documented exit codes."""
    args = _read(argv)
    if args is None:
        from ._cli_usage import parser

        try:
            args = parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except CFKitError as exc:
        _to_stderr(f"error: {exc}\n")
        return exc.exit_code
    except BrokenPipeError:
        raise  # main() exits 141
    except OSError as exc:
        return _cannot_write(exc)
    except Exception as exc:
        _to_stderr(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return 4  # a bug, not a verdict


_IO_ERROR = 74  # sysexits' EX_IOERR
_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _to_stderr(text: str) -> None:
    """Write text to stderr and flush it; a closed or unwritable stderr drops it, and the exit code stays."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def _cannot_write(reason: object) -> int:
    _to_stderr(f"error: cannot write output: {reason}\n")
    return _IO_ERROR


def main() -> None:
    """Run sys.argv's command, flush stdout and stderr, and end the process with os._exit(code).

    The process ends without the interpreter's teardown, which would free
    every module and object a launch loaded, several milliseconds a launch.
    cfkit registers no atexit handler, starts no thread and writes only to
    the two standard streams, which are flushed first; an atexit hook the
    environment installs (a coverage hook, for example) does not run.
    run() returns as usual, for tests and library callers.
    """
    if sys.stdout is None:  # fd 1 was closed at launch (`cfkit ... >&-`)
        code = _cannot_write("standard output is closed")
    else:
        try:
            code = run(sys.argv[1:])
            if code != _IO_ERROR:  # after a failed write, the flush would fail again
                sys.stdout.flush()
        except BrokenPipeError:
            code = _BROKEN_PIPE
        except OSError as exc:  # a full disk: the flush of buffered output failed
            code = _cannot_write(exc)
    _to_stderr("")  # flush what is left in stderr's buffer
    os._exit(code)
