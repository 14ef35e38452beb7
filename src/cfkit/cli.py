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
one JSON object per case followed by a summary object. sweep, seq and
convergents write their lines in blocks of about 8 KB as they make them
(to a terminal, each line at once). A sweep reads the engine's batches
(one m, at most 64 consecutive k), counts the tallies as it goes and keeps
no case it has written; only COR_GENERAL_LUCAS keeps one engine state per
k, so its memory grows with the k range. Big integers are serialized as
decimal strings, never as JSON numbers.

Exit codes: 0 success (all PASS), 1 at least one FAIL, 2 usage error,
3 evaluation or domain error, 4 internal error (a bug, not a verdict;
stdout may be cut short), 141 standard output closed before the command
finished writing (a broken pipe, as in `cfkit sweep ... | head`; 128 +
SIGPIPE, the code a shell reports for a process that signal ends).

A launch loads only what its subcommand runs. This module imports argparse
and `errors` alone; each handler imports the modules it calls (contfrac for
eval/expand/convergents/surd, sequences for seq, tiling for oracle,
identities for check/sweep/fit). Every --json line is written from a
template whose bytes equal json.dumps() of its object, so no command
imports json.
Without cached bytecode (PYTHONDONTWRITEBYTECODE, a read-only install)
every launch compiles each module it imports, so a module a command does
not import is compile time it does not spend. When argv begins with a
subcommand, the parser holds that subcommand alone; otherwise (`cfkit
--help`, an unknown name) it holds all nine, so the help and the errors
list every subcommand.

A token that starts with '-' and a digit is a value (`--k -50..50`,
`expand -13/3`), never an option name.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain

from .errors import CFKitError, EmptyRange, ExtraParam, MissingParam, ParseError, UnknownIdentity

# Annotations below name cfkit types (Rational, IdentityId, CaseParams,
# CheckOutcome) that are imported only where a handler uses them; with
# postponed evaluation they are never resolved at run time.


def _range_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got '{text}'")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got '{text}'") from exc


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got '{text}'")
    return value


def _identity(name: str) -> IdentityId:
    from .identities import IdentityId

    try:
        return IdentityId[name]
    except KeyError:
        known = ", ".join(i.name for i in IdentityId)
        raise UnknownIdentity(f"unknown identity '{name}'; choose one of: {known}") from None


def _parse_rational(text: str) -> Rational:
    """NUM or NUM/DEN: signed decimal integers, with whitespace around each token.

    int() runs only on digits the pattern has accepted, so a numeral over the
    interpreter's integer-string digit limit fails there, as it does in eval.
    """
    from .rational import Rational

    match = re.fullmatch(r"\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?", text)
    if match is None:
        raise ParseError(f"expected NUM/DEN, got '{text}'", 0)
    num, den = match.groups()
    return Rational(int(num), 1 if den is None else int(den))


def _decimal(r: Rational, digits: int) -> str:
    """Truncate toward zero to `digits` fractional digits; '…' marks inexactness."""
    scaled, rem = divmod(abs(r.num) * 10**digits, r.den)
    whole, frac = divmod(scaled, 10**digits)
    out = ("-" if r.num < 0 else "") + str(whole)
    if digits:
        out += "." + _zero_padded(frac, digits)
    return out + "…" if rem else out


def _zero_padded(n: int, width: int) -> str:
    """0 <= n < 10**width as `width` digits, in pieces short enough for str(int)'s digit limit."""
    if width <= 4000:
        return str(n).zfill(width)
    hi, lo = divmod(n, 10 ** (width // 2))
    return _zero_padded(hi, width - width // 2) + _zero_padded(lo, width // 2)


def _rat_json(r: Rational) -> str:
    return f'{{"num": "{r.num}", "den": "{r.den}"}}'


def _strings_json(values) -> str:
    """A JSON array of the values as strings; each is digits and a sign, so none needs escaping."""
    return "[" + ", ".join(f'"{v}"' for v in values) + "]"


def _write_lines(lines) -> None:
    """Write the lines (newline-ended) in blocks of over 8 KB, so python -u makes no write per line.

    A terminal gets each line at once. When `lines` raises, the lines before go
    out; a write that raises (a closed pipe) empties `pending` first.
    """
    write = sys.stdout.write
    pending, block = "", 0 if sys.stdout.isatty() else 8192
    try:
        for line in lines:
            pending += line
            if len(pending) > block:
                text, pending = pending, ""
                write(text)
    finally:
        if pending:
            write(pending)


def _json_head(name: str, m: int, takes_k: bool) -> str:
    """A case's JSON line up to its k value: {"identity": NAME, "params": {"m": M[, "k": ]."""
    head = f'{{"identity": "{name}", "params": {{"m": {m}'
    return head + ', "k": ' if takes_k else head


def _pass_lines(head: str, ks, ps, qs, end: str = "\n") -> list[str]:
    """Passing cases of one m as JSON lines from plain ints: head (_json_head()), then k ("" without one).

    Both sides are p/q as _rat_json() writes it, a string made once per case.
    """
    return [
        f'{head}{k}}}, "lhs": {side}, "rhs": {side}, "status": "PASS", "note": ""}}{end}'
        for k, p, q in zip(ks, ps, qs)
        for side in (f'{{"num": "{p}", "den": "{q}"}}',)
    ]


def _case_json(name: str, params: CaseParams, outcome: CheckOutcome) -> str:
    """One case as a JSON object, written from one template (a PASS from _pass_lines()').

    The bytes are those of json.dumps() on the object {"identity", "params",
    "lhs", "rhs", "status", "note"}: an undefined side's key is left out,
    big integers are decimal strings, and m and k are JSON numbers. Names,
    statuses and notes are plain ASCII without quotes or backslashes, so they
    need no escaping.
    """
    m, k = params
    status, lhs, rhs, note = outcome
    head, key = _json_head(name, m, k is not None), "" if k is None else k
    if status.name == "PASS":
        return _pass_lines(head, (key,), (lhs.num,), (lhs.den,), end="")[0]
    sides = "" if lhs is None else f', "lhs": {_rat_json(lhs)}'
    if rhs is not None:
        sides += f', "rhs": {_rat_json(rhs)}'
    return f'{head}{key}}}{sides}, "status": "{status.name}", "note": "{note}"}}'


def _case_text(params: CaseParams, outcome: CheckOutcome) -> str:
    """One case as a text line: STATUS m=M [k=K] [lhs=P/Q] [rhs=P/Q] [(note)]."""
    m, k = params
    status, lhs, rhs, note = outcome
    name, k_field = status.name, "" if k is None else f" k={k}"
    if name == "PASS":
        side = str(lhs)  # a PASS carries one Rational as both sides
        return f"PASS m={m}{k_field} lhs={side} rhs={side}"
    return (
        f"{name} m={m}{k_field}"
        f"{'' if lhs is None else f' lhs={lhs}'}"
        f"{'' if rhs is None else f' rhs={rhs}'}"
        f"{f' ({note})' if note else ''}"
    )


def _cmd_eval(args) -> int:
    from . import contfrac

    value = contfrac.evaluate_runs(contfrac.parse_runs(args.cf))
    if args.json:
        print(_rat_json(value))
    elif args.digits is not None:
        print(_decimal(value, args.digits))
    else:
        print(value)
    return 0


def _cmd_expand(args) -> int:
    from . import contfrac

    terms = contfrac.expand_rational(_parse_rational(args.rational))
    if args.json:
        print(f'{{"terms": {_strings_json(terms)}}}')
    else:
        print("[" + ",".join(str(t) for t in terms) + "]")
    return 0


def _cmd_convergents(args) -> int:
    from . import contfrac

    table = contfrac.convergents(contfrac.parse_cf(args.cf))
    # Each --json line is the bytes of json.dumps({"i": i, "p": str(p), "q": str(q)}).
    rows = enumerate(zip(table.p, table.q))
    _write_lines(f'{{"i": {i}, "p": "{p}", "q": "{q}"}}\n' if args.json else f"{i}: {p}/{q}\n" for i, (p, q) in rows)
    return 0


# kind -> (function in `sequences`, the extra parameter it takes first or None).
# seq reads its values from sequences.walk(), which looks the function up by
# name, so a wrapper put on the module attribute (as perfbench/launch.py does)
# sees the seed calls; the stepped values do not pass through it.
_SEQ_KINDS = {
    "fib": ("fib", None),
    "fibc": ("fib_comb", None),
    "lucas": ("lucas", None),
    "lucas-swapped": ("lucas_swapped", None),
    "gib": ("gibonacci", "k"),
    "scaled": ("scaled_fib", "t"),
}


def _cmd_seq(args) -> int:
    from . import sequences

    name, needs = _SEQ_KINDS[args.kind]
    extras = {"k": args.k, "t": args.t}
    if needs is not None and extras[needs] is None:
        raise MissingParam(f"seq {args.kind} needs --{needs}")
    for option, value in extras.items():
        if option != needs and value is not None:
            raise ExtraParam(f"seq {args.kind} takes no --{option}")
    if args.start > args.stop:
        raise EmptyRange(f"empty index range {args.start}..{args.stop}")
    leading = () if needs is None else (extras[needs],)
    values = zip(range(args.start, args.stop + 1), sequences.walk(name, leading, args.start, 1))
    # Each --json line is the bytes of json.dumps({"kind", "n"[, needs], "value"}),
    # with the value a decimal string; kind names need no escaping.
    param = "" if needs is None else f', "{needs}": {extras[needs]}'
    _write_lines(
        f'{{"kind": "{args.kind}", "n": {n}{param}, "value": "{value}"}}\n' if args.json else f"{n}\t{value}\n"
        for n, value in values
    )
    return 0


def _cmd_oracle(args) -> int:
    from . import tiling

    if args.kind in ("board", "bracelet"):
        try:
            n = int(args.arg)
        except ValueError:
            raise MissingParam(f"oracle {args.kind} needs an integer length") from None
        count = tiling.count_board(n) if args.kind == "board" else tiling.count_bracelet(n)
        field = f'"n": {n}'
    else:
        try:
            heights = [int(part) for part in args.arg.split(",")]
        except ValueError:
            raise MissingParam("oracle stacked needs a,b,c,... integer heights") from None
        count = tiling.count_stacked(heights)
        field = f'"heights": [{", ".join(map(str, heights))}]'
    print(f'{{"kind": "{args.kind}", {field}, "count": "{count}"}}' if args.json else count)
    return 0


def _cmd_check(args) -> int:
    from . import identities

    ident = _identity(args.identity)
    if args.m is None:
        raise MissingParam(f"check {ident.name} needs --m")
    params = identities.CaseParams(args.m, args.k)
    outcome = identities.run_case(ident, params)
    print(_case_json(ident.name, params, outcome) if args.json else _case_text(params, outcome))
    return 1 if outcome.status is identities.Status.FAIL else 0


def _cmd_sweep(args) -> int:
    from . import identities

    ident = _identity(args.identity)
    name, batches = ident.name, identities._sweep_rows(ident, args.m, args.k)
    passing, failing, record = identities.Status.PASS, identities.Status.FAIL, identities._record
    as_json, takes_k = args.json, ident.takes_k
    failed = 0

    def line_batches():
        # Nearly every batch passes whole: text writes nothing for it, and
        # --json writes its lines with one comprehension from the ints.
        nonlocal failed
        passed = skipped = 0
        for m, kb, statuses, ps, qs, nums, dens in batches:
            n_pass = statuses.count(passing)
            passed += n_pass
            if n_pass == len(kb):
                if not as_json:
                    continue
                try:
                    lines = _pass_lines(_json_head(name, m, takes_k), kb if takes_k else ("",), ps, qs)
                except ValueError:
                    pass  # a side past the integer-string digit limit: case by case below, so the lines before it go out
                else:
                    yield lines
                    continue
            else:
                n_fail = statuses.count(failing)
                failed += n_fail
                skipped += len(kb) - n_pass - n_fail
            # Case by case, in k order, each from its record: the cases that
            # do not pass, or with --json every case.
            for k, status, p, q, num, den in zip(kb, statuses, ps, qs, nums, dens):
                if as_json or status is not passing:
                    outcome = record(status, p, q, num, den)
                    yield [(_case_json(name, (m, k), outcome) if as_json else _case_text((m, k), outcome)) + "\n"]
        summary = f'{{"identity": "{name}", "pass": {passed}, "fail": {failed}, "skip": {skipped}}}'
        yield [(summary if as_json else f"pass={passed} fail={failed} skip={skipped}") + "\n"]

    _write_lines(chain.from_iterable(line_batches()))
    return 1 if failed else 0


def _cmd_fit(args) -> int:
    from . import identities

    t = identities.fit_uniform(args.c, args.n_max)
    if args.json:
        print(f'{{"c": "{args.c}", "t": {"null" if t is None else t}}}')
    else:
        print("NONE" if t is None else t)
    return 0


def _cmd_surd(args) -> int:
    from . import contfrac

    expansion = contfrac.surd_cf(args.d, args.max_terms)
    if args.json:
        print(f'{{"d": "{args.d}", "a0": "{expansion.a0}", "period": {_strings_json(expansion.period)}}}')
    else:
        period = ",".join(str(a) for a in expansion.period)
        print(f"a0={expansion.a0} period=[{period}]")
    return 0


# name -> (handler, help, arguments as (flags, options) pairs). Every
# subcommand also takes --json.
_SUBCOMMANDS = {
    "eval": (
        _cmd_eval,
        "exact value of a continued fraction",
        [
            (("cf",), {"help": 'continued fraction text, e.g. "[2,3,7]" or "[4x10,3]"'}),
            (("--digits",), {"type": _nonneg_int, "help": "also render D decimal digits (text mode only)"}),
        ],
    ),
    "expand": (
        _cmd_expand,
        "canonical expansion of NUM/DEN",
        [(("rational",), {"help": "exact rational, e.g. 51/22"})],
    ),
    "convergents": (_cmd_convergents, "full convergent table", [(("cf",), {})]),
    "seq": (
        _cmd_seq,
        "sequence values over an index range",
        [
            (("kind",), {"choices": tuple(_SEQ_KINDS)}),
            (("--from",), {"dest": "start", "type": int, "required": True}),
            (("--to",), {"dest": "stop", "type": int, "required": True}),
            (("--k",), {"type": int, "help": "family parameter (gib)"}),
            (("--t",), {"type": int, "help": "odd order (scaled)"}),
        ],
    ),
    "oracle": (
        _cmd_oracle,
        "brute-force tiling counts",
        [
            (("kind",), {"choices": ("board", "bracelet", "stacked")}),
            (("arg",), {"help": "length, or a,b,c,... heights for stacked"}),
        ],
    ),
    "check": (
        _cmd_check,
        "check a single identity case",
        [(("identity",), {}), (("--m",), {"type": int}), (("--k",), {"type": int})],
    ),
    "sweep": (
        _cmd_sweep,
        "check an identity over ranges",
        [
            (("identity",), {}),
            (("--m",), {"type": _range_pair, "required": True, "metavar": "LO..HI"}),
            (("--k",), {"type": _range_pair, "metavar": "LO..HI"}),
            (("--jobs",), {"type": int, "help": "accepted for compatibility; has no effect (cases run serially)"}),
        ],
    ),
    "fit": (
        _cmd_fit,
        "fit [c,c,...,c] to a scaled-Fibonacci family",
        [(("c",), {"type": int}), (("--n-max",), {"dest": "n_max", "type": int, "default": 10})],
    ),
    "surd": (
        _cmd_surd,
        "periodic expansion of sqrt(d)",
        [
            (("d",), {"type": int}),
            (("--max-terms",), {"dest": "max_terms", "type": _nonneg_int, "default": 10_000}),
        ],
    ),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with '-' and a digit as a value.

    argparse reads only plain negative numbers (-5, -1.5, -.5) as values; any
    other token that starts with '-' is an option name to it. Its test is the
    private `_negative_number_matcher`, which this widens to take -3..3 and
    -13/3 too. `add_subparsers` builds each subparser from type(self), so
    every subcommand gets the same rule.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for `command` alone, or for every subcommand when it is None.

    argparse runs only the subparser that argv names, so the others are left
    out; the metavar keeps every name in the usage line that a top-level
    error prints. `cfkit --help` and an unknown name take the None path, in
    which each subcommand is listed with its help.
    """
    parser = _Parser(
        prog="cfkit",
        description="Exact continued-fraction arithmetic and identity verification.",
    )
    # Unset on the full parser, so that argv without a subcommand still gets
    # "the following arguments are required: command".
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else (command,):
        handler, help_text, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def _command(argv: list[str]) -> str | None:
    """The subcommand argv names, if it begins with one; None sends parsing to the full parser."""
    return argv[0] if argv and argv[0] in _SUBCOMMANDS else None


def run(argv: list[str]) -> int:
    """Parse argv, execute, and map errors onto the documented exit codes."""
    parser = _build_parser(_command(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except CFKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        raise  # main() exits 141
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4  # a bug, not a verdict


_BROKEN_PIPE = 141  # 128 + SIGPIPE


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull, so that the
        # flush at interpreter shutdown cannot raise a second time (the
        # recipe in the documentation of Python's signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = _BROKEN_PIPE
    sys.exit(code)
