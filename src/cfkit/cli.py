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
one JSON object per case followed by a summary object. A sweep prints each
case as soon as it is checked and counts the tallies as it goes, so its
memory does not grow with the grid. Big integers are serialized as decimal
strings, never as JSON numbers.

Exit codes: 0 success (all PASS), 1 at least one FAIL, 2 usage error,
3 evaluation or domain error, 141 standard output closed before the
command finished writing (a broken pipe, as in `cfkit sweep ... | head`;
128 + SIGPIPE, the code a shell reports for a process that signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import contfrac, identities, sequences, tiling
from .errors import CFKitError, EmptyCF, ExtraParam, MissingParam, ParseError
from .identities import CaseParams, CheckOutcome, IdentityId, Status
from .rational import Rational

_USAGE_ERRORS = (ParseError, EmptyCF, MissingParam, ExtraParam)
# Read on every case of a sweep; a module global is cheaper to load than an Enum attribute.
_PASS, _FAIL = Status.PASS, Status.FAIL


def _range_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got '{text}'")
    try:
        pair = (int(lo), int(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got '{text}'") from exc
    if pair[0] > pair[1]:
        raise argparse.ArgumentTypeError(f"empty range '{text}'")
    return pair


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got '{text}'")
    return value


def _identity(name: str) -> IdentityId:
    try:
        return IdentityId[name]
    except KeyError:
        known = ", ".join(i.name for i in IdentityId)
        raise ValueError(f"unknown identity '{name}'; choose one of: {known}") from None


def _parse_rational(text: str) -> Rational:
    num, sep, den = text.partition("/")
    try:
        if sep:
            return Rational(int(num), int(den))
        return Rational(int(num))
    except ValueError as exc:
        raise ParseError(f"expected NUM/DEN, got '{text}'", 0) from exc


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


def _rat_json(r: Rational) -> dict:
    return {"num": str(r.num), "den": str(r.den)}


def _case_json(name: str, params: CaseParams, outcome: CheckOutcome) -> str:
    """One case as a JSON object, written from one template.

    The bytes are those of json.dumps() on the object {"identity", "params",
    "lhs", "rhs", "status", "note"}: an undefined side's key is left out,
    big integers are decimal strings, and m and k are JSON numbers. Names,
    statuses and notes are plain ASCII without quotes or backslashes, so they
    need no escaping. A passing case's two sides are equal, so its digits
    are converted once.
    """
    m, k = params
    status, lhs, rhs, note = outcome
    sides = ""
    if lhs is not None:
        left = f'{{"num": "{lhs.num}", "den": "{lhs.den}"}}'
        sides = f', "lhs": {left}'
    if rhs is not None:
        right = left if status is _PASS else f'{{"num": "{rhs.num}", "den": "{rhs.den}"}}'
        sides += f', "rhs": {right}'
    k_field = "" if k is None else f', "k": {k}'
    return (
        f'{{"identity": "{name}", "params": {{"m": {m}{k_field}}}{sides}, '
        f'"status": "{status.name}", "note": "{note}"}}'
    )


def _case_text(params: CaseParams, outcome: CheckOutcome) -> str:
    """One case as a text line: STATUS m=M [k=K] [lhs=P/Q] [rhs=P/Q] [(note)]."""
    m, k = params
    status, lhs, rhs, note = outcome
    return (
        f"{status.name} m={m}"
        f"{'' if k is None else f' k={k}'}"
        f"{'' if lhs is None else f' lhs={lhs}'}"
        f"{'' if rhs is None else f' rhs={rhs}'}"
        f"{f' ({note})' if note else ''}"
    )


def _cmd_eval(args) -> int:
    value = contfrac.evaluate_runs(contfrac.parse_runs(args.cf))
    if args.json:
        print(json.dumps(_rat_json(value)))
    elif args.digits is not None:
        print(_decimal(value, args.digits))
    else:
        print(value)
    return 0


def _cmd_expand(args) -> int:
    terms = contfrac.expand_rational(_parse_rational(args.rational))
    if args.json:
        print(json.dumps({"terms": [str(t) for t in terms]}))
    else:
        print("[" + ",".join(str(t) for t in terms) + "]")
    return 0


def _cmd_convergents(args) -> int:
    table = contfrac.convergents(contfrac.parse_cf(args.cf))
    for i, (p, q) in enumerate(zip(table.p, table.q)):
        if args.json:
            print(json.dumps({"i": i, "p": str(p), "q": str(q)}))
        else:
            print(f"{i}: {p}/{q}")
    return 0


# kind -> (function in `sequences`, the extra parameter it takes first or None).
# The function is looked up by name on each command, so a wrapper put on the
# module attribute (as perfbench/launch.py does) sees every call.
_SEQ_KINDS = {
    "fib": ("fib", None),
    "fibc": ("fib_comb", None),
    "lucas": ("lucas", None),
    "lucas-swapped": ("lucas_swapped", None),
    "gib": ("gibonacci", "k"),
    "scaled": ("scaled_fib", "t"),
}


def _cmd_seq(args) -> int:
    name, needs = _SEQ_KINDS[args.kind]
    extras = {"k": args.k, "t": args.t}
    if needs is not None and extras[needs] is None:
        raise MissingParam(f"seq {args.kind} needs --{needs}")
    for option, value in extras.items():
        if option != needs and value is not None:
            raise ExtraParam(f"seq {args.kind} takes no --{option}")
    if args.start > args.stop:
        raise MissingParam(f"empty index range {args.start}..{args.stop}")
    fn = getattr(sequences, name)
    leading = () if needs is None else (extras[needs],)
    for n in range(args.start, args.stop + 1):
        value = fn(*leading, n)
        if args.json:
            obj = {"kind": args.kind, "n": n}
            if needs is not None:
                obj[needs] = extras[needs]
            obj["value"] = str(value)
            print(json.dumps(obj))
        else:
            print(f"{n}\t{value}")
    return 0


def _cmd_oracle(args) -> int:
    if args.kind in ("board", "bracelet"):
        try:
            n = int(args.arg)
        except ValueError:
            raise MissingParam(f"oracle {args.kind} needs an integer length") from None
        count = tiling.count_board(n) if args.kind == "board" else tiling.count_bracelet(n)
        payload = {"kind": args.kind, "n": n, "count": str(count)}
    else:
        try:
            heights = [int(part) for part in args.arg.split(",")]
        except ValueError:
            raise MissingParam("oracle stacked needs a,b,c,... integer heights") from None
        count = tiling.count_stacked(heights)
        payload = {"kind": "stacked", "heights": heights, "count": str(count)}
    print(json.dumps(payload) if args.json else count)
    return 0


def _cmd_check(args) -> int:
    ident = _identity(args.identity)
    if args.m is None:
        raise MissingParam(f"check {ident.name} needs --m")
    params = CaseParams(args.m, args.k)
    outcome = identities.run_case(ident, params)
    print(_case_json(ident.name, params, outcome) if args.json else _case_text(params, outcome))
    return 1 if outcome.status is Status.FAIL else 0


def _cmd_sweep(args) -> int:
    ident = _identity(args.identity)
    name, write = ident.name, sys.stdout.write
    passed = failed = skipped = 0
    for params, outcome in identities.iter_sweep(ident, args.m, args.k):
        status = outcome.status
        if status is _PASS:
            passed += 1
        elif status is _FAIL:
            failed += 1
        else:
            skipped += 1
        if args.json:
            write(_case_json(name, params, outcome) + "\n")
        elif status is not _PASS:
            write(_case_text(params, outcome) + "\n")
    if args.json:
        print(json.dumps({"identity": ident.name, "pass": passed, "fail": failed, "skip": skipped}))
    else:
        print(f"pass={passed} fail={failed} skip={skipped}")
    return 1 if failed else 0


def _cmd_fit(args) -> int:
    t = identities.fit_uniform(args.c, args.n_max)
    if args.json:
        print(json.dumps({"c": str(args.c), "t": t}))
    else:
        print("NONE" if t is None else t)
    return 0


def _cmd_surd(args) -> int:
    expansion = contfrac.surd_cf(args.d, args.max_terms)
    if args.json:
        print(
            json.dumps(
                {
                    "d": str(args.d),
                    "a0": str(expansion.a0),
                    "period": [str(a) for a in expansion.period],
                }
            )
        )
    else:
        period = ",".join(str(a) for a in expansion.period)
        print(f"a0={expansion.a0} period=[{period}]")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact continued-fraction arithmetic and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="exact value of a continued fraction")
    p.add_argument("cf", help='continued fraction text, e.g. "[2,3,7]" or "[4x10,3]"')
    p.add_argument("--digits", type=_nonneg_int, help="also render D decimal digits (text mode only)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("expand", parents=[common], help="canonical expansion of NUM/DEN")
    p.add_argument("rational", help="exact rational, e.g. 51/22")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("convergents", parents=[common], help="full convergent table")
    p.add_argument("cf")
    p.set_defaults(handler=_cmd_convergents)

    p = sub.add_parser("seq", parents=[common], help="sequence values over an index range")
    p.add_argument("kind", choices=tuple(_SEQ_KINDS))
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--k", type=int, help="family parameter (gib)")
    p.add_argument("--t", type=int, help="odd order (scaled)")
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("oracle", parents=[common], help="brute-force tiling counts")
    p.add_argument("kind", choices=("board", "bracelet", "stacked"))
    p.add_argument("arg", help="length, or a,b,c,... heights for stacked")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("check", parents=[common], help="check a single identity case")
    p.add_argument("identity")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("sweep", parents=[common], help="check an identity over ranges")
    p.add_argument("identity")
    p.add_argument("--m", type=_range_pair, required=True, metavar="LO..HI")
    p.add_argument("--k", type=_range_pair, metavar="LO..HI")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect (cases run serially)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fit", parents=[common], help="fit [c,c,...,c] to a scaled-Fibonacci family")
    p.add_argument("c", type=int)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("surd", parents=[common], help="periodic expansion of sqrt(d)")
    p.add_argument("d", type=int)
    p.add_argument("--max-terms", dest="max_terms", type=_nonneg_int, default=10_000)
    p.set_defaults(handler=_cmd_surd)

    return parser


_VALUE_OPTIONS = {"--m", "--k", "--from", "--to"}


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Keep values that start with '-' and a digit from being read as option names.

    argparse takes a plain negative integer as a value already. Any other
    such token is joined to a preceding --m/--k/--from/--to (--k=-50..50);
    otherwise it is a positional (expand -13/3) and moves behind one closing
    '--', as do the tokens after a '--' of the caller's own.
    """
    out: list[str] = []
    tail: list[str] = []
    for i, tok in enumerate(argv):
        if tok == "--":
            tail += argv[i + 1 :]
            break
        if tok[:1] == "-" and tok[1:2].isdigit() and not tok[1:].isdigit():
            if out and out[-1] in _VALUE_OPTIONS:
                out[-1] += "=" + tok
            else:
                tail.append(tok)
        else:
            out.append(tok)
    return [*out, "--", *tail] if tail else out


def run(argv: list[str]) -> int:
    """Parse argv, execute, and map errors onto the documented exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CFKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
