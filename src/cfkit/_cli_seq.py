"""The seq subcommand (see `cli`); cli.run() imports this module for it alone."""

from . import sequences
from .cli import _SEQ_KINDS, _write_lines
from .errors import EmptyRange, ExtraParam, MissingParam


def cmd_seq(args) -> int:
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
