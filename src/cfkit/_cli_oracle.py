"""The oracle subcommand (see `cli`); cli.run() imports this module for it alone."""

from . import tiling
from .errors import UsageError


def cmd_oracle(args) -> int:
    if args.kind in ("board", "bracelet"):
        try:
            n = int(args.arg)
        except ValueError:
            raise UsageError(f"oracle {args.kind} needs an integer length") from None
        count = tiling.count_board(n) if args.kind == "board" else tiling.count_bracelet(n)
        field = f'"n": {n}'
    else:
        try:
            heights = [int(part) for part in args.arg.split(",")]
        except ValueError:
            raise UsageError("oracle stacked needs a,b,c,... integer heights") from None
        count = tiling.count_stacked(heights)
        field = f'"heights": [{", ".join(map(str, heights))}]'
    print(f'{{"kind": "{args.kind}", {field}, "count": "{count}"}}' if args.json else count)
    return 0
