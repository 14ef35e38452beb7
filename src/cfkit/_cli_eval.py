"""The eval subcommand (see `cli`); cli.run() imports this module for it alone.

eval reads the text format with `_parse` and evaluates with `_products`,
so it compiles neither `contfrac` nor the other handlers.
"""

from . import _parse, _products
from .rational import Rational


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


def cmd_eval(args) -> int:
    value = _products.evaluate_runs(_parse.parse_runs(args.cf))
    if args.json:
        print(f'{{"num": "{value.num}", "den": "{value.den}"}}')
    elif args.digits is not None:
        print(_decimal(value, args.digits))
    else:
        print(value)
    return 0
