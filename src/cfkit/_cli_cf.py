"""The eval, expand, convergents and surd subcommands (see `cli`); cli.run() imports this module for them alone."""

import re

from . import contfrac
from .cli import _write_lines
from .errors import ParseError
from .rational import Rational


def _parse_rational(text: str) -> Rational:
    """NUM or NUM/DEN: signed decimal integers, with whitespace around each token.

    int() runs only on digits the pattern has accepted, so a numeral over the
    interpreter's integer-string digit limit fails there, as it does in eval.
    """
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


def cmd_eval(args) -> int:
    value = contfrac.evaluate_runs(contfrac.parse_runs(args.cf))
    if args.json:
        print(_rat_json(value))
    elif args.digits is not None:
        print(_decimal(value, args.digits))
    else:
        print(value)
    return 0


def cmd_expand(args) -> int:
    terms = contfrac.expand_rational(_parse_rational(args.rational))
    if args.json:
        print(f'{{"terms": {_strings_json(terms)}}}')
    else:
        print("[" + ",".join(str(t) for t in terms) + "]")
    return 0


def _row_digits(table: contfrac.ConvergentTable):
    """Each row's (i, p, q) with p and q as decimal strings; a q equal to the previous row's p reuses its string.

    In a run of equal terms that is every row after the first. The ints
    are compared, so a string is reused only for the value it was made from.
    """
    last_p, last_str = None, ""
    for i, (p, q) in enumerate(zip(table.p, table.q)):
        q_str = last_str if q == last_p else str(q)
        last_p, last_str = p, str(p)
        yield i, last_str, q_str


def cmd_convergents(args) -> int:
    table = contfrac.convergents(contfrac.parse_cf(args.cf))
    # Each --json line is the bytes of json.dumps({"i": i, "p": str(p), "q": str(q)}).
    rows = _row_digits(table)
    _write_lines(f'{{"i": {i}, "p": "{p}", "q": "{q}"}}\n' if args.json else f"{i}: {p}/{q}\n" for i, p, q in rows)
    return 0


def cmd_surd(args) -> int:
    expansion = contfrac.surd_cf(args.d, args.max_terms)
    if args.json:
        print(f'{{"d": "{args.d}", "a0": "{expansion.a0}", "period": {_strings_json(expansion.period)}}}')
    else:
        period = ",".join(str(a) for a in expansion.period)
        print(f"a0={expansion.a0} period=[{period}]")
    return 0
