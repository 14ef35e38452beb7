"""The expand, convergents and surd subcommands (see `cli`); cli.run() imports this module for them alone."""

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


def _strings_json(values) -> str:
    """A JSON array of the values as strings; each is digits and a sign, so none needs escaping."""
    return "[" + ", ".join(f'"{v}"' for v in values) + "]"


def cmd_expand(args) -> int:
    terms = contfrac.expand_rational(_parse_rational(args.rational))
    if args.json:
        print(f'{{"terms": {_strings_json(terms)}}}')
    else:
        print("[" + ",".join(str(t) for t in terms) + "]")
    return 0


def _row_digits(rows):
    """Each row's (i, p, q) with p and q as decimal strings; a q equal to the previous row's p reuses its string.

    In a run of equal terms that is every row after the first. The values
    are compared, so a string is reused only for the value it was made from.
    """
    from ._decimals import int_str

    last_p, last_str = None, ""
    for i, (p, q) in enumerate(rows):
        q_str = last_str if q == last_p else int_str(q)
        last_p, last_str = p, int_str(p)
        yield i, last_str, q_str


def cmd_convergents(args) -> int:
    """The rows of the forward recurrence, stepped in Decimal (see _decimals) and written as they come; no table is kept."""
    # Of this module's commands, only convergents loads decimal.
    from decimal import Decimal

    from ._decimals import exact_context

    terms = contfrac.parse_cf(args.cf)
    with exact_context():
        rows = _row_digits(contfrac._rows(map(Decimal, terms)))
        # Each --json line is the bytes of json.dumps({"i": i, "p": str(p), "q": str(q)}).
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
