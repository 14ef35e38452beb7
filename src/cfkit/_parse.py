"""The continued-fraction text format (see `contfrac`, which imports parse_runs back).

Text format (a stable interface, used by the CLI):

    cf    := '[' item (sep item)* ']'
    item  := INT | INT 'x' COUNT
    sep   := ','   (the first separator may be ';' instead)

Whitespace between tokens is ignored. INT is a signed decimal integer;
COUNT is a nonnegative decimal repetition count, so "[4x3, 9]" means
"[4,4,4,9]" and a zero count contributes nothing. The item rule, with the
whitespace around it, is what _ITEM matches. parse_runs() returns the
items as runs without expanding them; contfrac.parse_cf() returns the
expansion. `eval` imports this module alone, so it compiles none of
`contfrac`.
"""

import re

from .errors import EmptyCF, ParseError

# An item, the whitespace around it and the character after it, which is
# empty at the end of the text. \s and \d match exactly what str.isspace()
# and str.isdecimal() accept. _SPACE is used only to locate an error. Both
# are compiled on the first parse (re keeps them), not on import.
_ITEM = r"\s*([+-]?\d+)\s*(?:x\s*(\d+)\s*)?(\S?)"
_SPACE = r"\s*"


def parse_runs(text: str) -> list[tuple[int, int]]:
    """Parse the bracketed text format into (value, count) runs, one per item.

    Raises EmptyCF when every count is zero.
    """
    item_at, space_at = re.compile(_ITEM).match, re.compile(_SPACE).match
    pos = space_at(text).end()
    if not text.startswith("[", pos):
        raise ParseError("expected '['", pos)
    pos += 1
    runs = []
    seps = (",", ";")
    while True:
        item = item_at(text, pos)
        if item is None:
            raise ParseError("expected an integer", space_at(text, pos).end())
        digits, count, sep = item.groups()
        value = int(digits)
        pos = item.end()
        if count is None and sep == "x":
            raise ParseError("expected an integer", space_at(text, pos).end())
        runs.append((value, 1 if count is None else int(count)))
        if sep == "]":
            break
        if sep not in seps:
            raise ParseError("expected ',' or ']'", item.start(3))
        seps = (",",)
    end = space_at(text, pos).end()
    if end != len(text):
        raise ParseError("trailing input after ']'", end)
    if not any(count for _, count in runs):
        raise EmptyCF("expansion produced no terms")
    return runs
