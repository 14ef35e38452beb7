"""The documentation agrees with the code: catalog tables and the README's CLI tour."""

import re
import shlex
from pathlib import Path

import pytest

from cfkit import identities, sequences
from cfkit.cli import run
from cfkit.identities import IdentityId

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

CF_ENTRIES = {i.name for i in IdentityId if not i.is_lemma}
LEMMAS = {i.name for i in IdentityId if i.is_lemma}
TAKES_K = {i.name for i in IdentityId if i.takes_k}

# A k written as a variable: not part of a longer lowercase word.
_MENTIONS_K = re.compile(r"(?<![a-z])k(?![a-z])")


def _section(text, start, end):
    return text[text.index(start) : text.index(end)]


def _rows(block, pattern):
    """{name: rest of the row} for every row of a table block."""
    rows = dict(re.findall(pattern, block, re.MULTILINE))
    assert rows, "table not found"
    return rows


def _docstring_tables():
    doc = identities.__doc__
    row = r"^    ([A-Z][A-Z0-9_]+) +(.*)$"
    cf = _rows(_section(doc, "Catalog, with", "Lemmas ("), row)
    lemmas = _rows(_section(doc, "Lemmas (", "Two caveats"), row)
    return cf, lemmas


def _readme_tables():
    catalog = _section(README, "## The identity catalog", "## Known catalog divergences")
    cf = _rows(catalog, r"^\| `([A-Z][A-Z0-9_]+)` \|(.*)$")
    lemma_text = _section(catalog, "Lemma entries", "The tiling counters")
    return cf, set(re.findall(r"`(LEM_\w+)`", lemma_text))


def test_docstring_catalog_matches_the_code():
    cf, lemmas = _docstring_tables()
    assert set(cf) == CF_ENTRIES
    assert set(lemmas) == LEMMAS
    assert {name for name, rest in cf.items() if _MENTIONS_K.search(rest)} == TAKES_K


# The docstring catalog's names, as Python: G_k(n) is G(k)(n), S_t(n) is S(t)(n).
_NAMES = {
    "F": sequences.fib,
    "f": sequences.fib_comb,
    "L": sequences.lucas,
    "l": sequences.lucas_swapped,
    "G": lambda k: lambda n: sequences.gibonacci(k, n),
    "S": lambda t: lambda n: sequences.scaled_fib(t, n),
}


def _as_python(form):
    """A catalog form, such as F(3m+4) + k*F(3m+3), G_k(3m+1) or S_{2k+1}(m+2), as a Python expression."""
    form = re.sub(r"([GS])_\{?([\w+]+)\}?", r"\1(\2)", form)
    return re.sub(r"(\d)([mk])", r"\1*\2", form)


@pytest.mark.parametrize("name", sorted(CF_ENTRIES))
def test_each_stated_ratio_is_the_record(name):
    # The row's numerator and denominator, read as Python, are the entry's
    # two forms: its one form N, and N one m back.
    ident = IdentityId[name]
    stated = re.split(r"\s{2,}", _docstring_tables()[0][name])[1]
    sides = [_as_python(side) for side in stated.split(" / ")]
    ks = [k for k in (-3, 0, 2) if ident.k_min is None or k >= ident.k_min] if ident.takes_k else [None]
    for m in range(12):
        for k in ks:
            values = [eval(side, {**_NAMES, "m": m, "k": k}) for side in sides]
            assert values == [identities._form_value(form, m, k) for form in ident.forms], (m, k)


def test_docstring_states_each_domain():
    cf, lemmas = _docstring_tables()
    for name in TAKES_K:
        k_min = IdentityId[name].k_min
        domain = "(k in Z)" if k_min is None else f"(k >= {k_min})"
        assert cf[name].endswith(domain), name
    for ident in IdentityId:
        if ident.m_step != 1:
            assert f"multiple of {ident.m_step}" in lemmas[ident.name]


def test_readme_catalog_matches_the_code():
    cf, lemmas = _readme_tables()
    assert set(cf) == CF_ENTRIES
    assert lemmas == LEMMAS
    assert {name for name, rest in cf.items() if _MENTIONS_K.search(rest)} == TAKES_K


# Each README tour command whose comment gives its output, with the first
# line of that output.
TOUR = {
    'eval "[2,3,7]"': "51/22",
    'eval "[2,3,7]" --digits 6': "2.318181…",
    "expand 302/253": "[1,5,6,8]",
    "expand -13/3 --json": '{"terms": ["-5", "1", "2"]}',
    'convergents "[2,3,7]"': "0: 2/1",
    "oracle board 10": "89",
    "oracle stacked 2,3,7": "51",
    "check ID117 --m 2": "PASS m=2 lhs=55/13 rhs=55/13",
    "sweep THM2_FIB_FORM --m 0..100 --k -50..50": "pass=10201 fail=0 skip=0",
    "fit 29 --n-max 10": "7",
    "fit 18 --n-max 10": "NONE",
    "surd 19": "a0=4 period=[2,1,3,1,2,8]",
}


@pytest.mark.parametrize("command, value", TOUR.items(), ids=list(TOUR))
def test_readme_tour_output(capsys, command, value):
    line = re.compile(rf"^cfkit {re.escape(command)} +# {re.escape(value)}(?:\s|$)", re.MULTILINE)
    assert line.search(_section(README, "## CLI tour", "### Continued-fraction")), command
    code = run(shlex.split(command))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == value
