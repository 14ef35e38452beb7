"""Which error each identity entry point raises first, and when a case is validated.

The table pins the behaviour of both public entry points, run_case() and a
sweep, on every catalog entry: a bad case must raise the same exception
class, in the same order of checks, whichever path reaches it.
"""

import pytest

from cfkit import identities
from cfkit.identities import CaseParams, IdentityId

I = IdentityId

# Catalog entries that behave alike on every row of the table below.
KIND = {
    **dict.fromkeys(
        (
            I.ID117,
            I.ID118,
            I.ID_LUCAS7,
            I.THM4_ELEVEN3,
            I.THM5_SWAPPED_LUCAS,
            I.THM6_ELEVEN_FIB,
            I.THM7_FOURS,
            I.THM8_TWENTYNINES,
            I.EXT_ELEVEN8,
            I.EXT_ELEVEN13,
        ),
        "cf",
    ),
    **dict.fromkeys((I.THM1_GIBONACCI, I.THM2_FIB_FORM, I.THM3_ONES), "cf_k"),
    I.COR_GENERAL_LUCAS: "cor",
    **dict.fromkeys(
        (I.LEM_3F, I.LEM_4F, I.LEM_L32, I.LEM_F9, I.LEM_11F, I.LEM_29F), "lemma"
    ),
    I.LEM_BRIDGE: "bridge",
}

# The case each row builds for an entry; `k` is given only where a valid
# case of that entry has one, unless the row is about k.
CASES = {
    "negative_m": lambda ident: CaseParams(-1, 0 if ident.takes_k else None),
    "missing_k": lambda ident: CaseParams(5),
    "extra_k": lambda ident: CaseParams(5, 1),
    "negative_k": lambda ident: CaseParams(0, -1),
    "m_7": lambda ident: CaseParams(7, 0 if ident.takes_k else None),
    "valid": lambda ident: CaseParams(5, 0 if ident.takes_k else None),
    "negative_m_bad_k": lambda ident: CaseParams(-1, None if ident.takes_k else 1),
}


def _sweep_one(ident, params):
    k_range = None if params.k is None else (params.k, params.k)
    return list(identities.sweep(ident, (params.m, params.m), k_range))


ENTRY_POINTS = {
    "run_case": identities.run_case,
    "sweep": _sweep_one,  # an m range and k range of one value each
}

# Every entry point checks a case's shape (k given or not) before its
# domain, because a case is checked as the one-case grid a sweep checks;
# a LEM_BRIDGE case at m = -1 or m = 7 holds no multiple of 5 in the
# domain, so it raises BadDomain.
TABLE = """
case              kind    run_case        sweep
negative_m        cf      BadDomain       BadDomain
negative_m        cf_k    BadDomain       BadDomain
negative_m        cor     BadDomain       BadDomain
negative_m        lemma   BadDomain       BadDomain
negative_m        bridge  BadDomain       BadDomain
missing_k         cf      ok              ok
missing_k         cf_k    MissingParam    MissingParam
missing_k         cor     MissingParam    MissingParam
missing_k         lemma   ok              ok
missing_k         bridge  ok              ok
extra_k           cf      ExtraParam      ExtraParam
extra_k           cf_k    ok              ok
extra_k           cor     ok              ok
extra_k           lemma   ExtraParam      ExtraParam
extra_k           bridge  ExtraParam      ExtraParam
negative_k        cf      ExtraParam      ExtraParam
negative_k        cf_k    ok              ok
negative_k        cor     BadDomain       BadDomain
negative_k        lemma   ExtraParam      ExtraParam
negative_k        bridge  ExtraParam      ExtraParam
m_7               cf      ok              ok
m_7               cf_k    ok              ok
m_7               cor     ok              ok
m_7               lemma   ok              ok
m_7               bridge  BadDomain       BadDomain
valid             cf      ok              ok
valid             cf_k    ok              ok
valid             cor     ok              ok
valid             lemma   ok              ok
valid             bridge  ok              ok
negative_m_bad_k  cf      ExtraParam      ExtraParam
negative_m_bad_k  cf_k    MissingParam    MissingParam
negative_m_bad_k  cor     MissingParam    MissingParam
negative_m_bad_k  lemma   ExtraParam      ExtraParam
negative_m_bad_k  bridge  ExtraParam      ExtraParam
"""


def _expected() -> dict[tuple[str, str, str], str]:
    header, *rows = TABLE.strip().splitlines()
    functions = header.split()[2:]
    out = {}
    for row in rows:
        case, kind, *cells = row.split()
        out.update({(case, kind, fn): cell for fn, cell in zip(functions, cells)})
    return out


EXPECTED = _expected()


def test_table_covers_every_entry_and_case():
    assert set(KIND) == set(IdentityId) and len(KIND) == 21
    assert set(EXPECTED) == {
        (case, kind, fn) for case in CASES for kind in set(KIND.values()) for fn in ENTRY_POINTS
    }


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("function", ENTRY_POINTS)
def test_first_error_raised(case, function):
    got = {}
    for ident in IdentityId:
        try:
            ENTRY_POINTS[function](ident, CASES[case](ident))
            got[ident.name] = "ok"
        except Exception as exc:  # the class is what the table pins
            got[ident.name] = type(exc).__name__
    want = {ident.name: EXPECTED[case, KIND[ident], function] for ident in IdentityId}
    assert got == want


def _first_error(function, ident, params):
    """The class and message of the error `function` raises on the case, or None."""
    try:
        ENTRY_POINTS[function](ident, params)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("case", CASES)
def test_entry_points_agree_on_each_case(case):
    # Not only the class: the same message too, because each entry point
    # runs the one check of _case_grid. Both take either kind of entry.
    disagreements = {}
    for ident in IdentityId:
        params = CASES[case](ident)
        got = {function: _first_error(function, ident, params) for function in ENTRY_POINTS}
        if len(set(got.values())) != 1:
            disagreements[ident.name] = got
    assert disagreements == {}


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    real = identities._case

    def counted(ident, params):
        calls.append((ident, params))
        return real(ident, params)

    monkeypatch.setattr(identities, "_case", counted)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda: identities.run_case(I.THM2_FIB_FORM, CaseParams(3, 2)),
        lambda: identities.run_case(I.THM3_ONES, CaseParams(1, 0)),  # SKIPPED case
        lambda: identities.run_case(I.LEM_BRIDGE, CaseParams(20)),  # FAIL case
        lambda: identities.run_case(I.ID117, CaseParams(4)),
        lambda: identities.run_case(I.LEM_F9, CaseParams(4)),
    ],
    ids=["run_case_cf_k", "run_case_skipped", "run_case_bridge", "run_case_cf", "run_case_lemma"],
)
def test_one_validation_per_case(validate_calls, call):
    call()
    assert len(validate_calls) == 1


@pytest.mark.parametrize(
    "ident, m_range, k_range, verdicts",
    [
        (I.THM2_FIB_FORM, (0, 4), (-2, 2), 0),  # every batch of k decided by its linear forms
        (I.THM6_ELEVEN_FIB, (0, 9), None, 10),
        (I.LEM_BRIDGE, (0, 30), None, 7),
    ],
)
def test_sweep_checks_the_grid_before_any_case(monkeypatch, ident, m_range, k_range, verdicts):
    # A sweep checks its grid as a whole, once, instead of validating each
    # case: every case decision must come after that check, each case
    # without k is decided once by _verdict(), a batch of k whose ratio is
    # its left side's linear forms needs no _verdict() call, and every case
    # yielded lies in the entry's domain.
    events = []

    def recorded(name, real):
        def wrapper(*args):
            events.append(name)
            return real(*args)

        monkeypatch.setattr(identities, real.__name__, wrapper)

    recorded("grid", identities._case_grid)
    recorded("case", identities._verdict)

    stream = identities.sweep(ident, m_range, k_range)
    assert events == ["grid"]  # checked on the call, before any case exists
    got = list(stream)
    assert events == ["grid"] + ["case"] * verdicts

    for params, _ in got:
        identities._case(ident, params)  # raises for a case outside the domain
    ks = [None] if k_range is None else range(k_range[0], k_range[1] + 1)
    ms = [m for m in range(m_range[0], m_range[1] + 1) if m % ident.m_step == 0]
    assert [params for params, _ in got] == [CaseParams(m, k) for m in ms for k in ks]
