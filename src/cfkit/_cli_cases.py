"""The check, sweep and fit subcommands and their case lines (see `cli`); cli.run() imports this module for them alone."""

from __future__ import annotations

from . import identities
from .cli import _rat_json, _write_lines
from .errors import MissingParam, UnknownIdentity


def _identity(name: str) -> identities.IdentityId:
    try:
        return identities.IdentityId[name]
    except KeyError:
        known = ", ".join(i.name for i in identities.IdentityId)
        raise UnknownIdentity(f"unknown identity '{name}'; choose one of: {known}") from None


def _json_head(name: str, m: int, takes_k: bool) -> str:
    """A case's JSON line up to its k value: {"identity": NAME, "params": {"m": M[, "k": ]."""
    head = f'{{"identity": "{name}", "params": {{"m": {m}'
    return head + ', "k": ' if takes_k else head


def _pass_lines(head: str, ks, ps, qs) -> str:
    """Passing cases of one m as newline-ended JSON lines in one string: head (_json_head()), then k ("" without one).

    The lines are made from plain ints. Both sides are p/q as _rat_json()
    writes it, a string made once per case.
    """
    return "".join(
        [
            f'{head}{k}}}, "lhs": {side}, "rhs": {side}, "status": "PASS", "note": ""}}\n'
            for k, p, q in zip(ks, ps, qs)
            for side in (f'{{"num": "{p}", "den": "{q}"}}',)
        ]
    )


def _case_json(name: str, params: identities.CaseParams, outcome: identities.CheckOutcome) -> str:
    """One case as a JSON object, written from one template (a PASS from _pass_lines()).

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
        return _pass_lines(head, (key,), (lhs.num,), (lhs.den,))[:-1]
    sides = "" if lhs is None else f', "lhs": {_rat_json(lhs)}'
    if rhs is not None:
        sides += f', "rhs": {_rat_json(rhs)}'
    return f'{head}{key}}}{sides}, "status": "{status.name}", "note": "{note}"}}'


def _case_text(params: identities.CaseParams, outcome: identities.CheckOutcome) -> str:
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


def cmd_check(args) -> int:
    ident = _identity(args.identity)
    if args.m is None:
        raise MissingParam(f"check {ident.name} needs --m")
    params = identities.CaseParams(args.m, args.k)
    outcome = identities.run_case(ident, params)
    print(_case_json(ident.name, params, outcome) if args.json else _case_text(params, outcome))
    return 1 if outcome.status is identities.Status.FAIL else 0


def cmd_sweep(args) -> int:
    ident = _identity(args.identity)
    name, batches = ident.name, identities._sweep_rows(ident, args.m, args.k)
    passing, failing, record = identities.Status.PASS, identities.Status.FAIL, identities._record
    as_json, takes_k = args.json, ident.takes_k
    failed = 0

    def pieces():
        # Nearly every batch passes whole: text writes nothing for it, and
        # --json writes its lines as one string made from the ints.
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
                    yield (_case_json(name, (m, k), outcome) if as_json else _case_text((m, k), outcome)) + "\n"
        summary = f'{{"identity": "{name}", "pass": {passed}, "fail": {failed}, "skip": {skipped}}}'
        yield (summary if as_json else f"pass={passed} fail={failed} skip={skipped}") + "\n"

    _write_lines(pieces())
    return 1 if failed else 0


def cmd_fit(args) -> int:
    t = identities.fit_uniform(args.c, args.n_max)
    if args.json:
        print(f'{{"c": "{args.c}", "t": {"null" if t is None else t}}}')
    else:
        print("NONE" if t is None else t)
    return 0
