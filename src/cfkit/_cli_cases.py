"""The check, sweep and fit subcommands and their case lines (see `cli`); cli.run() imports this module for them alone.

A continued fraction's q is the previous m's p ([c; x] = c + 1/x), so a
sweep converts most denominators by reusing a string it has made. A
passing --json batch converts its p column once; its q column is the
previous m's p strings for the same first k, when those ints equal its q
column (cli._reusing on whole columns), held for the first 256 k of the
range only. A line written case by case (a FAIL or SKIPPED case, or
a --json case of a batch that does not pass whole) reuses the previous
case's numerator string, per side, for a denominator equal to it
(cli._reusing): in THM5_SWAPPED_LUCAS both the left q and the reduced
right den (g = 11) are the previous numerators.

A lemma sweep steps its values in decimal.Decimal, inside the local
context of _decimals.exact_context(), which holds every value exactly: a
lemma's case is lhs/1 against rhs/1, so its values are only added,
multiplied and compared, and its failing right side needs no gcd. str()
of an integer Decimal takes linear time where an int's takes quadratic
time, and has no digit limit. The Decimals stay in cmd_sweep(); no other
command of this module imports decimal. A failing right side of a
continued-fraction sweep (THM5_SWAPPED_LUCAS) is reduced by the gcd that
_engine.sweep_records() carries from the case before.
"""

from . import identities
from .cli import _reusing, _write_lines
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

    ps and qs are the sides' numerators and denominators, as ints or as
    their decimal strings; both sides are p/q, a string made once per case.
    """
    return "".join(
        [
            f'{head}{k}}}, "lhs": {side}, "rhs": {side}, "status": "PASS", "note": ""}}\n'
            for k, p, q in zip(ks, ps, qs)
            for side in (f'{{"num": "{p}", "den": "{q}"}}',)
        ]
    )


def _case_json(
    name: str, params: identities.CaseParams, outcome: identities.CheckOutcome, lhs_digits, rhs_digits
) -> str:
    """One case as a JSON object, written from one template (a PASS from _pass_lines()).

    The bytes are those of json.dumps() on the object {"identity", "params",
    "lhs", "rhs", "status", "note"}: an undefined side's key is left out,
    big integers are decimal strings, and m and k are JSON numbers. Names,
    statuses and notes are plain ASCII without quotes or backslashes, so they
    need no escaping. lhs_digits and rhs_digits (cli._reusing(str), one per
    side) make a FAIL's or a SKIPPED case's side strings.
    """
    m, k = params
    status, lhs, rhs, note = outcome
    head, key = _json_head(name, m, k is not None), "" if k is None else k
    if status.name == "PASS":
        return _pass_lines(head, (key,), (lhs.num,), (lhs.den,))[:-1]
    sides = ""
    # The slots, not the properties: a sweep writing nothing to reuse
    # (LEM_BRIDGE) must not pay two calls a side.
    if lhs is not None:
        p, q = lhs_digits(lhs._num, lhs._den)
        sides = f', "lhs": {{"num": "{p}", "den": "{q}"}}'
    if rhs is not None:
        p, q = rhs_digits(rhs._num, rhs._den)
        sides += f', "rhs": {{"num": "{p}", "den": "{q}"}}'
    return f'{head}{key}}}{sides}, "status": "{status.name}", "note": "{note}"}}'


def _case_text(params: identities.CaseParams, outcome: identities.CheckOutcome, lhs_digits, rhs_digits) -> str:
    """One case as a text line: STATUS m=M [k=K] [lhs=P/Q] [rhs=P/Q] [(note)].

    lhs_digits and rhs_digits make a FAIL's or a SKIPPED case's side strings, as in _case_json().
    """
    m, k = params
    status, lhs, rhs, note = outcome
    name, k_field = status.name, "" if k is None else f" k={k}"
    if name == "PASS":
        side = str(lhs)  # a PASS carries one Rational as both sides
        return f"PASS m={m}{k_field} lhs={side} rhs={side}"
    line = f"{name} m={m}{k_field}"
    if lhs is not None:
        p, q = lhs_digits(lhs._num, lhs._den)
        line += f" lhs={p}/{q}"
    if rhs is not None:
        p, q = rhs_digits(rhs._num, rhs._den)
        line += f" rhs={p}/{q}"
    return f"{line} ({note})" if note else line


def cmd_check(args) -> int:
    ident = _identity(args.identity)
    if args.m is None:
        raise MissingParam(f"check {ident.name} needs --m")
    params = identities.CaseParams(args.m, args.k)
    outcome = identities.run_case(ident, params)
    digits = _reusing(str), _reusing(str)
    print(_case_json(ident.name, params, outcome, *digits) if args.json else _case_text(params, outcome, *digits))
    return 1 if outcome.status is identities.Status.FAIL else 0


def cmd_sweep(args) -> int:
    ident = _identity(args.identity)
    if not ident.is_lemma:
        return _sweep(ident, args, int)
    # A lemma steps in Decimal (see above).
    from decimal import Decimal

    from ._decimals import exact_context

    with exact_context():
        return _sweep(ident, args, Decimal)


def _sweep(ident: identities.IdentityId, args, number) -> int:
    """cmd_sweep() with the forms' values of the type number (see sequences.walk)."""
    from ._engine import sweep_cases, sweep_records  # compiled only by the commands that sweep

    name, batches = ident.name, sweep_cases(ident, args.m, args.k, number)
    passing, failing, record = identities.Status.PASS, identities.Status.FAIL, sweep_records()
    as_json, takes_k = args.json, ident.takes_k
    # A passing --json batch's column strings, by its first k: one
    # cli._reusing per batch start, whose last p column makes the next m's q
    # column where the two are equal. Whole batches of at most 256 k in all
    # are held, so the memory a sweep holds stays flat in its k range, with
    # a state per k (one k a batch) as with one state.
    held, room, failed = {}, 256, 0

    def pieces():
        # Nearly every batch passes whole: text writes nothing for it, and
        # --json writes its lines as one string, converting each p once.
        nonlocal failed, room
        passed = skipped = 0
        lhs_digits, rhs_digits = _reusing(str), _reusing(str)
        for m, kb, statuses, ps, qs, nums, dens in batches:
            n_pass = statuses.count(passing)
            passed += n_pass
            if n_pass == len(kb):
                if not as_json:
                    continue
                digits = held.get(kb[0])
                if digits is None:
                    digits = _reusing(lambda column: list(map(str, column)))
                    if len(kb) <= room:
                        held[kb[0]], room = digits, room - len(kb)
                try:
                    p_strs, q_strs = digits(ps, qs)
                except ValueError:
                    pass  # a side past the integer-string digit limit: case by case below, so the lines before it go out
                else:
                    yield _pass_lines(_json_head(name, m, takes_k), kb if takes_k else ("",), p_strs, q_strs)
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
                    if as_json:
                        yield _case_json(name, (m, k), outcome, lhs_digits, rhs_digits) + "\n"
                    else:
                        yield _case_text((m, k), outcome, lhs_digits, rhs_digits) + "\n"
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
