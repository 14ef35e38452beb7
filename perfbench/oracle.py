"""Expected stdout and exit code of every benchmark operation, derived without cfkit.

Values come from plain linear recurrences and fractions.Fraction; the text
and JSON layouts follow the CLI contract in the repository README (exit 0
when everything passes, 1 when any case FAILs, 3 for an undefined value).
Nothing here imports cfkit, so a defect in cfkit cannot hide in its own
check. Callers must lift Python's int-to-str digit limit in their own
process first (`sys.set_int_max_str_digits(0)`): the correct outputs of the
over-limit probes are longer than 4300 digits.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import isqrt

Result = tuple[int, bytes]


class Tables:
    """Fibonacci F, Lucas L, gibonacci G_k and swapped-Lucas l, grown on demand."""

    def __init__(self) -> None:
        self._f: list[int] = [0, 1]
        self._l: list[int] = [2, 1]
        self._ls: list[int] = [1, 2, 3, 4]
        self._g: dict[int, list[int]] = {}

    @staticmethod
    def _grow(table: list[int], n: int) -> None:
        while len(table) <= n:
            table.append(table[-1] + table[-2])

    def F(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative Fibonacci index {n}")
        self._grow(self._f, n)
        return self._f[n]

    def L(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative Lucas index {n}")
        self._grow(self._l, n)
        return self._l[n]

    def G(self, k: int, n: int) -> int:
        """Gibonacci with seeds G_0 = k, G_1 = 1."""
        table = self._g.setdefault(k, [k, 1])
        self._grow(table, n)
        return table[n]

    def l(self, n: int) -> int:  # noqa: E743 - the catalog's name for it
        """1, 2, 3, 4, 7, 11, ...: seeds l_0..l_3, recurrence from n = 4; 0 below 0."""
        if n < 0:
            return 0
        self._grow(self._ls, n)
        return self._ls[n]


# Each continued-fraction identity: the constant c of its uniform prefix,
# whether the case is [c]*m + [tail] (True) or [c]*(m+1) (False), the tail
# term, and the stated right-hand side as (numerator, denominator).
_CF = {
    "ID117": (4, True, lambda m, k: 3, lambda t, m, k: (t.F(3 * m + 4), t.F(3 * m + 1))),
    "THM1_GIBONACCI": (
        4,
        True,
        lambda m, k: 2 * k + 3,
        lambda t, m, k: (t.G(k, 3 * m + 4), t.G(k, 3 * m + 1)),
    ),
    "THM2_FIB_FORM": (
        4,
        True,
        lambda m, k: 2 * k + 3,
        lambda t, m, k: (
            t.F(3 * m + 4) + k * t.F(3 * m + 3),
            t.F(3 * m + 1) + k * t.F(3 * m),
        ),
    ),
    "THM3_ONES": (
        1,
        True,
        lambda m, k: k,
        lambda t, m, k: (
            t.F(m + 2) + (k - 1) * t.F(m + 1),
            t.F(m + 1) + (k - 1) * t.F(m),
        ),
    ),
    "THM5_SWAPPED_LUCAS": (
        11,
        False,
        None,
        lambda t, m, k: (
            t.l(5 * m + 5) - t.l(5 * m - 5),
            t.l(5 * m) - t.l(5 * m - 10),
        ),
    ),
    "THM6_ELEVEN_FIB": (11, False, None, lambda t, m, k: (t.F(5 * m + 10), t.F(5 * m + 5))),
    # S_3(n) = F(3n) / F(3) = F(3n) / 2
    "THM7_FOURS": (4, False, None, lambda t, m, k: (t.F(3 * m + 6) // 2, t.F(3 * m + 3) // 2)),
}

_LEMMAS = {
    "LEM_BRIDGE": lambda t, m: (5 * (t.l(m) - t.l(m - 10)), t.F(m + 5)),
}

_K_IDENTITIES = {"THM1_GIBONACCI", "THM2_FIB_FORM", "THM3_ONES"}


def is_lemma(ident: str) -> bool:
    return ident in _LEMMAS


def grid(ident: str, m_range: tuple[int, int], k_range: tuple[int, int] | None) -> list[tuple[int, int | None]]:
    """The (m, k) cases a sweep covers, in output order."""
    lo, hi = m_range
    step = 5 if ident == "LEM_BRIDGE" else 1
    ms = range(lo + (-lo) % step, hi + 1, step)
    if ident in _K_IDENTITIES:
        return [(m, k) for m in ms for k in range(k_range[0], k_range[1] + 1)]
    return [(m, None) for m in ms]


def _uniform_rows(c: int):
    """Yield (p_{n-1}, p_{n-2}, q_{n-1}, q_{n-2}) of [c]*n for n = 0, 1, 2, ..."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        yield p1, p0, q1, q0
        p1, p0 = c * p1 + p0, p1
        q1, q0 = c * q1 + q0, q1


def _ratio(num: int, den: int) -> Fraction | None:
    return None if den == 0 else Fraction(num, den)


def _outcome(lhs: Fraction | None, rhs: Fraction | None) -> tuple[str, str]:
    if lhs is None and rhs is None:
        return "SKIPPED", "both sides undefined"
    if lhs is None:
        return "FAIL", "left side undefined"
    if rhs is None:
        return "FAIL", "right side undefined"
    if lhs == rhs:
        return "PASS", ""
    return "FAIL", "values differ"


def _cases(ident: str, cases: list[tuple[int, int | None]]):
    """Yield (m, k, lhs, rhs, status, note) for each case, in order."""
    t = Tables()
    if ident in _LEMMAS:
        for m, k in cases:
            lhs, rhs = _LEMMAS[ident](t, m)
            status, note = ("PASS", "") if lhs == rhs else ("FAIL", "values differ")
            yield m, k, Fraction(lhs), Fraction(rhs), status, note
        return
    c, with_tail, tail, stated = _CF[ident]
    rows = _uniform_rows(c)
    n, row = 0, next(rows)
    for m, k in cases:
        want = m if with_tail else m + 1
        while n < want:
            n, row = n + 1, next(rows)
        p1, p0, q1, q0 = row
        if with_tail:
            a = tail(m, k)
            p, q = a * p1 + p0, a * q1 + q0
        else:
            p, q = p1, q1
        lhs = _ratio(p, q)
        rhs = _ratio(*stated(t, m, k))
        yield (m, k, lhs, rhs, *_outcome(lhs, rhs))


def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _case_json(ident, m, k, lhs, rhs, status, note) -> str:
    obj: dict = {"identity": ident, "params": {"m": m}}
    if k is not None:
        obj["params"]["k"] = k
    if lhs is not None:
        obj["lhs"] = _frac_json(lhs)
    if rhs is not None:
        obj["rhs"] = _frac_json(rhs)
    obj["status"] = status
    obj["note"] = note
    return json.dumps(obj)


def _case_text(m, k, lhs, rhs, status, note) -> str:
    bits = [status, f"m={m}"]
    if k is not None:
        bits.append(f"k={k}")
    if lhs is not None:
        bits.append(f"lhs={lhs.numerator}/{lhs.denominator}")
    if rhs is not None:
        bits.append(f"rhs={rhs.numerator}/{rhs.denominator}")
    if note:
        bits.append(f"({note})")
    return " ".join(bits)


def _encode(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


@lru_cache(maxsize=1)  # a workload may run one sweep twice, with and without --jobs
def sweep(ident: str, m_range, k_range=None, as_json: bool = False) -> Result:
    """`sweep` over the grid, JSON lines or text (non-PASS cases and the tally)."""
    lines = []
    tally = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
    for m, k, lhs, rhs, status, note in _cases(ident, grid(ident, m_range, k_range)):
        tally[status] += 1
        if as_json:
            lines.append(_case_json(ident, m, k, lhs, rhs, status, note))
        elif status != "PASS":
            lines.append(_case_text(m, k, lhs, rhs, status, note))
    if as_json:
        summary = {"identity": ident, "pass": tally["PASS"], "fail": tally["FAIL"], "skip": tally["SKIPPED"]}
        lines.append(json.dumps(summary))
    else:
        lines.append(f"pass={tally['PASS']} fail={tally['FAIL']} skip={tally['SKIPPED']}")
    return (1 if tally["FAIL"] else 0), _encode(lines)


def check(ident: str, m: int) -> Result:
    """`check` of one case of an identity without a k parameter, text mode."""
    ((m, k, lhs, rhs, status, note),) = _cases(ident, [(m, None)])
    return (1 if status == "FAIL" else 0), _encode([_case_text(m, k, lhs, rhs, status, note)])


def _rows(runs):
    """Yield (p_i, q_i) of the forward recurrence over the run-length list."""
    p1, p0, q1, q0 = 1, 0, 0, 1
    for value, count in runs:
        for _ in range(count):
            p1, p0 = value * p1 + p0, p1
            q1, q0 = value * q1 + q0, q1
            yield p1, q1


def evaluate(runs, digits: int | None = None) -> Result:
    """`eval` of the run-length list [(value, count), ...], text mode."""
    (p, q), = deque(_rows(runs), maxlen=1)
    value = _ratio(p, q)
    if value is None:
        return 3, b""
    if digits is None:
        return 0, _encode([f"{value.numerator}/{value.denominator}"])
    whole, rem = divmod(abs(value.numerator), value.denominator)
    text = ("-" if value < 0 else "") + str(whole)
    if digits:
        frac, rem = divmod(rem * 10**digits, value.denominator)
        text += "." + str(frac).zfill(digits)
    return 0, _encode([text + ("…" if rem else "")])


def convergents(runs) -> Result:
    return 0, _encode([f"{i}: {p}/{q}" for i, (p, q) in enumerate(_rows(runs))])


def seq(kind: str, lo: int, hi: int, t: int | None = None, as_json: bool = False) -> Result:
    """`seq` over a nonnegative index range for kinds fib, lucas and scaled."""
    tables = Tables()
    value = {
        "fib": tables.F,
        "lucas": tables.L,
        "scaled": lambda n: tables.F(t * n) // tables.F(t),
    }[kind]
    lines = []
    for n in range(lo, hi + 1):
        if as_json:
            obj = {"kind": kind, "n": n}
            if t is not None:
                obj["t"] = t
            obj["value"] = str(value(n))
            lines.append(json.dumps(obj))
        else:
            lines.append(f"{n}\t{value(n)}")
    return 0, _encode(lines)


def board(n: int) -> Result:
    """Square/domino tilings of a 1 x n board: F(n+1)."""
    return 0, _encode([str(Tables().F(n + 1))])


def surd(d: int) -> Result:
    """Period of sqrt(d) by the classical recurrence, stopping at the term 2*a0."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    period = []
    while a != 2 * a0:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
    return 0, _encode([f"a0={a0} period=[{','.join(map(str, period))}]"])
