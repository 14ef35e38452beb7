"""The benchmark's workloads: fixed lists of cfkit CLI operations made from a seed.

A seed moves sweep windows by a few steps and picks a few single terms of
the mixed-run `eval`; operation count, list lengths and grid sizes never
depend on it, so runs with different seeds do the same amount of work.
The over-limit probes are fixed: each sits just past Python's 4300-digit
int-to-str limit and fails at the seed commit (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One `cfkit` process: its arguments, its oracle and the work it is asked for."""

    argv: tuple[str, ...]
    expect: Callable[[], oracle.Result]
    cases: int = 0  # identity cases in the requested grid
    terms: int = 0  # continued-fraction terms cfkit evaluates

    def __str__(self) -> str:
        return " ".join(self.argv)


def _span(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


def _cf_terms(ident: str, cases) -> int:
    # Every catalog continued fraction used here has m + 1 terms.
    return 0 if oracle.is_lemma(ident) else sum(m + 1 for m, _ in cases)


def sweep(ident: str, m: tuple[int, int], k: tuple[int, int] | None = None, *, as_json=False, jobs=None) -> Op:
    argv = ["sweep", ident, "--m", _span(*m)]
    if k is not None:
        argv += ["--k", _span(*k)]
    if as_json:
        argv.append("--json")
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    cases = oracle.grid(ident, m, k)
    return Op(tuple(argv), partial(oracle.sweep, ident, m, k, as_json), len(cases), _cf_terms(ident, cases))


def check(ident: str, m: int) -> Op:
    return Op(("check", ident, "--m", str(m)), partial(oracle.check, ident, m), 1, _cf_terms(ident, [(m, None)]))


def _cf_text(runs) -> str:
    return "[" + ",".join(f"{v}x{n}" if n != 1 else str(v) for v, n in runs) + "]"


def evaluate(runs, digits: int | None = None) -> Op:
    argv = ["eval", _cf_text(runs)]
    if digits is not None:
        argv += ["--digits", str(digits)]
    return Op(tuple(argv), partial(oracle.evaluate, runs, digits), terms=sum(n for _, n in runs))


def convergents(runs) -> Op:
    return Op(("convergents", _cf_text(runs)), partial(oracle.convergents, runs), terms=sum(n for _, n in runs))


def seq(kind: str, lo: int, hi: int, *, t: int | None = None, as_json=False) -> Op:
    argv = ["seq", kind, "--from", str(lo), "--to", str(hi)]
    if t is not None:
        argv += ["--t", str(t)]
    if as_json:
        argv.append("--json")
    return Op(tuple(argv), partial(oracle.seq, kind, lo, hi, t, as_json))


def sweep_grid(rng: random.Random) -> list[Op]:
    """Many small cases: per-case dispatch, short evaluate, small Rational, formatting."""
    k2, k1, k3 = (rng.randint(-20, 20) for _ in range(3))
    thm2 = dict(m=(0, 200), k=(k2 - 100, k2 + 100), as_json=True)
    return [
        sweep("THM2_FIB_FORM", **thm2),
        sweep("THM2_FIB_FORM", **thm2, jobs=2),
        sweep("THM1_GIBONACCI", (0, 100), (k1 - 50, k1 + 50), as_json=True),
        sweep("THM3_ONES", (0, 300), (k3 - 30, k3 + 30)),
    ]


def sweep_deep(rng: random.Random) -> list[Op]:
    """Few cases at large m: cold sequence caches and O(m^2)-bit convergent tables."""
    a, b, c, d = (rng.randint(0, 5) for _ in range(4))
    e = 5 * rng.randint(0, 2)  # LEM_BRIDGE covers multiples of 5 only
    return [
        sweep("THM6_ELEVEN_FIB", (a, 2000 + a)),
        sweep("ID117", (b, 2000 + b)),
        sweep("THM7_FOURS", (c, 2000 + c), as_json=True),
        sweep("THM5_SWAPPED_LUCAS", (d, 1500 + d)),
        sweep("LEM_BRIDGE", (e, 10000 + e)),
        # over-limit probes
        sweep("THM6_ELEVEN_FIB", (4110, 4120), as_json=True),
        check("THM5_SWAPPED_LUCAS", 5000),
    ]


_SINGLES = [v for v in range(-9, 10) if abs(v) >= 2]


def oneshot_big(rng: random.Random) -> list[Op]:
    """Single commands on big inputs: parse -> evaluate -> Rational, sequential seq, tiling."""
    x, y, z = (rng.choice(_SINGLES) for _ in range(3))
    tail = rng.randint(2, 9)
    o1, o2 = (rng.randint(0, 10) for _ in range(2))
    return [
        evaluate([(4, 60000)], digits=50),
        evaluate([(1, 100000), (tail, 1)], digits=50),
        evaluate([(2, 15000), (x, 1), (1, 15000), (y, 1), (7, 15000), (z, 1), (5, 15000)], digits=50),
        convergents([(11, 1500)]),
        seq("fib", o1, 6000 + o1),
        seq("lucas", o2, 6000 + o2, as_json=True),
        Op(("oracle", "board", "25"), partial(oracle.board, 25)),
        Op(("surd", "9999991"), partial(oracle.surd, 9999991)),
        # big single cases up to just under the digit limit, so cases_per_s
        # exists here too; twelve of them, since each is a short process
        *(check("THM6_ELEVEN_FIB", m + rng.randint(0, 10)) for m in range(3700, 4001, 100)),
        *(check("ID117", m + rng.randint(0, 10)) for m in range(6200, 6501, 100)),
        *(check("THM7_FOURS", m + rng.randint(0, 10)) for m in range(6200, 6501, 100)),
        # over-limit probes
        evaluate([(4, 10000), (3, 1)]),
        seq("scaled", 2935, 2945, t=7),
    ]


WORKLOADS = {f.__name__: f for f in (sweep_grid, sweep_deep, oneshot_big)}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(seed))
