"""Run one cfkit CLI command with every layer boundary traced from outside.

    python launch.py FD cfkit-arg...

Wraps the public names each layer calls in the layer below, runs
`cfkit.cli.run(argv)`, and at exit writes one JSON object of per-layer
totals to file descriptor FD. Stdout and the exit code are the command's
own. cfkit itself is not modified: the wrappers replace module attributes
(and `Rational.__init__`) in this process only.

Spans are kept in memory as [name, start, end, parent, size, bits] and
reduced at exit. A span's layer is its name's prefix. Span times are the
calling thread's CPU time, so a layer's self time is the time it was busy:
waits for the GIL or a thread pool count nowhere, and the layer times of
`sweep --jobs` workers add up without overlap. Self time is a span's
duration minus that of its children in *other* layers; nested spans of
one layer (scaled_fib -> fib, evaluate -> convergents) fold into the
outermost one, so each call into a layer counts once. Each thread keeps
its own span stack, so worker-thread spans are roots.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from cfkit import cli, contfrac, identities, sequences, tiling
from cfkit.rational import Rational


def _bits(*values: int) -> int:
    return max(abs(v).bit_length() for v in values)


# name, or layer, -> (size, bits) of one call from its (args, result):
# sequences (index, result bits), parse_cf (terms out, -), evaluate and
# convergents (terms in, bits of the final p and q), tiling (tilings
# counted, -), Rational (-, bits of num and den).
_MEASURES = {
    "sequences": lambda args, out: (args[-1], out.bit_length()),
    "contfrac.parse_cf": lambda args, out: (len(out), 0),
    "contfrac.evaluate": lambda args, out: (len(args[0]), _bits(out.num, out.den)),
    "contfrac.convergents": lambda args, out: (len(args[0]), _bits(*out.final())),
    "tiling": lambda args, out: (out, 0),
    "rational": lambda args, out: (0, _bits(*args[1:])),
}

_WRAPPED = {
    identities: ("sweep", "run_case", "fit_uniform"),
    contfrac: ("parse_cf", "evaluate", "convergents", "expand_rational", "surd_cf", "build_uniform"),
    sequences: ("fib", "fib_comb", "lucas", "lucas_swapped", "gibonacci", "scaled_fib"),
    tiling: ("count_board", "count_bracelet", "count_stacked"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        measure = _MEASURES.get(name) or _MEASURES.get(name.partition(".")[0])
        spans, clock, stack_of = self.spans, time.thread_time_ns, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, clock(), 0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4], span[5] = measure(args, out)
            return out

        return traced

    def install(self) -> None:
        for module, names in _WRAPPED.items():
            layer = module.__name__.rpartition(".")[2]
            for attr in names:
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(f"{layer}.{attr}", original))
                # identities imported some of these by name; wrap its copies too.
                if module is not identities and hasattr(identities, attr):
                    setattr(identities, attr, self.wrap(f"{layer}.{attr}", original))
        Rational.__init__ = self.wrap("rational.init", Rational.__init__)

    def reduce(self) -> dict:
        spans = self.spans
        layer = [s[0].partition(".")[0] for s in spans]
        entry = list(range(len(spans)))
        foreign = [0] * len(spans)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent < 0:
                continue
            if layer[parent] == layer[i]:
                entry[i] = entry[parent]
            else:
                foreign[entry[parent]] += end - start
        out: dict[str, float] = {
            "cli.self_s": 0.0,
            "identities.cases": 0,
            "identities.self_s": 0.0,
            "sequences.calls": 0,
            "sequences.self_s": 0.0,
            "sequences.max_index": 0,
            "sequences.out_bits": 0,
            "contfrac.parse_s": 0.0,
            "contfrac.parse_terms": 0,
            "contfrac.evaluate_s": 0.0,
            "contfrac.convergents_s": 0.0,
            "contfrac.terms": 0,
            "contfrac.max_bits": 0,
            "rational.constructs": 0,
            "rational.init_s": 0.0,
            "rational.max_bits": 0,
            "tiling.self_s": 0.0,
            "tiling.count": 0,
        }
        for i, (name, start, end, _, size, bits) in enumerate(spans):
            lay = layer[i]
            if name == "identities.run_case":
                out["identities.cases"] += 1
            elif lay == "rational":
                out["rational.constructs"] += 1
                out["rational.max_bits"] = max(out["rational.max_bits"], bits)
            elif lay == "sequences":
                out["sequences.max_index"] = max(out["sequences.max_index"], size)
            elif name in ("contfrac.evaluate", "contfrac.convergents"):
                out["contfrac.max_bits"] = max(out["contfrac.max_bits"], bits)
            if entry[i] != i:
                continue
            self_s = (end - start - foreign[i]) / 1e9
            if lay == "cli":
                out["cli.self_s"] += self_s
            elif lay == "identities":
                out["identities.self_s"] += self_s
            elif lay == "sequences":
                out["sequences.calls"] += 1
                out["sequences.self_s"] += self_s
                out["sequences.out_bits"] += bits
            elif lay == "rational":
                out["rational.init_s"] += self_s
            elif lay == "tiling":
                out["tiling.self_s"] += self_s
                out["tiling.count"] += size
            elif name == "contfrac.parse_cf":
                out["contfrac.parse_s"] += self_s
                out["contfrac.parse_terms"] += size
            elif name in ("contfrac.evaluate", "contfrac.convergents"):
                out[name + "_s"] += self_s
                out["contfrac.terms"] += size
        out["spans"] = len(spans)
        return out


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.run", cli.run)(argv)
    sys.stdout.flush()
    summary = tracer.reduce()
    with os.fdopen(fd, "w") as sink:
        json.dump(summary, sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
