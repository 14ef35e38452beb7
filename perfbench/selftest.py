"""Self-test of the benchmark's oracle against cfkit at the default seed.

    python3 perfbench/selftest.py

Runs every operation of every workload once untraced and once through the
tracing launcher. Passes when the oracle reproduces cfkit's stdout and exit
code byte for byte on every operation except the four over-limit probes,
and each probe fails with a correct prefix of the expected output. When a
later change fixes a probe, this test reports it so the list can shrink.
"""

from __future__ import annotations

import sys

import run
import workloads

PROBES = {
    ("sweep", "THM6_ELEVEN_FIB", "--m", "4110..4120", "--json"),
    ("check", "THM5_SWAPPED_LUCAS", "--m", "5000"),
    ("eval", "[4x10000,3]"),
    ("seq", "scaled", "--from", "2935", "--to", "2945", "--t", "7"),
}


def main() -> int:
    sys.set_int_max_str_digits(0)
    env = run.child_env()
    flagged, ok = set(), True
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, workloads.DEFAULT_SEED):
            outcomes = [run.spawn(op.argv, env, traced) for traced in (False, True)]
            _, _, bad = run.mismatches(op, outcomes)
            if bad:
                flagged.add(op.argv)
            if any(not prefix for _, prefix in bad):
                print(f"WRONG output: {op}")
                ok = False
            if bad and len(bad) != len(outcomes):
                print(f"traced and untraced runs disagree: {op}")
                ok = False
    for argv in sorted(flagged ^ PROBES):
        state = "fails but is not a known probe" if argv in flagged else "is a probe but passes"
        print(f"{' '.join(argv)} {state}")
        ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
