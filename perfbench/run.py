"""cfkit benchmark: real CLI processes in a closed loop with one client.

    python3 perfbench/run.py --workload sweep_grid [--seed 0] [--seconds 20] [--trace 0]

Run it from the root of a checkout. Each operation is one fresh
`python -m cfkit ...` process with `src` on PYTHONPATH; the next starts
when it exits. Passes over the workload's operation list repeat until
`--seconds` have gone by and, untraced, at least three passes are done;
times are each operation's median over passes. Every time is
host-normalised: between operations a fixed pure-Python kernel, which does
not touch cfkit, is timed in this process, and each operation's seconds are
scaled by REF_SECONDS / (the kernel's median time around it). A shared host
whose speed swings by tens of percent then reads about the same, while a
change to cfkit moves the figures as much as it moves raw seconds.
Afterwards every output is
checked against `oracle.py`, which derives it without cfkit, and the last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts operations whose exit code or stdout differs from the
oracle's; `correct` is false when some operation printed a byte that is
wrong, not merely missing. With `--trace 0` the metrics are the end-to-end
ones in BENCHMARK.json; with `--trace 1` the passes alternate untraced and
traced (through launch.py) and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-operation limits. The largest seed peak RSS is about 1 GB
# (eval "[4x60000]"), so a memory regression fails its operation at
# 3 GiB of address space instead of exhausting a machine without swap.
ADDRESS_SPACE = 3 << 30
CPU_SECONDS = 60
SETUP_SAMPLES = 5  # trivial launches before each untraced pass, for setup_s
MIN_PASSES = 3  # untraced passes, so each operation's median has three samples
# Start no pass that would end after this many seconds at the pace of the
# previous one, so that even a much slower program ends the run within 180 s.
BUDGET_SECONDS = 150
SETUP_OP = workloads.evaluate([(1, 1)])
# Host calibration: REF_SAMPLES runs of _kernel() between operations. Its
# median time around an operation is the host's current speed; on a quiet
# 2-vCPU virtual machine with Python 3.11 it is about REF_SECONDS, so
# normalised seconds read close to raw ones there.
REF_SAMPLES = 7
REF_SECONDS = 0.008


def _kernel() -> int:
    """Fixed interpreter-bound work. It runs in this process, which never
    imports cfkit, so no change to cfkit can change its time."""
    table, total = {}, 0
    for i in range(80_000):
        total += (i * i) % 7
        table[i & 255] = total
    return total


def calibrate() -> list[float]:
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


@dataclass(frozen=True)
class Outcome:
    seconds: float  # host-normalised, once run_pass has scaled it
    code: int
    digest: str
    size: int
    rss_kb: int
    trace: dict | None


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def spawn(argv: tuple[str, ...], env: dict, traced: bool) -> Outcome:
    """Run one operation to completion, hashing its stdout as it streams.

    Stdout is never buffered whole, so this process stays small: a child's
    ru_maxrss starts from its parent's high-water mark at fork.
    """
    if traced:
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(HERE / "launch.py"), str(write_fd), *argv]
        fds: tuple[int, ...] = (write_fd,)
    else:
        cmd = [sys.executable, "-m", "cfkit", *argv]
        fds = ()
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        pass_fds=fds,
        preexec_fn=_limit_child,
    )
    if traced:
        os.close(write_fd)
    with proc.stdout:
        while chunk := proc.stdout.read1(1 << 16):
            digest.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced:
        with os.fdopen(read_fd) as sink:
            text = sink.read()
        trace = json.loads(text) if text else None
    return Outcome(seconds, proc.returncode, digest.hexdigest(), size, usage.ru_maxrss, trace)


def run_pass(ops, env: dict, traced: bool) -> tuple[list[Outcome], float]:
    """Run `ops` in order with a calibration before, between and after them.

    Returns the outcomes with host-normalised seconds, and the median of
    the scale factors applied (above 1 while the host runs fast).
    """
    outs, scales = [], []
    before = calibrate()
    for op in ops:
        out = spawn(op.argv, env, traced)
        after = calibrate()
        scale = REF_SECONDS / statistics.median(before + after)
        outs.append(replace(out, seconds=out.seconds * scale))
        scales.append(scale)
        before = after
    return outs, statistics.median(scales)


def _op_medians(passes, field: str) -> list[float]:
    """Each operation's median over passes; sturdier than the median pass
    when host noise comes in bursts shorter than a pass."""
    return [statistics.median(getattr(outs[i], field) for outs in passes) for i in range(len(passes[0]))]


def end_to_end(ops, passes, setup) -> dict[str, float]:
    seconds = _op_medians(passes, "seconds")

    def rate(work) -> float:
        return sum(work(op) for op in ops) / sum(s for op, s in zip(ops, seconds) if work(op))

    return {
        "setup_s": statistics.median(out.seconds for out in setup),
        "wall_s": sum(seconds),
        "cases_per_s": rate(lambda op: op.cases),
        "terms_per_s": rate(lambda op: op.terms),
        "peak_rss_mb": max(_op_medians(passes, "rss_kb")) / 1024,
    }


def per_layer(plain, traced) -> dict[str, float]:
    """Per-layer totals of each traced pass, then the median over passes."""
    totals = []
    for outs in traced:
        total: dict[str, float] = {}
        for out in outs:
            for key, value in (out.trace or {}).items():
                merge = max if ".max_" in key else (lambda a, b: a + b)
                total[key] = merge(total[key], value) if key in total else value
        total["cli.out_bytes"] = sum(out.size for out in outs)
        total["cli.usage_errors"] = sum(out.code == 2 for out in outs)
        totals.append(total)
    result = {key: statistics.median(t.get(key, 0) for t in totals) for key in set().union(*totals)}
    result["trace.overhead_frac"] = sum(_op_medians(traced, "seconds")) / sum(_op_medians(plain, "seconds")) - 1
    return result


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")


def mismatches(op, outcomes) -> tuple[int, bytes, list[tuple[Outcome, bool]]]:
    """The oracle's (exit code, stdout) for `op`, and each outcome that differs
    from it, paired with whether its stdout is at least a prefix of the oracle's."""
    want_code, want = op.expect()
    want_digest = hashlib.sha256(want).hexdigest()
    bad = [out for out in outcomes if (out.code, out.digest) != (want_code, want_digest)]
    return want_code, want, [(out, hashlib.sha256(want[: out.size]).hexdigest() == out.digest) for out in bad]


def verify(ops, passes) -> tuple[int, bool, list[str]]:
    """Compare every outcome with the oracle: (failed, correct, notes)."""
    sys.set_int_max_str_digits(0)  # this process only; children keep the default
    failed, correct, notes = 0, True, []
    for i, op in enumerate(ops):
        want_code, want, bad = mismatches(op, [outs[i] for outs in passes])
        failed += len(bad)
        correct = correct and all(prefix for _, prefix in bad)
        for out, prefix in {(o.code, o.digest): (o, p) for o, p in bad}.values():
            notes.append(
                f"FAILED {op}: exit {out.code} (expected {want_code}), "
                f"{out.size} of {len(want)} bytes, "
                + ("a correct prefix" if prefix else "WRONG output")
            )
    return failed, correct, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cfkit" / "__init__.py").is_file():
        print(f"perfbench: no cfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    ops = workloads.build(args.workload, args.seed)
    env = child_env()
    setup, plain, traced, scales = [], [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        setup_ops = [] if args.trace else [SETUP_OP] * SETUP_SAMPLES
        outs, scale = run_pass(setup_ops + ops, env, False)
        setup += outs[: len(setup_ops)]
        plain.append(outs[len(setup_ops):])
        scales.append(scale)
        if args.trace:
            outs, scale = run_pass(ops, env, True)
            traced.append(outs)
            scales.append(scale)
        now = time.perf_counter()
        elapsed, last = now - start, now - begun
        enough = args.trace or len(plain) >= MIN_PASSES
        if (enough and elapsed >= args.seconds) or elapsed + last > BUDGET_SECONDS:
            break

    failed, correct, notes = verify(ops, plain + traced)
    setup_failed, setup_correct, setup_notes = verify([SETUP_OP], [[out] for out in setup])
    values = per_layer(plain, traced) if args.trace else end_to_end(ops, plain, setup)
    attempted = len(ops) * (len(plain) + len(traced))

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print("host speed per pass (REF_SECONDS / calibration time): "
          + " ".join(f"{scale:.3f}" for scale in scales))
    for line in notes + setup_notes:
        print(line)
    print(f"error_rate {failed}/{attempted} operations ({failed / attempted:.3f})")
    if args.trace:
        print(f"{values.get('spans', 0):.0f} spans per traced pass")
    for name, unit in units.items():
        print(f"{name} {values.get(name, 0):.6g} {unit}")
    print(json.dumps({
        "correct": correct and setup_correct and not setup_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
