"""ordbench benchmark: cold CLI invocations, end-to-end times, traced per-layer counts.

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 40 --trace 0

Run from anywhere; the benchmark measures the checkout it sits in.  Every
invocation of the CLI starts a fresh interpreter (bench/child.py), because
that is what each CLI user pays: the process-wide caches of ordbench start
empty every run.  One client runs one op at a time, in a closed loop, for
about --seconds seconds.  Each op's output is checked.

With --trace 0 the result line carries the end-to-end metrics.  With
--trace 1 it carries the per-layer metrics, from spans recorded around the
public functions of each layer; traced and untraced ops alternate, so the
run can also report the tracing overhead and check that the traced work
counts repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Set-up failures print no result and exit with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 60.0
# No op starts if it would likely end after this many seconds of the run.
RUN_LIMIT_S = 150.0
# A traced run alternates traced and untraced ops, starting traced, and runs
# at least two traced ops (their counts must agree) and one untraced op.
MIN_TRACED_OPS = 2

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark could not set up; no result is printed."""


@dataclass
class Invocation:
    started: float
    ended: float
    cpu_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    setup_s: float | None = None


@dataclass
class Op:
    traced: bool
    seconds: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    setup_s: list[float]
    cases: int = 0
    error: str | None = None
    layers: dict | None = None


def spawn(args: list[str]) -> Invocation:
    """Run child.py with args in a fresh interpreter and wait for it to exit."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(CHILD), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
        )
        ended, usage, code, timed_out = _wait(proc, INVOCATION_TIMEOUT_S)
        out.seek(0)
        err.seek(0)
        return Invocation(
            started, ended, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            code, timed_out, out.read(), err.read(),
        )


def _wait(proc, timeout):
    # Wait for exit without reaping (WNOWAIT), so the timeout can never signal
    # a reused pid; then reap with wait4, which gives the child's own rusage.
    lock = threading.Lock()
    exited = killed = False

    def kill():
        nonlocal killed
        with lock:
            if not exited:
                killed = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        ended = time.monotonic()
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ended, usage, proc.returncode, killed


def measure_setup() -> list[float]:
    """Seconds from interpreter spawn until `import ordbench; catalog()` returned.

    A first probe compiles bytecode and is not counted.  Untraced ops add
    one more sample per invocation, spread over the run.
    """
    expected = str(ROOT / "src" / "ordbench" / "__init__.py")
    samples = []
    for i in range(SETUP_PROBES + 1):
        inv = spawn(["probe"])
        fields = inv.stdout.split()
        if inv.code != 0 or len(fields) != 2 or fields[1].decode() != expected:
            raise BenchError(
                f"set-up probe failed (exit {inv.code}): "
                f"{(inv.stderr or inv.stdout).decode(errors='replace').strip()[-500:]}"
            )
        if i:
            samples.append(int(fields[0]) / 1e9 - inv.started)
    return samples


def run_op(workload: workloads.Workload, argvs: list[list[str]], traced: bool, first: Op | None,
           first_digests: list[str]) -> Op:
    """One op: every invocation of the workload, then the output checks."""
    invocations = []
    for k, argv in enumerate(argvs):
        side = OUT / (f"spans-{k}.json" if traced else "ready")
        side.unlink(missing_ok=True)
        inv = spawn(["trace" if traced else "op", str(side), *argv])
        ready = side.read_text() if not traced and side.exists() else ""
        if ready:
            inv.setup_s = int(ready) / 1e9 - inv.started
        invocations.append(inv)
    op = Op(
        traced=traced,
        seconds=invocations[-1].ended - invocations[0].started,
        cpu_s=sum(inv.cpu_s for inv in invocations),
        rss_mb=max(inv.rss_mb for inv in invocations),
        stdout_bytes=sum(len(inv.stdout) for inv in invocations),
        setup_s=[inv.setup_s for inv in invocations if inv.setup_s is not None],
    )
    try:
        for argv, inv in zip(argvs, invocations):
            if inv.timed_out:
                raise workloads.CheckFailed(f"{' '.join(argv)}: no exit within {INVOCATION_TIMEOUT_S:.0f} s")
            op.cases += workload.check(argv, inv.code, inv.stdout)
        digests = [hashlib.sha256(inv.stdout).hexdigest() for inv in invocations]
        if not first_digests:
            first_digests.extend(digests)
        elif digests != first_digests:
            raise workloads.CheckFailed("stdout differs from the first op of this run")
        if traced:
            op.layers = _traced_layers(len(argvs))
            if first is not None and _counts(op.layers) != _counts(first.layers):
                diff = sorted(k for k, v in _counts(op.layers).items() if _counts(first.layers)[k] != v)
                raise workloads.CheckFailed(f"traced counts differ from the first traced op: {diff}")
    except workloads.CheckFailed as exc:
        op.error = str(exc)
    return op


def _traced_layers(n_invocations: int) -> dict:
    traces = []
    for k in range(n_invocations):
        path = OUT / f"spans-{k}.json"
        if not path.exists():
            raise workloads.CheckFailed(f"traced invocation {k} wrote no spans")
        with open(path) as fh:
            traces.append(json.load(fh))
    return tracing.layer_metrics(tracing.merge(traces))


def _counts(layers: dict) -> dict:
    """The metrics that count work, which must repeat exactly across traced ops."""
    return {k: v for k, v in layers.items() if tracing.PER_LAYER[k] != "s"}


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    argvs = workload.argvs(seed)
    setup = measure_setup()
    print(f"workload: {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"why: {workload.why}")
    for argv in argvs:
        print("argv: ordbench " + shlex.join(argv))

    ops: list[Op] = []
    first_traced = None
    first_digests: list[str] = []
    min_ops = 2 * MIN_TRACED_OPS - 1 if trace else 1
    begin = time.monotonic()
    while True:
        traced = trace and len(ops) % 2 == 0
        op = run_op(workload, argvs, traced, first_traced, first_digests)
        ops.append(op)
        if op.error is not None:
            print(f"op {len(ops)} failed: {op.error}", file=sys.stderr)
        elif traced and first_traced is None:
            first_traced = op
        elapsed = time.monotonic() - begin
        typical = statistics.median(o.seconds for o in ops)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(ops) >= min_ops and elapsed + typical / 2 >= seconds:
            break

    failed = sum(op.error is not None for op in ops)
    good = [op for op in ops if op.error is None] or ops
    untraced = [op for op in good if not op.traced]
    setup += [s for op in untraced for s in op.setup_s]
    print(f"ops: {len(ops)} ({sum(op.traced for op in ops)} traced), {failed} failed; set-up samples: {len(setup)}")
    print("op seconds: " + " ".join(f"{op.seconds:.3f}{'T' if op.traced else ''}" for op in ops))
    if trace:
        metrics = _layer_report(good, untraced)
    else:
        # Per-op times are means over the run (total / ops), not medians: on a
        # shared host the mean of a few ops spreads less from run to run.
        seconds = [op.seconds for op in untraced]
        print(f"op seconds median {statistics.median(seconds):.4f} max {max(seconds):.4f} (n={len(seconds)})")
        values = {
            "run_s": statistics.mean(seconds),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.mean(op.cpu_s for op in untraced),
            "cases_per_s": sum(op.cases for op in untraced) / sum(seconds),
            "peak_rss_mb": statistics.median(op.rss_mb for op in untraced),
            "success_rate": (len(ops) - failed) / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _layer_report(good: list[Op], untraced: list[Op]) -> dict:
    traced = [op for op in good if op.traced and op.layers is not None]
    if not traced:
        return {k: {"value": 0, "unit": u} for k, u in tracing.PER_LAYER.items()}
    values = dict(traced[0].layers)
    for name, unit in tracing.PER_LAYER.items():
        if unit == "s" and name in values:
            values[name] = statistics.median(op.layers[name] for op in traced)
    values["cli.stdout_bytes"] = traced[0].stdout_bytes
    traced_s = statistics.median(op.seconds for op in traced)
    values["trace.overhead_ratio"] = traced_s / statistics.median(op.seconds for op in untraced) if untraced else 0.0
    return {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
