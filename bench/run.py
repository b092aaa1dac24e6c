"""Benchmark of the phasejump package: one command, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from the
tracer with ``--trace 1``.  Results and traces also go to ``.bench_out/``.
Exits 2 without a result when the package sources are missing; a run whose
outputs fail a check prints ``"correct": false`` and the failed checks on
standard error.

Each workload is a closed loop: one process, one caller, no threads, each call
issued after the previous one returns.  See README.md for the workloads, the
metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# set-up is timed in fresh processes, this many times, and the median reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import the package from this checkout's ``src/`` and return its modules by short name."""
    sys.path.insert(0, SRC)

    modules = {"phasejump": importlib.import_module("phasejump")}
    for name in ("models", "propagation", "adiabatic", "analytic", "sweeps", "cli"):
        modules[name] = importlib.import_module(f"phasejump.{name}")
    if not os.path.abspath(modules["phasejump"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"phasejump was imported from {modules['phasejump'].__file__}, not {SRC}")
    return modules


def prepare(workload: str, seed: int, out_dir: str):
    """Everything a run needs before its first operation: the package and the inputs."""
    modules = load_package()
    from workloads import WORKLOADS

    return WORKLOADS[workload](modules, seed, out_dir)


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the package and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_percentile(round_samples: int) -> float:
    """Highest percentile with ten of one round's samples beyond it; the median below forty.

    Fixing it from a round, not from the run, keeps it the same however many
    rounds a run completes.
    """
    if round_samples < 40:
        return 50.0
    return float(int(100.0 * (1.0 - 10.0 / round_samples)))


def measure(bench, seconds: float, tracer=None):
    """Repeat whole rounds until ``seconds`` have passed; return timings and one round's outputs."""
    samples = []  # ms per operation, one per call
    ops = failed = 0
    busy = 0.0
    first_outputs = None
    first_text = ""
    deterministic = True
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outputs = []
        for call in bench.calls:
            n = bench.ops(call)
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                out = bench.run(call)
            except Exception as exc:  # a failing operation is counted, not fatal
                busy += time.perf_counter() - t0
                print(f"operation failed: {call}: {type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
                ops += n
                failed += n
                continue
            dt = time.perf_counter() - t0
            busy += dt
            samples.append(1e3 * dt / n)
            ops += n
            failed += bench.failed(call, out)
            outputs.append(out)
        # repr compares NaN (a failed point) equal to itself
        if first_outputs is None:
            first_outputs, first_text = outputs, repr(outputs)
        elif repr(outputs) != first_text:
            deterministic = False
        now = time.perf_counter()
        # stop at the round boundary nearest the requested duration
        if now - start + 0.5 * (now - round_start) >= seconds:
            break
    return {
        "samples": samples,
        "ops": ops,
        "failed": failed,
        "busy": busy,
        "wall": time.perf_counter() - start,
        "outputs": first_outputs,
        "deterministic": deterministic,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phasejump", "__init__.py")):
        print(f"error: no phasejump package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, work_dir)
            return 0
        return run(args, work_dir)
    finally:
        for name in os.listdir(work_dir):
            os.remove(os.path.join(work_dir, name))
        os.rmdir(work_dir)


def run(args, work_dir) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    bench = prepare(args.workload, args.seed, work_dir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(bench.pj)
    try:
        m = measure(bench, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = bench.check(m["outputs"])
    if not m["deterministic"]:
        problems.append("repeated rounds of identical inputs gave different outputs")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    samples = m["samples"]
    round_samples = len(bench.calls)
    pct = tail_percentile(round_samples)
    ops_per_s = m["ops"] / m["busy"]
    print(f"{args.workload}: seed {args.seed}, {m['ops']} operations in {m['busy']:.3f} s "
          f"({len(samples)} timed calls, {round_samples} per round, "
          f"{m['wall']:.3f} s wall); op_ms_tail is p{pct:g}")
    if tracer is not None:
        metrics = tracer.per_layer(m["ops"], m["busy"])
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.npz"))
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_ms_p50": statistics.median(samples),
            "op_ms_tail": float(np.percentile(samples, pct)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": not problems, "attempted": m["ops"], "failed": m["failed"], "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as f:
        f.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
