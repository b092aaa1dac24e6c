"""Write BENCH_<pr>.json: the four benchmark workloads, untraced, over several seeds.

    python3 scripts/bench_snapshot.py --root <checkout> --pr <n> [--baseline <checkout>]

Runs ``python3 bench/run.py --seconds 20 --trace 0`` of each checkout once per
workload and seed 1..10, one run at a time (20 s is the run length of the
reference figures in bench/README.md), and writes ``BENCH_<n>.json`` at the
root of ``--root``.  With ``--baseline`` (a second checkout, typically the parent
commit) the two checkouts take turns, their order swapped from seed to seed,
so that drifting machine load hits both alike.  For every checkout and
workload the file holds each end-to-end metric per seed, in seed order, with
its median and quartiles, the attempted and failed counts and whether every
run passed its checks.  Each checkout is identified by its commit (``-dirty``
for uncommitted changes) and by the git tree hash of the ``src/`` it ran, which
equals ``git rev-parse <commit>:src`` of the commit that holds that source.
The file also records ``nproc`` and the Python, numpy and scipy versions.
With ``--baseline`` it also holds, for every workload and end-to-end metric of
``BENCHMARK.json`` (read from ``--root``), in the direction its ``better``
names: in how many seeds the change beat the baseline (ties count for
neither), whether every change run beat every baseline run, and the
acceptance rules worked out: ``median_gap`` (change median minus baseline
median, positive when the change is better), ``baseline_spread`` (the
baseline's q3 - q1), ``gain_resolved`` (the change won at least 9 in 10 seeds
and ``median_gap`` exceeds ``baseline_spread``) and ``within_bound`` (the change
median is no worse than the baseline median by more than the metric's relative
``bound``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

WORKLOADS = ("fig6-glancing", "single-points", "closed-form-sweep", "converge")
SEEDS = range(1, 11)
SECONDS = 20


def run_once(root: str, workload: str, seed: int) -> dict:
    """One untraced bench run; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(root: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return proc.stdout.strip()


def identity_of(root: str) -> dict:
    """Commit of a checkout (-dirty when tracked files differ) and the tree hash of its src/."""
    # ``git stash create`` snapshots tracked files without touching the checkout
    snapshot = git(root, "stash", "create") or "HEAD"
    return {"commit": git(root, "describe", "--always", "--dirty") or None,
            "src_tree": git(root, "rev-parse", f"{snapshot}:src") or None}


def summarize(results: list[dict]) -> dict:
    """Each metric per run, in seed order, with its median and quartiles and the run counts."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                         "values": values}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": metrics,
    }


def pair_wins(change: dict, baseline: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: seeds the change won, the median gap against the
    baseline's spread, and whether a gain is resolved and the bound is kept."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        ours = [sign * v for v in change["metrics"][name]["values"]]
        theirs = [sign * v for v in baseline["metrics"][name]["values"]]
        base = baseline["metrics"][name]
        wins = sum(x > y for x, y in zip(ours, theirs))
        gap = sign * (change["metrics"][name]["median"] - base["median"])
        spread = base["q3"] - base["q1"]
        out[name] = {"better": metric["better"],
                     "wins": wins,
                     "pairs": len(ours),
                     "every_run_better": min(ours) > max(theirs),
                     "median_gap": gap,
                     "baseline_spread": spread,
                     "gain_resolved": wins >= 0.9 * len(ours) and gap > spread,
                     "within_bound": gap >= -metric["bound"] * abs(base["median"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="checkout to measure; the file goes here")
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--baseline", default=None, help="second checkout measured alongside")
    args = parser.parse_args(argv)

    trees = {"change": os.path.abspath(args.root)}
    if args.baseline:
        trees["baseline"] = os.path.abspath(args.baseline)
    results = {label: {w: [] for w in WORKLOADS} for label in trees}
    for seed in SEEDS:
        order = list(trees) if seed % 2 else list(trees)[::-1]
        for workload in WORKLOADS:
            for label in order:
                r = run_once(trees[label], workload, seed)
                results[label][workload].append(r)
                print(f"{label} {workload} seed {seed}: "
                      f"ops_per_s {r['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)

    snapshot = {
        "pr": args.pr,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {SECONDS} "
                   "--trace 0",
        "seeds": list(SEEDS),
        "runs": {
            label: {**identity_of(root),
                    "workloads": {w: summarize(rs) for w, rs in results[label].items()}}
            for label, root in trees.items()
        },
    }
    if args.baseline:
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            end_to_end = json.load(f)["end_to_end"]
        runs = snapshot["runs"]
        snapshot["pair_wins"] = {
            w: pair_wins(runs["change"]["workloads"][w], runs["baseline"]["workloads"][w], end_to_end)
            for w in WORKLOADS
        }
    path = os.path.join(trees["change"], f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
