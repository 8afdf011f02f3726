#!/usr/bin/env python3
"""Compares two checkouts on the benchmark: parent against change.

    python3 pioqo_bench/compare.py --parent DIR --change DIR \
        [--workloads a,b] [--runs 10] [--seconds S] [--trace 0|1] [--seed 1]

Each checkout is a repository root holding BENCHMARK.json and this
directory. For every workload the tool runs `--runs` pairs; pair i runs
both sides with seed `--seed + i`, alternating which side goes first.

Per workload and metric, one row each, it prints both sides' quartiles, the
median per-pair change (change - parent) / parent, signed so that positive
is worse, the share of pairs the change won (ties count for neither) and a
verdict:

  improved    the change won >= 90% of pairs and the medians differ by more
              than the parent's quartile spread (q3 - q1)
  regressed   the median per-pair change is worse than the metric's bound
  unresolved  the per-pair changes spread (q3 - q1) wider than the bound, so
              a regression of that size could not be seen, and not every
              change run beat every parent run
  unchanged   none of the above

The bound is judged on per-pair changes because both sides of a pair replay
the same inputs: for simulated-clock metrics and counts the per-pair change
of unchanged code is exactly 0, so a 2% bound holds them to 2% however much
they move from seed to seed; for host-clock metrics the spread of the
per-pair changes is the noise of the comparison. Bounds and directions come
from the parent's BENCHMARK.json. Per-layer metrics (--trace 1) have no
bound: for them, regressed mirrors improved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(root) / "pioqo_bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {root}: {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"oracle failed in {root}: {workload} seed {seed}")
    return result


def collect(args):
    runs = {}
    for workload in args.workloads:
        pairs = []
        for i in range(args.runs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed}
            for side in order:
                root = args.parent if side == "parent" else args.change
                pair[side] = run_once(root, workload, seed, args.seconds,
                                      args.trace)
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
            pairs.append(pair)
        runs[workload] = pairs
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_share(parent, change, better):
    """Per-pair change as a share of the parent's value; positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    if parent == change:
        return 0.0
    if parent == 0:
        return sign * (1.0 if change > parent else -1.0)
    return sign * (change - parent) / abs(parent)


def verdict(parent, change, worse, wins, losses, better, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    moved = abs(c_med - p_med) > p_q3 - p_q1
    if wins >= 0.9 and moved:
        return "improved"
    if bound is None:
        return "regressed" if losses >= 0.9 and moved else "unchanged"
    q1, median, q3 = quartiles(worse)
    if q3 - q1 > bound:
        beats_all = all((c < p) if better == "lower" else (c > p)
                        for c in change for p in parent)
        return "unchanged" if beats_all else "unresolved"
    return "regressed" if median > bound else "unchanged"


def report(runs, spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    header = (f"{'workload':16s} {'metric':34s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'change':>8s} {'wins':>5s}  verdict")
    print(header)
    print("-" * len(header))
    for workload, pairs in runs.items():
        for m in metrics:
            name = m["name"]
            if name not in pairs[0]["parent"]["metrics"]:
                continue
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            worse = [worse_share(p, c, m["better"])
                     for p, c in zip(parent, change)]
            wins = sum(w < 0 for w in worse) / len(pairs)
            losses = sum(w > 0 for w in worse) / len(pairs)
            v = verdict(parent, change, worse, wins, losses, m["better"],
                        m.get("bound"))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:16s} {name:34s} {fmt(quartiles(parent)):>30s} "
                  f"{fmt(quartiles(change)):>30s} "
                  f"{statistics.median(worse):+8.2%} {wins:5.2f}  {v}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(Path(args.parent) / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    report(collect(args), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
