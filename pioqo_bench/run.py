#!/usr/bin/env python3
"""Builds pioqo_bench from this checkout and runs one workload.

    python3 pioqo_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pioqo_bench/run.py --smoke [--driver PATH]

The engine and the driver are built from source (Release, simulator
invariant checker off) into .bench_build/ at the repository root; the first
run builds, later runs reuse the build. --driver runs an already built
driver instead. The driver's report goes to stdout, followed by one JSON
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists;
with --trace 1 they are its per-layer metrics, from a traced run that also
writes a Chrome trace to .bench_build/out/. The exit code is 0 only when the
run completed and every correctness oracle passed.

--smoke runs every workload at 2% of its window size with tracing on and
checks that the driver reports every metric BENCHMARK.json names.
"""

import argparse
import fcntl
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "pioqo_bench"
OUT_DIR = ROOT / ".bench_build" / "out"
# The driver's own run stays well under this; it only guards a hang.
DRIVER_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def run_driver(driver, workload, seed, seconds, trace, scale=1.0):
    """Runs the driver once; returns (exit code, parsed JSON or None)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    json_path = OUT_DIR / f"{tag}.json"
    json_path.unlink(missing_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale),
           "--json", str(json_path)]
    if trace:
        cmd += ["--trace", str(OUT_DIR / f"{tag}.trace.json"), "--layers"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pioqo_bench timed out after {DRIVER_TIMEOUT_S}s",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    result = None
    if json_path.exists():
        with open(json_path) as f:
            result = json.load(f)
    return proc.returncode, result


def select_metrics(result, wanted):
    """The `wanted` metrics from the driver's output, or None if any is
    missing or carries another unit."""
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            return None
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def smoke(spec, driver):
    ok = True
    names = [w["name"] for w in spec["workloads"]]
    wanted = spec["end_to_end"] + spec["per_layer"]
    for workload in names:
        code, result = run_driver(driver, workload, 42, 0, True, scale=0.02)
        good = code == 0 and result is not None and result["correct"]
        good = good and select_metrics(result, wanted) is not None
        print(f"smoke {workload}: {'ok' if good else 'FAILED'}")
        ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--driver", type=Path)
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    driver = args.driver
    if driver is None:
        if not build():
            print("pioqo_bench build failed", file=sys.stderr)
            return 1
        driver = BUILD_DIR / "pioqo_bench"
    if args.smoke:
        return smoke(spec, driver)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    code, result = run_driver(driver, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if result is None:
        return 1
    metrics = select_metrics(
        result, spec["per_layer"] if args.trace else spec["end_to_end"])
    if metrics is None:
        return 1
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
