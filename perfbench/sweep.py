#!/usr/bin/env python3
"""Runs the benchmark once per seed and workload and prints each metric's
median, quartiles and spread (quartile distance / median).

    python3 perfbench/sweep.py [--workload NAME] --seeds 1001-1010 [--seconds 25] [--trace 0]

Run from the repo root. Without --workload every workload in BENCHMARK.json
runs, and --seconds defaults to its run_seconds. A run that is not correct or
exits non-zero is reported and left out of the statistics.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--offline", "--release", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or str(bench["run_seconds"])
    for workload in workloads:
        report(workload, args.seeds, seconds, args.trace)


def report(workload, seeds, seconds, trace):
    values = {}
    units = {}
    for seed in seeds:
        proc = subprocess.run(
            COMMAND + ["--workload", workload, "--seed", str(seed),
                       "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if not result or not result["correct"]:
            print(f"{workload} seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            continue
        print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{workload} {name:36s} {units[name]:8s} n={len(vals):2d} median={med:.6g} "
              f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")


if __name__ == "__main__":
    main()
