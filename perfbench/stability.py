#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median.

Run from the repository root:

    python3 perfbench/stability.py --seeds 1,2,3,4,5 --workloads serve-hot
    python3 perfbench/stability.py --seeds 11-20 --runs-json runs.json

A spread is marked ok when it is below a third of the metric's bound
in BENCHMARK.json (setup_s is shown but not held to it). Every run's
last stdout line must be a correct result; a failed run stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs-json", default="", help="also write every run's result here")
    ap.add_argument("--binary", default="",
                    help="run this prebuilt perfbench binary instead of the BENCHMARK.json command")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command = [args.binary] if args.binary else bench["command"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    ok_all = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(command, workload, seed, bench["run_seconds"], 0)
            walls.append(wall)
            runs.setdefault(workload, []).append({"seed": seed, "wall_s": wall, **result})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"  seed {seed}: {shown}", flush=True)
        print(f"{workload}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            held = name == "setup_s" or spread < limit
            ok_all &= held
            print(f"  {name:16s} median {med:14.4f}  spread {spread:6.3f}  "
                  f"(bound/3 {limit:.3f}) {'ok' if held else 'WIDE'}", flush=True)
    if args.runs_json:
        with open(args.runs_json, "w", encoding="utf-8") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
