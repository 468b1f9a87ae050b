#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json ten times per workload, each with another
seed, and prints for each metric the distance between the first and third
quartile of the ten values as a share of their median, next to the metric's
bound. Usage, from the repository root:

    python3 benchmark/spread.py [first_seed] [runs] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time

bench = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
only = sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for workload in (w["name"] for w in bench["workloads"]):
    if only and workload not in only:
        continue
    values = {name: [] for name in bounds}
    failed, took = [], []
    for seed in range(first, first + runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        started = time.time()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        took.append(time.time() - started)
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"], (workload, seed)
        failed.append(result["failed"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"{workload}: {runs} seeds from {first}, {max(took):.1f} s longest run, "
          f"failed ops per run {failed}")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"  {name:<16} median {med:>12.5f}  spread {spread:7.4f}  bound {bounds[name]:.3f}{flag}")
