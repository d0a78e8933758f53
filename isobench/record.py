#!/usr/bin/env python3
"""Run the benchmark several times per workload and record the spread.

Usage, from the repository root:

    python3 isobench/record.py [--runs 10] [--seed-base 1]
                               [--workloads a,b] [--trace 0|1] [--out FILE]

Each run is `python3 isobench/run.py --workload W --seed S --seconds
<run_seconds> --trace T` with seeds seed-base, seed-base + 1, ... For every
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. With --out it also writes
every run's values and that summary as JSON, the form the committed
records under isobench/record/ take.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def summarize(runs, names, bounds):
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else (values[0],) * 3)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name)}
    return summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metrics]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "machine": {"cpus": os.cpu_count(),
                          "processor": platform.processor() or
                          platform.machine()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed_base + i,
                                 spec["run_seconds"], args.trace))
            print(f"  {workload} seed {runs[-1]['seed']}: "
                  f"{runs[-1]['wall_s']:.1f} s, correct={runs[-1]['correct']}",
                  file=sys.stderr)
        summary = summarize(runs, names, bounds)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"{workload} ({len(runs)} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}; all correct: "
              f"{all(r['correct'] for r in runs)})")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:32s} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f} {bound:>6s}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
