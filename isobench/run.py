#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the repository root:

    python3 isobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is configured and built (Release) under the build directory,
$CARGO_TARGET_DIR when set, else .bench_build, on first use. The harness's
output is passed through; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. That line is printed only
when its metric names are exactly the ones BENCHMARK.json lists for the
mode (end_to_end with --trace 0, per_layer with --trace 1); otherwise the
script exits non-zero without a result. A traced run also writes its spans
to <build dir>/spans/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"isobench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Iso-Map sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "isobench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "isobench"


def main():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    exe = build(out_root / "isobench")
    spans_dir = out_root / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--spans-out",
               str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"harness exited with code {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(expected):
        got = set(result.get("metrics", {}))
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - got)}, extra {sorted(got - set(expected))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
