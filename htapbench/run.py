#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 htapbench/run.py --workload tpcb|ch_olap|ch_htap --seed N \
        --seconds S --trace 0|1

Configures and builds htapbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/htapbench, default .bench_build/htapbench, runs one
workload, and passes its output through. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. A failed build,
run or correctness check exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no src/ in %s: the benchmark builds the library from source" % root)
        return None
    binary = os.path.join(build_dir, "htapbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "htapbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build failed: %s" % " ".join(cmd))
            return None
    return binary


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this mode, when it is present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["tpcb", "ch_olap", "ch_htap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="a few operations, for the self-check")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "htapbench")
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)
    if binary is None:
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", trace_dir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark failed with exit code %d" % done.returncode)
        return 1

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
        log("malformed result: %s" % lines[-1])
        return 1
    want = expected_metrics(root, args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            log("metrics differ from BENCHMARK.json: got %s, want %s" % (got, want))
            return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
