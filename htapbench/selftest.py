#!/usr/bin/env python3
"""Self-check of the benchmark: a tiny run of every workload, untraced and
traced, through run.py. From the root of a checkout:

    python3 htapbench/selftest.py

Asserts that every metric BENCHMARK.json names prints with its unit, and that
the zero and non-zero predictions in htapbench/spec.json hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s --trace %d exited %d" % (workload, trace, done.returncode))
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    failures = []
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
            result = run(w, trace)
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append("%s: attempted %d failed %d" % (w, result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for m in bench[section]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append("%s: %s missing or not in %s" % (w, m["name"], m["unit"]))
                    continue
                if section == "end_to_end":
                    if got["value"] <= 0:
                        failures.append("%s: %s = %r, never 0 by design" % (w, m["name"], got["value"]))
                    continue
                rule = spec["per_layer"][m["name"]]
                if w in rule.get("zero_on", []) and got["value"] != 0:
                    failures.append("%s: %s = %r, predicted 0" % (w, m["name"], got["value"]))
                if w in rule.get("nonzero_on", []) and got["value"] == 0:
                    failures.append("%s: %s = 0, predicted non-zero" % (w, m["name"]))
            print("selftest: %s --trace %d checked" % (w, trace), flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
