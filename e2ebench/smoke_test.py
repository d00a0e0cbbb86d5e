#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size (`--smoke`, one
second) with tracing off and on, and checks that each run exits 0, that its
last line is a result object with exactly the expected keys, that every
output was correct, and that every end-to-end (trace 0) or per-layer
(trace 1) metric named in BENCHMARK.json appears with its unit. Takes about
a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    problems = []
    if out.returncode != 0:
        return ["exit status %d" % out.returncode]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("outputs not all correct: %s failed" % result.get("failed"))
    if not result.get("attempted", 0) >= 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("missing %s" % metric["name"])
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("%s reported as %s" % (metric["name"], got))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, bench[kind])
            print("%-10s trace %d: %s" % (workload, trace, "; ".join(problems) or "ok"))
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
