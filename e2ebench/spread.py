#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 e2ebench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
        [--trace 0] [--save FILE]
    python3 e2ebench/spread.py --load FILE

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median
(`statistics.quantiles(values, n=4)`), next to the metric's `bound` in
BENCHMARK.json. A spread above a third of the bound is flagged `!`, above the
bound `!!`. `--save` writes the raw result lines (one JSON object per run,
tagged with workload and seed) so `--load` can re-analyse them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    if out.returncode != 0:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("wrong outputs: %s seed %d" % (workload, seed))
    return result


def report(rows, bench, trace):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    for workload in sorted({r["workload"] for r in rows}):
        runs = [r for r in rows if r["workload"] == workload]
        print("%s (%d runs)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if bound is not None:
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print("  %-24s median %-14.6g spread %6.3f  bound %-5s %s"
                  % (name, median, spread, bound, flag))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--load")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.load:
        with open(args.load) as f:
            rows = [json.loads(line) for line in f if line.strip()]
    else:
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
        rows = []
        for workload in names:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                row = run(workload, seed, bench["run_seconds"], args.trace)
                row.update(workload=workload, seed=seed)
                rows.append(row)
                if args.save:
                    with open(args.save, "a") as f:
                        f.write(json.dumps(row) + "\n")
    report(rows, bench, args.trace)


if __name__ == "__main__":
    main()
