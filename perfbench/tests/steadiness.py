#!/usr/bin/env python3
"""Steadiness self-test for the benchmark.

Runs each workload --runs times, each with another seed, and prints every
end-to-end metric's median, first and third quartile and spread — the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them. Fails (exit 1) when a run is
incorrect or reports failed units, when the first seed run twice prints
different artefact digests, or when a metric spreads wider than its bound
in BENCHMARK.json.

    python3 perfbench/tests/steadiness.py [--runs 10] [--workloads scan,serve]
        [--seconds S] [--first-seed 1]

Run from the root of a checkout; it calls perfbench/run.py like any other
user of the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds):
    """Runs one workload; returns (result JSON, artefact digest)."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    output = subprocess.run(command, cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    lines = output.strip().splitlines()
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("# digest ")), None)
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    problems = []
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        digests = {}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds + [args.first_seed]:
            result, digest = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                problems.append("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
            if seed in digests:
                if digests[seed] != digest:
                    problems.append("%s seed %d: digest %s then %s" % (
                        workload, seed, digests[seed], digest))
                continue
            digests[seed] = digest
            for name, value in values.items():
                value.append(result["metrics"][name]["value"])
            print("# %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
        print("%-8s %-18s %14s %14s %14s %8s %7s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            print("%-8s %-18s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%" % (
                workload, name, q2, q1, q3, 100 * spread, 100 * bound),
                flush=True)
            if spread > bound:
                problems.append("%s %s: spread %.3f exceeds bound %.3f" % (
                    workload, name, spread, bound))
    for problem in problems:
        print("FAIL: " + problem)
    print("steadiness: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
