#!/usr/bin/env python3
"""Tiny-size self-test of the outside-in benchmark.

    python3 e2ebench/selftest.py

Runs every workload listed in BENCHMARK.json at --size tiny for one
second, untraced and traced, and checks each result line: exactly the
keys correct/attempted/failed/metrics, exactly the metric names
BENCHMARK.json lists for that mode, and no failed request. In the traced
runs a request whose per-layer composition is not bitwise equal to the
engine's result counts as failed, so a pass also proves that check.
Exits 0 when everything passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT)
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}\n"
                                f"{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
                continue
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(
                    f"{label}: missing {sorted(expected[trace] - names)}, "
                    f"unexpected {sorted(names - expected[trace])}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(
                    f"{label}: correct={result['correct']} "
                    f"attempted={result['attempted']} "
                    f"failed={result['failed']}")
            print(f"{label}: {result['attempted']} requests, "
                  f"{len(names)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
