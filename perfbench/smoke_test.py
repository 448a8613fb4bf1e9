#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage (from the root of a checkout):

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for a tiny run length, untraced
and traced, and checks that the last stdout line is the result object,
that every end-to-end (untraced) or per-layer (traced) metric is present
with its unit and printed with at least one sample (a per-layer metric of
a layer the workload never reaches must say so instead), that no op
failed and every answer was right, and that the human-readable lines
report error_rate = 0. A run still completes one whole pass of its
workload, so the test takes about two minutes.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(workload, trace, expected):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    problems = []
    if out.returncode != 0 or not lines:
        return [f"exit code {out.returncode}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']}")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"missing {metric['name']}")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} unit {got.get('unit')}")
        else:
            printed = [line for line in lines if line.startswith(
                f"{workload}  {metric['name']} = ")]
            samples = [re.search(r" (\S+)  \((?:samples=(\d+)|(not "
                                 r"reached by this workload))", line)
                       for line in printed]
            if len(printed) != 1 or samples[0] is None or (
                    samples[0].group(1) != metric["unit"]):
                problems.append(f"{metric['name']} not printed with its unit")
            elif samples[0].group(3) and not trace:
                problems.append(f"{metric['name']} not reached")
            elif samples[0].group(2) == "0":
                problems.append(f"{metric['name']} has no samples")
    if sorted(result["metrics"]) != sorted(m["name"] for m in expected):
        problems.append("unexpected metrics")
    if not any(line.startswith(f"{workload}  error_rate = 0  ")
               for line in lines):
        problems.append("error_rate is not 0")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            problems = check(workload, trace, expected)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
