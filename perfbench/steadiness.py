#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--markdown FILE]
                                    [--save FILE] [--compare FILE]

Runs perfbench/run.py once per seed and workload (each run measures
BENCHMARK.json's run_seconds), then prints for every end-to-end metric
its median, the quartile spread (q3 - q1) / median from
statistics.quantiles(values, n=4), the metric's bound and the target of
a third of the bound. --save writes the medians as JSON; --compare reads
such a file from an earlier set and adds each median's relative
difference |this - earlier| / earlier, in either direction. Exits 1 when
a run fails, reports a wrong answer or a failed op, a spread exceeds its
bound, or a compared median differs by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--markdown", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    ok = True
    rows = []
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()),
                file=sys.stderr, flush=True)
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            before = earlier.get(workload, {}).get(metric["name"])
            moved = None if before is None else abs(median - before) / before
            if spread > bound or (moved is not None and moved > bound):
                ok = False
            rows.append((workload, metric["name"], metric["unit"], median,
                         spread, bound, moved))
    header = "| workload | metric | median | spread | bound | < bound/3 |"
    rule = "|---|---|---|---|---|---|"
    if args.compare:
        header += " vs earlier set |"
        rule += "---|"
    lines = [header, rule]
    medians = {}
    for workload, name, unit, median, spread, bound, moved in rows:
        medians.setdefault(workload, {})[name] = median
        line = (f"| {workload} | {name} | {median:.6g} {unit} | "
                f"{spread:.3f} | {bound} | "
                f"{'yes' if spread < bound / 3 else 'no'} |")
        if args.compare:
            line += " n/a |" if moved is None else f" {moved:.3f} |"
        lines.append(line)
    print("\n".join(lines))
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("\n".join(lines) + "\n")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
