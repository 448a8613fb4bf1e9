#!/usr/bin/env python3
"""Build the benchmark program from the checkout's sources and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grounded_count --seed 1 \
        --seconds 20 --trace 0

Arguments are passed to the program unchanged; see perfbench/README.md.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Exits non-zero without a result when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "2"  # the host is shared; a cold build takes ~3 minutes


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    program = os.path.join(build_dir, "perfbench")
    steps = []
    # No Makefile means no configure has succeeded yet.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    run = subprocess.run(
        [program, "--data", os.path.join(HERE, "data"),
         "--trace-dir", os.path.join(build_dir, "traces")]
        + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
