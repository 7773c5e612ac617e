#!/usr/bin/env python3
"""Builds the benchmark from the checkout and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles ../src) in
Release mode into $CARGO_TARGET_DIR (default .bench_build); later runs reuse
the build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every file the run writes stays in the working
directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    scratch = os.path.abspath(".bench_work")
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    binary = os.path.join(build_dir, "perfbench")
    done = subprocess.run([binary] + sys.argv[1:], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
