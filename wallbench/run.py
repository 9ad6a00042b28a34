#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 wallbench/run.py --workload exec-smallbank-hot --seed 1 \
        --seconds 10 --trace 0
    python3 wallbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build); spans files of
traced runs go to .bench_out/. Build output is sent to stderr, so the last
line on stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, required)):
            sys.stderr.write(
                "wallbench: %s not found; run from the root of a thunderbolt "
                "checkout\n" % required)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "wallbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("wallbench: build step failed: %s\n" %
                             " ".join(step))
            return 3
    binary = os.path.join(build_dir, "wallbench")
    done = subprocess.run([binary] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
