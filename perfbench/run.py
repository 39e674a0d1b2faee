#!/usr/bin/env python3
"""Benchmark entry point.

Builds the simulator and the benchmark driver from source (incrementally,
into .bench_build/ at the repository root), then runs one workload:

    python3 perfbench/run.py --workload paper24 --seed 1 --seconds 20 --trace 0

Every argument goes to the driver unchanged; see perfbench/README.md for
the workloads and metrics. The last line of standard output is the
driver's JSON result. Build output goes to standard error. Exits non-zero,
without a result, when the build fails or the driver does not finish in
time; otherwise with the driver's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    try:
        build()
        done = subprocess.run([DRIVER] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.exit("perfbench: timed out: %s" % e)
    except OSError as e:
        sys.exit("perfbench: cannot run: %s" % e)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
