#!/usr/bin/env python3
"""Exact-repeat, seed and span-export check of the benchmark driver.

    python3 perfbench/tests/repeat_check.py .bench_build/perfbench_driver

For every workload, two processes with the same seed must print the same
virtual-time metrics and per-layer counts, bit for bit (host-clock metrics
are left out). On kv48 another seed must change the generated arrivals,
and the seed must be recorded in the output. Every traced run must leave
a Chrome-trace JSON file whose spans carry both clocks.
"""
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["paper24", "kv48", "scale256"]
HOST_UNITS = {"s", "ns", "MB", "%"}  # host clock, or derived from it


def run(driver, out_dir, workload, seed, trace):
    done = subprocess.run(
        [driver, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--out", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        raise SystemExit("%s seed %d trace %d: exit %d" %
                         (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: outputs failed their checks" %
                         (workload, seed))
    return lines, result


def exact(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in HOST_UNITS or name == "table1_err_pct"}


def check_trace_file(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        raise SystemExit("%s: no spans" % path)
    keys = {"parent", "core", "host_start_us", "host_end_us",
            "virt_start_us", "virt_end_us"}
    for e in spans:
        if not keys <= set(e["args"]):
            raise SystemExit("%s: span without both clocks: %s" % (path, e))


def main():
    driver = os.path.abspath(sys.argv[1])
    failures = 0
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, a = run(driver, out_dir, workload, 7, trace)
                _, b = run(driver, out_dir, workload, 7, trace)
                ea, eb = exact(a), exact(b)
                diff = sorted(k for k in ea if ea[k] != eb.get(k))
                if diff or a["attempted"] != b["attempted"]:
                    print("FAIL %s trace %d: not repeatable: %s" %
                          (workload, trace, diff))
                    failures += 1
            check_trace_file(os.path.join(out_dir,
                                          "%s-seed7.trace.json" % workload))

        lines7, s7 = run(driver, out_dir, "kv48", 7, 1)
        lines8, s8 = run(driver, out_dir, "kv48", 8, 1)
        if "seed: 7" not in lines7 or "seed: 8" not in lines8:
            print("FAIL kv48: seed not recorded in the output")
            failures += 1
        if (s7["metrics"]["serve.issued"]["value"] ==
                s8["metrics"]["serve.issued"]["value"]):
            print("FAIL kv48: --seed does not change the arrivals")
            failures += 1

    print("%s: %d failure(s)" % ("PASS" if failures == 0 else "FAIL",
                                 failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
