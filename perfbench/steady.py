#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs each workload N times with a different --seed each time, in K sets
on fresh seeds (default 2, the two sets the acceptance check compares),
then prints for every end-to-end metric its median and its quartile
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. Run from the
repository root:

    python3 perfbench/steady.py --runs 10

Fails (exit 1) when a run fails its checks, when a spread exceeds a third
of the metric's bound in BENCHMARK.json (so also whenever it exceeds a
tenth), or when a later set's median is worse than the first set's by
more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ok = True
    for workload in names:
        medians = []  # per set: {metric: median}
        for k in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                out = run_once(bench["command"], workload, seed, seconds)
                if out is None or not out.get("correct"):
                    print("FAIL %s seed %d: run failed" % (workload, seed))
                    ok = False
                    continue
                for name in values:
                    values[name].append(out["metrics"][name]["value"])
            print("%s, set %d (%d runs):" % (workload, k + 1, args.runs))
            print("  %-16s %16s %9s %7s" % ("metric", "median", "spread",
                                            "bound"))
            medians.append({})
            for m in bench["end_to_end"]:
                vals = values[m["name"]]
                if len(vals) < 2:
                    ok = False
                    continue
                med, sp = spread(vals)
                medians[-1][m["name"]] = med
                flag = ""
                if sp > m["bound"] / 3:
                    flag = "  FAIL: spread above a third of the bound"
                    ok = False
                if k > 0 and m["name"] in medians[0]:
                    w = worse_by(m, medians[0][m["name"]], med)
                    if w > m["bound"]:
                        flag += "  FAIL: %.1f%% worse than set 1" % (100 * w)
                        ok = False
                print("  %-16s %16.6g %8.2f%% %6.0f%%%s" %
                      (m["name"], med, 100 * sp, 100 * m["bound"], flag))
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
