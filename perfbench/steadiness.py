#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, the input for its bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
        [--seconds S] [--trace 0|1] [--first-seed 1]

Runs every workload --runs times, alternating workload order between
rounds, each run with another seed; then prints, per workload and
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median beside the bound BENCHMARK.json allows.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    counts = next((l for l in lines if l.startswith("counts ")), "")
    return json.loads(lines[-1]), "host_probe_gbps=%s %s" % (
        meta.get("host_probe_gbps"), counts)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, counts = run_once(w, args.first_seed + r, args.seconds,
                                      args.trace)
            ok = result["correct"] and result["failed"] == 0
            print("run %d %s seed=%d correct=%s attempted=%d failed=%d %s" %
                  (r, w, args.first_seed + r, ok, result["attempted"],
                   result["failed"], counts), flush=True)
            print("  " + " ".join("%s=%.6g" % (k, m["value"]) for k, m in
                                  result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    worst = {}
    for w in workloads:
        print("\n%s" % w)
        print("%-34s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            worst[name] = max(worst.get(name, 0.0), spread)
            print("%-34s %14.6g %14.6g %14.6g %8.4f %6s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound))
    if args.trace == 0:
        print("\nworst spread / bound:")
        for name, spread in worst.items():
            bound = bounds.get(name)
            if bound:
                print("  %-20s %.4f / %.2f  (%s a third)" %
                      (name, spread, bound,
                       "within" if spread < bound / 3 else "NOT within"))


if __name__ == "__main__":
    main()
