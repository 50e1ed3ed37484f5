#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (small inputs, short loops).

    python3 perfbench/selftest.py

For every workload: both invocations print exactly the metrics
BENCHMARK.json names, with their units; every answer matched its oracle
(correct, nothing failed); end-to-end values are positive; two runs of
one seed print identical exact counts, and the traced run repeats them.
Finally, a copy holding only BENCHMARK.json and perfbench/ must fail
cleanly: it has no sources to build.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def parse(workload, seed, trace, expected):
    code, lines = run(workload, seed, trace)
    where = "%s seed=%d trace=%d" % (workload, seed, trace)
    if code != 0 or not lines:
        raise AssertionError("%s: exit %d" % (where, code))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError("%s: not correct: %s" % (
            where, [l for l in lines if l.startswith("problem ")]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError("%s: attempted %r" % (where, result["attempted"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError("%s: metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(metrics) ^ set(expected))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise AssertionError("%s: %s is %r" % (where, name, m))
        if not isinstance(m["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (where, name))
    counts = json.loads(next(l for l in lines if l.startswith("counts "))[7:])
    return metrics, counts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        first, counts = parse(w, 7, 0, e2e)
        for name, m in first.items():
            if m["value"] <= 0:
                raise AssertionError("%s: %s is not positive" % (w, name))
        _, again = parse(w, 7, 0, e2e)
        if not counts or counts != again:
            raise AssertionError("%s: exact counts did not repeat:\n%s\n%s" %
                                 (w, counts, again))
        _, traced = parse(w, 7, 1, layers)
        if any(traced.get(k) != v for k, v in counts.items()):
            raise AssertionError("%s: the traced run changed the counts" % w)
        print("selftest: %s ok (%d exact counts)" % (w, len(counts)))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(spec["workloads"][0]["name"], 7, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        raise AssertionError("a checkout without sources did not fail cleanly")
    print("selftest: sourceless checkout fails cleanly (exit %d)" % code)
    print("selftest: ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest: FAILED: %s" % e)
        sys.exit(1)
