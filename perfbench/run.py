#!/usr/bin/env python3
"""Builds and runs the progressive-index benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. Builds the library and the benchmark
program from source into .bench_build/ (incremental after the first
run), runs one workload and relays its output; the last stdout line is
the result JSON.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("explore_uniform", "explore_skyserver", "serve_mixed_durable")
# Thread-pool lanes, pinned rather than taken from the host's core count.
# One lane: on the 4-vCPU VM this benchmark was built on, 2- and 4-lane
# runs were no faster and several times noisier (perfbench/README.md).
LANES = 1


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    jobs = str(os.cpu_count() or 2)
    for attempt in range(2):
        ok = True
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            ok = subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(
                ["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs],
                stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            return os.path.join(BUILD, "perfbench")
        if attempt == 0 and os.path.isdir(BUILD):
            shutil.rmtree(BUILD)  # a stale cache from another checkout
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for perfbench/selftest.py")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("PROGIDX_")}
    env["PROGIDX_THREADS"] = str(LANES)
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    # A terminated wrapper must not leave the benchmark program running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        # A safety net only, with room for a run several times slower
        # than usual: a slow run must still print its result.
        out, _ = proc.communicate(timeout=120 + 10 * args.seconds)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
