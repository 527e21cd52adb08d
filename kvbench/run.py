#!/usr/bin/env python3
"""Build and run the KV node's benchmark.

Run from the repository root:

  python3 kvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 kvbench/run.py --self-test

The first form builds kvbench/ against include/ into .bench_build/kvbench
(incrementally after the first time), runs one workload and passes its
output through; the last line is the JSON result. The exit code is the
benchmark's: non-zero when a check failed or an operation failed.

--self-test runs every workload with one value or acknowledgement
corrupted inside the harness and fails unless each workload reports
failures and exits non-zero.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kvbench")
BINARY = os.path.join(BUILD, "kvbench")
WORKLOADS = ["table_read", "table_churn", "kv_mem", "kv_durable"]
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "include", "dlht", "dlht.hpp")):
        sys.exit("kvbench: include/dlht/dlht.hpp not found; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("kvbench: cmake configure failed")
    done = subprocess.run(["cmake", "--build", BUILD, "-j", "3"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("kvbench: build failed")


def run(workload, seed, seconds, trace, corrupt=False, capture=False):
    """Run one workload; returns (exit code, stdout text or None)."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corrupt", "1" if corrupt else "0", "--tmp", BUILD,
           "--trace-out", os.path.join(traces, f"{workload}.spans.csv")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"kvbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    return done.returncode, done.stdout


def self_test():
    ok = True
    for w in WORKLOADS:
        code, out = run(w, 1, 1, 0, corrupt=True, capture=True)
        last = json.loads(out.strip().splitlines()[-1]) if out and out.strip() else {}
        caught = code != 0 and last.get("failed", 0) > 0 and last.get("correct") is False
        print(f"self-test {w}: exit {code}, failed {last.get('failed')}, "
              f"correct {last.get('correct')} -> {'caught' if caught else 'MISSED'}")
        ok &= caught
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    if a.self_test:
        return self_test()
    code, _ = run(a.workload, a.seed, a.seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
