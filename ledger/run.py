#!/usr/bin/env python3
"""Build the performance ledger from source and run one workload.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The ledger (ledger/CMakeLists.txt:
the sunfloor library from src/ plus ledger_bench) is configured and
built, Release, under .bench_build/ledger; later runs rebuild only what
changed. Build output goes to stderr. ledger_bench then runs the workload
from the tree's root and its standard output is passed through: a JSON
report line with the context stamp, then the result line, last.

Exits non-zero, printing no result, when the tree cannot be built or the
run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "ledger")
WORK_DIR = os.path.join(BUILD_DIR, "work")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build ledger_bench; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ledger_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not build():
        print("ledger: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD_DIR, "ledger_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("ledger: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
