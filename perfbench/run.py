#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30
    python3 perfbench/run.py --selftest

--all runs every workload untraced and then traced, one after another.

The build (the project's libraries from src/ plus the binaries in perfbench/)
goes to .bench_build/ under the repository root, as a CMake Release build.
Build output goes to standard error; standard output carries the benchmark's
report, whose last line is one JSON object.  The exit code is the benchmark's:
0 when every output was correct, 1 when one was wrong; 2 when the build or
the arguments fail, in which case no JSON is printed.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WAL_ROOT = ROOT / ".bench_build" / "wal"
# Compilers and the benchmark keep their temporary files inside the checkout.
TMP = ROOT / ".bench_build" / "tmp"


def build() -> bool:
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            print(f"perfbench: {tool} not found", file=sys.stderr)
            return False
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["pingpong", "internet", "recovery"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 0 and then --trace 1")
    parser.add_argument("--selftest", action="store_true",
                        help="run the checks' self-test instead of a workload")
    args = parser.parse_args()
    if not (args.selftest or args.all) and args.workload is None:
        parser.error("--workload is required")
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        commands = [[str(BUILD / "perfbench_selftest"), "--wal-root", str(WAL_ROOT)]]
    else:
        runs = ([(w, t) for w in ("pingpong", "internet", "recovery") for t in (0, 1)]
                if args.all else [(args.workload, args.trace)])
        commands = [[str(BUILD / "perfbench"), "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace), "--wal-root", str(WAL_ROOT)]
                    for workload, trace in runs]
    sys.stdout.flush()
    status = 0
    try:
        for command in commands:
            code = subprocess.run(command).returncode
            if code != 0 and status == 0:
                status = code if code > 0 else 1  # Negative: killed by a signal.
    finally:
        shutil.rmtree(WAL_ROOT, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
