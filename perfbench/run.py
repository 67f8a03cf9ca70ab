#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the mbts_e2e runner as a Release build
from this checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload, and re-prints the runner's one-line JSON result as the
last line of stdout. Build logs and diagnostics go to stderr. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "batch_overload")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds mbts_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; nothing to measure")
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "mbts_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    binary = os.path.join(build_dir, "mbts_e2e")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"runner failed: {err}")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"runner exited {done.returncode} without a result")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        log(f"runner printed no JSON result: {err}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
