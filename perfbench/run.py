#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload launch_deck|tune_sweep|serve_mix \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every run configures and builds the
simulator libraries and the perfbench binary (Release) into .bench_build/;
after the first run that rebuilds only what changed.  Build output goes to
stderr; the binary's stdout passes through unchanged, so its last line is
the JSON result: {"correct", "attempted", "failed", "metrics"}.
--seconds defaults to BENCHMARK.json's run_seconds.  --trace 1 measures
every workload's layers whichever --workload is named.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"  # relative to ROOT
# serve_mix runs but is not one of BENCHMARK.json's gated workloads
# (see README.md).
WORKLOADS = ("launch_deck", "tune_sweep", "serve_mix")
# Time a run may take beyond --seconds: up to 15 set-ups, the host probes
# and the checks.
RUN_ALLOWANCE_S = 60


def run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=850)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds is None:
        a.seconds = run_seconds()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--scratch-dir", str(BUILD)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=a.seconds + RUN_ALLOWANCE_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
