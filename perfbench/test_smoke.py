#!/usr/bin/env python3
"""Smoke test for perfbench.

Runs every workload (the gated ones and serve_mix) briefly on the default
seed and on one other seed, and one short traced run.  Asserts that the
last line is the result object, that every metric BENCHMARK.json names
prints with its unit, that no op failed, and that the traced run's
decomposition self-check holds on every launch_deck entry.  Run from the
repository root:

    python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "2"
# Long enough for the per-entry split residuals to settle (a third of it
# goes to launch_deck's layers).
TRACE_SECONDS = "9"
DEFAULT_SEED, OTHER_SEED = "1", "7"
SPLIT_PREFIX = "launch_deck.cudalite.split_residual_pct."
SPLIT_LIMIT_PCT = 10


def run(workload, seed, trace):
    seconds = TRACE_SECONDS if trace else SECONDS
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, seed, trace):
        code, stdout = run(workload, seed, trace)
        self.assertEqual(code, 0, stdout)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, stdout)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result["metrics"]

    def test_workloads_default_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, DEFAULT_SEED, 0)

    def test_workloads_other_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, OTHER_SEED, 0)

    def test_traced_run(self):
        metrics = self.check(WORKLOADS[0], DEFAULT_SEED, 1)
        splits = {k: v["value"] for k, v in metrics.items()
                  if k.startswith(SPLIT_PREFIX)}
        self.assertEqual(len(splits), 8)
        for name, pct in splits.items():
            self.assertLessEqual(abs(pct), SPLIT_LIMIT_PCT, name)


if __name__ == "__main__":
    unittest.main()
