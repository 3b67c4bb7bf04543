#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py        # from the root of a checkout

Runs every workload at a tiny size, with tracing off and on, and checks that
the last line of output is the result object with every metric that
BENCHMARK.json names for that mode. Then it corrupts one expected answer and
checks that the correctness gate fails the run.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace, section):
        code, result, proc = run(workload, trace)
        self.assertEqual(code, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if section == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0, "end_to_end")
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1, "per_layer")

    def test_corrupted_answer_fails_the_gate(self):
        code, result, proc = run("scan_unique", 0, "--corrupt-answer")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, proc.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
