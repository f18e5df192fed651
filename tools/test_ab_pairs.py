#!/usr/bin/env python3
"""Tests for tools/ab_pairs.py against stub perfbench checkouts (a ctest).

Usage: test_ab_pairs.py /path/to/tools/ab_pairs.py

Each stub checkout holds a perfbench/run.py that appends its side's name
to a shared log and prints one fixed result line, so the tests can check
the run order, the reported medians and wins, and the exit status.
"""
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

SCRIPT = None

STUB = textwrap.dedent("""\
    import json, sys
    with open({log!r}, "a") as f:
        f.write({side!r} + "\\n")
    print("building...")
    print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": 0,
                      "metrics": {{
                          "run_ms": {{"value": {run_ms}, "unit": "ms"}},
                          "accesses_per_s": {{"value": {rate}, "unit": "1/s"}}}}}}))
    """)

BENCHMARK = """{"end_to_end": [
  {"name": "run_ms", "better": "lower"},
  {"name": "accesses_per_s", "better": "higher"}]}"""


class AbPairsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "order.log")

    def tearDown(self):
        self.tmp.cleanup()

    def checkout(self, side, run_ms, rate, correct=True):
        root = os.path.join(self.tmp.name, side)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(STUB.format(log=self.log, side=side, run_ms=run_ms, rate=rate,
                                correct="True" if correct else "False"))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            f.write(BENCHMARK)
        return root

    def run_pairs(self, base, change, pairs, cwd=None):
        return subprocess.run(
            [sys.executable, SCRIPT, "--base", base, "--change", change,
             "--workload", "sweep16", "--pairs", str(pairs), "--seconds", "1"],
            capture_output=True, text=True, timeout=120, cwd=cwd)

    def row(self, stdout, metric):
        for line in stdout.splitlines():
            if line.split() and line.split()[0] == metric:
                return line
        self.fail(f"no {metric} row in:\n{stdout}")

    def test_alternates_order_and_counts_wins_by_direction(self):
        base = self.checkout("base", run_ms=200.0, rate=1.0e7)
        change = self.checkout("change", run_ms=170.0, rate=1.2e7)
        r = self.run_pairs(base, change, 4)
        self.assertEqual(r.returncode, 0, r.stderr)
        with open(self.log) as f:
            order = f.read().split()
        self.assertEqual(order, ["base", "change", "change", "base",
                                 "base", "change", "change", "base"])
        run_ms = self.row(r.stdout, "run_ms")
        self.assertIn("200 [200, 200]", run_ms)
        self.assertIn("170 [170, 170]", run_ms)
        self.assertIn("0.850", run_ms)
        self.assertTrue(run_ms.endswith("4/4"), run_ms)
        # Higher is better for a rate: the faster change wins there too.
        self.assertTrue(self.row(r.stdout, "accesses_per_s").endswith("4/4"))

    def test_a_slower_change_wins_nothing(self):
        base = self.checkout("base", run_ms=100.0, rate=2.0e7)
        change = self.checkout("change", run_ms=120.0, rate=1.0e7)
        r = self.run_pairs(base, change, 3)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertTrue(self.row(r.stdout, "run_ms").endswith("0/3"))
        self.assertTrue(self.row(r.stdout, "accesses_per_s").endswith("0/3"))

    def test_incorrect_run_exits_nonzero(self):
        base = self.checkout("base", run_ms=100.0, rate=2.0e7)
        change = self.checkout("change", run_ms=90.0, rate=2.0e7, correct=False)
        r = self.run_pairs(base, change, 2)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("correct=False", r.stderr)

    def test_relative_checkout_paths(self):
        self.checkout("base", run_ms=100.0, rate=2.0e7)
        self.checkout("change", run_ms=90.0, rate=2.0e7)
        r = self.run_pairs("base", "change", 2, cwd=self.tmp.name)
        self.assertEqual(r.returncode, 0, r.stderr)
        with open(self.log) as f:
            self.assertEqual(f.read().split(), ["base", "change", "change", "base"])
        self.assertTrue(self.row(r.stdout, "run_ms").endswith("2/2"))

    def test_missing_checkout_is_a_usage_error(self):
        base = self.checkout("base", run_ms=100.0, rate=2.0e7)
        r = self.run_pairs(base, os.path.join(self.tmp.name, "nowhere"), 2)
        self.assertEqual(r.returncode, 2)
        self.assertIn("no perfbench/run.py", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        sys.exit("usage: test_ab_pairs.py /path/to/ab_pairs.py")
    SCRIPT = os.path.abspath(sys.argv.pop(1))
    unittest.main()
