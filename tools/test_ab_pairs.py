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

# A stub whose run_ms walks a fixed series, one value per run of its side
# (it counts its own earlier runs in the shared log).
SERIES_STUB = textwrap.dedent("""\
    import json
    with open({log!r}, "a+") as f:
        f.seek(0)
        runs = f.read().split().count({side!r})
        f.write({side!r} + "\\n")
    series = {series!r}
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {{
                          "run_ms": {{"value": series[runs % len(series)],
                                      "unit": "ms"}},
                          "accesses_per_s": {{"value": 1.0e7, "unit": "1/s"}}}}}}))
    """)

# A stub that logs "side:trace" and reports run_ms at --trace 0 or the
# per-layer policy_ms at --trace 1, as perfbench/run.py does.
TRACE_STUB = textwrap.dedent("""\
    import json, sys
    trace = sys.argv[sys.argv.index("--trace") + 1]
    with open({log!r}, "a") as f:
        f.write({side!r} + ":" + trace + "\\n")
    name = "policy_ms" if trace == "1" else "run_ms"
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {{name: {{"value": {value}, "unit": "ms"}}}}}}))
    """)

BOUNDED_BENCHMARK = """{"end_to_end": [
  {"name": "run_ms", "better": "lower", "bound": 0.25},
  {"name": "accesses_per_s", "better": "higher", "bound": 0.25}]}"""


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

    def series_checkout(self, side, series):
        root = os.path.join(self.tmp.name, side)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(SERIES_STUB.format(log=self.log, side=side, series=series))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            f.write(BOUNDED_BENCHMARK)
        return root

    def trace_checkout(self, side, value):
        root = os.path.join(self.tmp.name, side)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(TRACE_STUB.format(log=self.log, side=side, value=value))
        return root

    def verdict(self, stdout, metric):
        prefix = f"verdict {metric}: "
        for line in stdout.splitlines():
            if line.startswith(prefix):
                return line[len(prefix):]
        self.fail(f"no verdict for {metric} in:\n{stdout}")

    def run_pairs(self, base, change, pairs, cwd=None, extra=()):
        return subprocess.run(
            [sys.executable, SCRIPT, "--base", base, "--change", change,
             "--workload", "sweep16", "--pairs", str(pairs), "--seconds", "1",
             *extra],
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

    def test_verdict_needs_nine_in_ten_wins_and_a_gap_past_the_iqr(self):
        # Base IQR over 10 runs is [101, 103]: a change at 90-95 wins 10 of
        # 10 with its median 10 below the base's, past the 2-wide IQR.
        base_series = [100, 104, 102, 101, 103] * 2
        change_series = [90, 95, 92, 91, 93] * 2
        base = self.series_checkout("base", base_series)
        change = self.series_checkout("change", change_series)
        r = self.run_pairs(base, change, 10)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(self.verdict(r.stdout, "run_ms"), "gain")
        # Equal rates win no pair.
        self.assertEqual(self.verdict(r.stdout, "accesses_per_s"), "no gain")
        # Every pair's values are printed, in pair order, with the side that
        # ran first and the change/base ratio.
        pairs = [line for line in r.stdout.splitlines() if line.startswith("pair ")]
        self.assertEqual(
            [line for line in pairs if " run_ms: " in line],
            [f"pair {i + 1} ({'base' if i % 2 == 0 else 'change'} first) run_ms: "
             f"base {b} change {c} ratio {c / b:.3f}"
             for i, (b, c) in enumerate(zip(base_series, change_series))])
        self.assertIn("pair 2 (change first) accesses_per_s: base 1e+07 change 1e+07 "
                      "ratio 1.000", pairs)
        self.assertEqual(len(pairs), 20)

    def test_a_gap_inside_the_iqr_or_too_few_wins_is_no_gain(self):
        # Wins every pair but by 1 ms, inside the base's 2-wide IQR.
        base = self.series_checkout("base", [100, 104, 102, 101, 103] * 2)
        change = self.series_checkout("change", [99, 103, 101, 100, 102] * 2)
        r = self.run_pairs(base, change, 10)
        self.assertEqual(self.verdict(r.stdout, "run_ms"), "no gain")

    def test_eight_of_ten_wins_is_no_gain(self):
        base = self.series_checkout("base", [100] * 10)
        change = self.series_checkout("change", [80] * 8 + [120] * 2)
        r = self.run_pairs(base, change, 10)
        self.assertTrue(self.row(r.stdout, "run_ms").endswith("8/10"))
        self.assertEqual(self.verdict(r.stdout, "run_ms"), "no gain")

    def test_a_base_spread_past_the_bound_is_unresolved(self):
        # Base IQR [100, 140] is 0.33 of its 120 median, past the 0.25
        # bound: even a change that wins every pair cannot be told apart.
        base = self.series_checkout("base", [100, 140, 120, 100, 140] * 2)
        change = self.series_checkout("change", [50] * 10)
        r = self.run_pairs(base, change, 10)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertTrue(self.row(r.stdout, "run_ms").endswith("10/10"))
        self.assertEqual(self.verdict(r.stdout, "run_ms"), "unresolved")

    def test_trace_selects_the_per_layer_metrics(self):
        # Default: run.py gets --trace 0 and reports end-to-end metrics.
        base = self.trace_checkout("base", 2.0)
        change = self.trace_checkout("change", 1.5)
        r = self.run_pairs(base, change, 2)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.row(r.stdout, "run_ms")
        # --trace 1 reaches both sides, and the per-layer metric gets rows,
        # wins and a verdict (lower is better when BENCHMARK.json is absent).
        r = self.run_pairs(base, change, 2, extra=("--trace", "1"))
        self.assertEqual(r.returncode, 0, r.stderr)
        with open(self.log) as f:
            self.assertEqual(f.read().split(),
                             ["base:0", "change:0", "change:0", "base:0",
                              "base:1", "change:1", "change:1", "base:1"])
        self.assertTrue(self.row(r.stdout, "policy_ms").endswith("2/2"))
        self.assertEqual(self.verdict(r.stdout, "policy_ms"), "gain")
        self.assertIn("trace 1", r.stdout)
        # Only 0 and 1 are traces.
        r = self.run_pairs(base, change, 2, extra=("--trace", "2"))
        self.assertEqual(r.returncode, 2)

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
