#!/usr/bin/env python3
"""Tests for tools/cost.py (a ctest).

Usage: test_cost.py /path/to/tools/cost.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None

# Holds about 64 MiB resident and spins for a short while, then exits 3.
WORKER = ("import sys, time\n"
          "buf = bytearray(64 << 20)\n"
          "for i in range(0, len(buf), 4096): buf[i] = 1\n"
          "t = time.process_time()\n"
          "while time.process_time() - t < 0.2: pass\n"
          "print('worker out')\n"
          "sys.exit(3)\n")


class CostTest(unittest.TestCase):
    def cost(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True, timeout=60)

    def test_reports_the_commands_cost_and_exit_status(self):
        r = self.cost("--", sys.executable, "-c", WORKER)
        self.assertEqual(r.returncode, 3)
        lines = r.stdout.strip().splitlines()
        self.assertEqual(lines[0], "worker out")
        report = json.loads(lines[-1])
        self.assertEqual(set(report), {"wall_s", "user_s", "sys_s", "max_rss_mb", "exit"})
        self.assertEqual(report["exit"], 3)
        self.assertGreaterEqual(report["max_rss_mb"], 64)
        self.assertGreaterEqual(report["user_s"] + report["sys_s"], 0.15)
        self.assertGreaterEqual(report["wall_s"], report["user_s"] * 0.5)

    def test_stdout_file_keeps_the_json_line_alone(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            r = self.cost("--stdout", path, "--", sys.executable, "-c", "print('hello')")
            self.assertEqual(r.returncode, 0)
            with open(path) as f:
                self.assertEqual(f.read(), "hello\n")
        lines = r.stdout.strip().splitlines()
        self.assertEqual(len(lines), 1)
        self.assertEqual(json.loads(lines[0])["exit"], 0)

    def test_usage_errors(self):
        self.assertEqual(self.cost().returncode, 2)
        r = self.cost("--", "/nonexistent/command")
        self.assertEqual(r.returncode, 2)
        self.assertIn("cannot run", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        sys.exit("usage: test_cost.py /path/to/cost.py")
    SCRIPT = os.path.abspath(sys.argv.pop(1))
    unittest.main()
