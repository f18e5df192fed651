#!/usr/bin/env python3
"""Command-line tests for the bench harnesses (run as a ctest).

Usage: test_bench_cli.py /path/to/build/bench

Every harness parses one strict command line (bench/bench_util.hpp's
bench::Cli): an unknown flag, a stray argument or a malformed value ends
with exit code 2 and one `<bench>: <message>` line on stderr, before any
simulation runs.  Each case asserts the rc *and* the message text, so a
crash (rc 134) or a silently ignored flag cannot pass.
"""
import os
import subprocess
import sys
import unittest

BENCH_DIR = None


def run_bench(name, *args, env_jobs=None):
    env = {k: v for k, v in os.environ.items() if k != "DELTA_JOBS"}
    if env_jobs is not None:
        env["DELTA_JOBS"] = env_jobs
    return subprocess.run([os.path.join(BENCH_DIR, name), *args],
                          capture_output=True, text=True, timeout=120, env=env)


class BenchCliTest(unittest.TestCase):
    def assert_rejected(self, name, args, message, env_jobs=None):
        r = run_bench(name, *args, env_jobs=env_jobs)
        self.assertEqual(r.returncode, 2, f"{name} {args}: rc {r.returncode}\n{r.stderr}")
        self.assertIn(f"{name}: {message}", r.stderr)
        self.assertEqual(r.stdout, "", f"{name} {args} started running")

    def test_bad_input_is_rejected_with_a_message(self):
        cases = [
            ("fig05_mixes16", ["--bogus"], "unknown flag --bogus"),
            ("fig05_mixes16", ["--quick"], "unknown flag --quick"),
            ("fig05_mixes16", ["w2"], "unexpected argument 'w2'"),
            ("shootout", ["--quick", "--bogus"], "unknown flag --bogus"),
            ("shootout", ["--out"], "--out needs a value"),
            ("table5_sharing", ["--jobs", "abc"],
             "--jobs expects a non-negative integer, got 'abc'"),
            ("table5_sharing", ["--jobs", "-1"],
             "--jobs expects a non-negative integer, got '-1'"),
            ("table5_sharing", ["--prof-level", "loud"], "unknown --prof-level 'loud'"),
            ("micro_throughput", ["--reps", "0"], "--reps must be >= 1, got 0"),
            ("micro_throughput", ["--reps", "zz", "--quick"],
             "--reps expects an integer, got 'zz'"),
            ("micro_components", ["--bogus"], "unknown flag --bogus"),
        ]
        for name, args, message in cases:
            with self.subTest(bench=name, args=args):
                self.assert_rejected(name, args, message)

    def test_bad_delta_jobs_env_is_rejected(self):
        for value in ["abc", "-1", "2x"]:
            with self.subTest(DELTA_JOBS=value):
                self.assert_rejected(
                    "fig05_mixes16", [],
                    f"DELTA_JOBS expects a non-negative integer, got '{value}'",
                    env_jobs=value)

    def test_google_benchmark_flags_pass_through(self):
        r = run_bench("micro_components", "--benchmark_list_tests=true")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("BM_CacheAccess", r.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.path.isdir(sys.argv[1]):
        sys.exit("usage: test_bench_cli.py /path/to/build/bench")
    BENCH_DIR = sys.argv.pop(1)
    unittest.main()
