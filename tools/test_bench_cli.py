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
                          capture_output=True, encoding="utf-8", timeout=120, env=env)


class BenchCliTest(unittest.TestCase):
    def assert_rejected(self, name, args, message, env_jobs=None):
        r = run_bench(name, *args, env_jobs=env_jobs)
        self.assertEqual(r.returncode, 2, f"{name} {args}: rc {r.returncode}\n{r.stderr}")
        self.assertIn(f"{name}: {message}", r.stderr)
        self.assertEqual(r.stdout, "", f"{name} {args} started running")

    def test_bad_input_is_rejected_with_a_message(self):
        cases = [
            ("repro", ["--bogus"], "unknown flag --bogus"),
            ("repro", ["w2"], "unexpected argument 'w2'"),
            ("repro", ["--fig", "5", "--bogus"], "unknown flag --bogus"),
            ("repro", ["--out"], "unknown flag --out"),
            ("repro", ["--fig"], "--fig needs a value"),
            ("repro", ["--fig", "14"], "unknown --fig id '14'"),
            ("repro", ["--fig", "mt"], "unknown --fig id 'mt'"),
            ("repro", ["--fig", "irregular"], "unknown --fig id 'irregular'"),
            ("repro", ["--fig", "5,,6"], "empty id in --fig '5,,6'"),
            ("repro", ["--fig", "5", "--out", "/no/such/dir/x"],
             "unknown flag --out"),
            ("repro", ["--jobs", "abc"],
             "--jobs expects a non-negative integer, got 'abc'"),
            ("repro", ["--jobs", "-1"],
             "--jobs expects a non-negative integer, got '-1'"),
            ("repro", ["--prof-level", "loud"], "unknown flag --prof-level"),
            ("repro", ["--obs-level", "full"], "unknown flag --obs-level"),
            ("micro_throughput", ["--reps", "0"], "--reps must be >= 1, got 0"),
            ("micro_throughput", ["--reps", "zz", "--quick"],
             "--reps expects an integer, got 'zz'"),
            ("micro_throughput", ["--out", "x"], "unknown flag --out"),
            ("micro_throughput", ["--reps"], "--reps needs a value"),
            ("repro", ["--fig", "5", "--fig", "6"], "--fig is given more than once"),
            ("repro", ["--quick"], "unknown flag --quick"),
        ]
        for name, args, message in cases:
            with self.subTest(bench=name, args=args):
                self.assert_rejected(name, args, message)

    def test_bad_delta_jobs_env_is_rejected(self):
        for value in ["abc", "-1", "2x"]:
            with self.subTest(DELTA_JOBS=value):
                self.assert_rejected(
                    "repro", [],
                    f"DELTA_JOBS expects a non-negative integer, got '{value}'",
                    env_jobs=value)

    def test_repro_runs_shared_jobs_once(self):
        # fig07's four w2 runs and msg's three DELTA runs share w2 under
        # DELTA on the 16-tile machine.
        r = run_bench("repro", "--fig", "7,msg")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stderr.splitlines(),
                         ["repro: 7 runs requested, 6 distinct"])
        self.assertIn("Fig. 7 — per-application performance, w2, 16 cores", r.stdout)
        self.assertIn("Message overheads — DELTA control traffic vs demand", r.stdout)

    @unittest.skipUnless(os.path.exists("/dev/full"), "needs /dev/full")
    def test_failed_stdout_write_is_an_error(self):
        # A report that never reaches stdout fails the run (exit 1), with
        # one `repro:` line after the reuse line.
        with open("/dev/full", "w") as full:
            r = subprocess.run([os.path.join(BENCH_DIR, "repro"), "--fig", "table5"],
                               stdout=full, stderr=subprocess.PIPE, encoding="utf-8",
                               timeout=120)
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertEqual(r.stderr.splitlines(),
                         ["repro: 0 runs requested, 0 distinct",
                          "repro: cannot write stdout: No space left on device"])

    @unittest.skipUnless(os.path.exists("/dev/full"), "needs /dev/full")
    def test_failed_metrics_write_is_an_error(self):
        # A --metrics-out file that cannot be written fails the run like a
        # failed stdout write, with the report itself still printed.
        r = run_bench("repro", "--fig", "table5", "--metrics-out", "/dev/full")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertEqual(r.stderr.splitlines(),
                         ["repro: 0 runs requested, 0 distinct",
                          "writing /dev/full: No space left on device"])
        self.assertIn("Table V", r.stdout)

    def test_repro_ablation_entries_share_their_baseline(self):
        # 24 ablation runs (one S-NUCA baseline + 23 knob points, five of
        # them the default DELTA run) and cbt's 3 (S-NUCA and DELTA on the
        # same base config, plus DELTA with straight CBT indexing).
        r = run_bench("repro", "--fig", "ablation,cbt")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stderr.splitlines(),
                         ["repro: 27 runs requested, 21 distinct"])
        self.assertIn("Ablation — DELTA parameter sensitivity (mix w6, 16 cores)",
                      r.stdout)
        self.assertIn("Ablation — CBT bank-selection bit reversal", r.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.path.isdir(sys.argv[1]):
        sys.exit("usage: test_bench_cli.py /path/to/build/bench")
    BENCH_DIR = sys.argv.pop(1)
    unittest.main()
