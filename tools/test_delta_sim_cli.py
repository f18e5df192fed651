#!/usr/bin/env python3
"""CLI input-hardening tests for delta_sim (run as a ctest).

Usage: test_delta_sim_cli.py /path/to/delta_sim

Bad input must end with exit code 1 and one `delta_sim: <message>` line on
stderr — never an abort (rc 134), a silent clamp or an all-zero table.
Each case asserts rc == 1 *and* the message text, so a crash cannot pass.
"""
import os
import subprocess
import sys
import unittest

BINARY = None


class DeltaSimCliTest(unittest.TestCase):
    def run_sim(self, *args):
        return subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=120)

    def assert_rejected(self, args, message):
        r = self.run_sim(*args)
        self.assertEqual(r.returncode, 1, f"{args}: rc {r.returncode}\n{r.stderr}")
        self.assertIn("delta_sim: " + message, r.stderr)
        self.assertEqual(len(r.stderr.splitlines()), 1, r.stderr)
        self.assertEqual(r.stdout, "", f"{args} printed results")

    def test_bad_input_is_rejected_with_a_message(self):
        cases = [
            (["--seed", "abc"], "--seed expects a non-negative integer, got 'abc'"),
            (["--seed", "-1"], "--seed expects a non-negative integer, got '-1'"),
            (["--epochs", "0"], "--epochs must be >= 1, got 0"),
            (["--epochs", "-5"], "--epochs must be >= 1, got -5"),
            (["--cores", "17"], "--cores must be 16 or 64, got 17"),
            (["--jobs", "-1"], "--jobs must be >= 0, got -1"),
            (["--jobs", "abc"], "--jobs expects an integer, got 'abc'"),
            (["--intra-jobs", "-2"], "--intra-jobs must be >= 0, got -2"),
            (["--intra-jobs", "1e3"], "--intra-jobs expects an integer, got '1e3'"),
            (["--interleave-batch", "4"],
             "unknown flag: --interleave-batch (try --help)"),
            (["--warmup", "-3"], "--warmup must be >= 0, got -3"),
            (["--central-ms", "0"], "--central-ms must be >= 0.1 (one epoch), got 0"),
            (["--central-ms", "-1"], "--central-ms must be >= 0.1 (one epoch), got -1"),
            (["--central-ms", "0.05"],
             "--central-ms must be >= 0.1 (one epoch), got 0.05"),
            (["--central-ms", "nan"], "--central-ms must be >= 0.1 (one epoch), got nan"),
            (["--central-ms", "1e12"], "--central-ms is out of range, got 1e12"),
            (["--central-ms", "abc"], "--central-ms expects a number, got 'abc'"),
            (["--scheme", "bogus"], "unknown scheme 'bogus'"),
            (["--mix", "nosuch"], "unknown mix: nosuch (try --list)"),
            (["--apps", "bw"], "--apps needs exactly 16 entries"),
            (["--apps", ",".join(["mcf"] * 15 + ["zz"])],
             "unknown app 'zz' (try --list)"),
            (["--epochs"], "--epochs needs a value"),
            (["--warmup", "--epochs", "1"], "--warmup needs a value"),
            (["--cores="], "--cores needs a value"),
            (["--seed", "1", "--seed", "1"], "--seed is given more than once"),
            (["--csv", "--csv"], "--csv is given more than once"),
            (["--csv", "5"], "--csv takes no value, got '5'"),
            (["w2"], "unexpected argument 'w2'"),
            (["--bogus", "1"], "unknown flag: --bogus (try --help)"),
        ]
        for args, message in cases:
            with self.subTest(args=args):
                self.assert_rejected(args, message)

    def test_bad_output_paths_fail_before_the_run(self):
        # Every output file is checked and opened before any simulation, so
        # a bad path prints no report at all.
        short = ["--mix", "w2", "--scheme", "delta", "--epochs", "1", "--warmup", "0"]
        bad = "/no/such/dir/out"
        cases = [
            (["--trace-out", ""], "--trace-out needs a file path"),
            (["--timeline-csv", ""], "--timeline-csv needs a file path"),
            (["--prof-out", ""], "--prof-out needs a file path"),
            (["--metrics-out", ""], "--metrics-out needs a file path"),
            (["--trace-out", bad], f"cannot write --trace-out '{bad}'"),
            (["--timeline-csv", bad], f"cannot write --timeline-csv '{bad}'"),
            (["--json", bad], f"cannot write --json '{bad}'"),
            (["--prof-out", bad], f"cannot write --prof-out '{bad}'"),
            (["--metrics-out", bad], f"cannot write --metrics-out '{bad}'"),
        ]
        for args, message in cases:
            with self.subTest(args=args):
                self.assert_rejected(short + args, message)

    @unittest.skipUnless(os.path.exists("/dev/full"), "needs /dev/full")
    def test_failed_stdout_write_is_an_error(self):
        # A report or bare --json summary that never reaches stdout fails the
        # run with one `delta_sim:` line, like a failed --json FILE (bare
        # --json moves the human report to stderr, ahead of that line).
        short = ["--mix", "w2", "--scheme", "snuca", "--warmup", "1", "--epochs", "2"]
        for extra in [[], ["--json"]]:
            with self.subTest(args=extra), open("/dev/full", "w") as full:
                r = subprocess.run([BINARY, *short, *extra], stdout=full,
                                   stderr=subprocess.PIPE, text=True, timeout=120)
                self.assertEqual(r.returncode, 1, r.stderr)
                self.assertEqual(r.stderr.splitlines()[-1],
                                 "delta_sim: cannot write stdout: No space left on device")
                self.assertEqual(r.stderr.count("delta_sim:"), 1, r.stderr)

    def test_level_flags_are_unknown(self):
        for flag in ["--obs-level", "--prof-level"]:
            with self.subTest(flag=flag):
                r = self.run_sim(flag, "full")
                self.assertEqual(r.returncode, 1, r.stderr)
                self.assertIn("unknown flag: " + flag, r.stderr)
                self.assertEqual(r.stdout, "")

    def test_removed_pin_flag_is_unknown(self):
        # The engine pins no thread; the old opt-in flag is gone, not ignored.
        r = self.run_sim("--intra-pin", "--epochs", "1", "--warmup", "0")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("unknown flag: --intra-pin", r.stderr)
        self.assertEqual(r.stdout, "")

    def test_valid_short_run_still_succeeds(self):
        r = self.run_sim("--mix", "w2", "--scheme", "snuca", "--epochs", "1",
                         "--warmup", "0", "--csv")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertGreater(len(r.stdout.splitlines()), 1)

    def test_largest_seed_is_accepted(self):
        r = self.run_sim("--mix", "w2", "--scheme", "snuca", "--epochs", "1",
                         "--warmup", "0", "--seed", "18446744073709551615", "--csv")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertGreater(len(r.stdout.splitlines()), 1)

    def test_scheme_takes_the_printed_name_and_the_ideal_alias(self):
        # `ideal-central` is the name the report, CSV and JSON print for
        # the scheme; `ideal` is its short alias.  Both select that scheme.
        for name in ["ideal-central", "ideal"]:
            with self.subTest(scheme=name):
                r = self.run_sim("--mix", "w2", "--scheme", name, "--epochs", "1",
                                 "--warmup", "0", "--csv")
                self.assertEqual(r.returncode, 0, r.stderr)
                rows = r.stdout.splitlines()[1:]
                self.assertGreater(len(rows), 0)
                self.assertTrue(all(",ideal-central," in row for row in rows), rows)

    def test_one_epoch_central_interval_is_accepted(self):
        r = self.run_sim("--mix", "w2", "--scheme", "ideal", "--central-ms", "0.1",
                         "--epochs", "2", "--warmup", "0", "--csv")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertGreater(len(r.stdout.splitlines()), 1)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.access(sys.argv[1], os.X_OK):
        sys.exit("usage: test_delta_sim_cli.py /path/to/delta_sim")
    BINARY = sys.argv.pop(1)
    unittest.main()
