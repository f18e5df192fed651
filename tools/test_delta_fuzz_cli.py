#!/usr/bin/env python3
"""CLI input-hardening tests for delta_fuzz (run as a ctest).

Usage: test_delta_fuzz_cli.py /path/to/delta_fuzz

Bad input must end with exit code 2 and one `delta_fuzz: <message>` line on
stderr — never an abort (rc 134) or an empty "0 case(s)" batch that passes.
Exit code 1 is reserved for "the fuzz found failures".  Each case asserts
the rc *and* the message text, so a crash cannot pass.
"""
import os
import subprocess
import sys
import unittest

BINARY = None


class DeltaFuzzCliTest(unittest.TestCase):
    def run_fuzz(self, *args):
        return subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=120)

    def assert_rejected(self, args, message):
        r = self.run_fuzz(*args)
        self.assertEqual(r.returncode, 2, f"{args}: rc {r.returncode}\n{r.stderr}")
        self.assertIn("delta_fuzz: " + message, r.stderr)
        self.assertEqual(r.stdout, "", f"{args} ran a batch")

    def test_bad_input_is_rejected_with_a_message(self):
        cases = [
            (["--seeds", "abc"], "--seeds expects an integer, got 'abc'"),
            (["--seeds", "-3"], "--seeds must be >= 1, got -3"),
            (["--seeds", "0"], "--seeds must be >= 1, got 0"),
            (["--threads", "-1"], "--threads must be >= 0, got -1"),
            (["--intra-jobs", "-2"], "--intra-jobs must be >= 0, got -2"),
            (["--sweep-interval", "-4"], "--sweep-interval must be >= 0, got -4"),
            (["--repro", "x1"], "--repro expects a non-negative integer, got 'x1'"),
            (["--repro", "-1"], "--repro expects a non-negative integer, got '-1'"),
            (["--repro", "0xZZ"],
             "--repro expects a non-negative integer, got '0xZZ'"),
            (["--repro", "0x10000000000000000"],
             "--repro expects a non-negative integer, got '0x10000000000000000'"),
            (["--seed-base", "-1"],
             "--seed-base expects a non-negative integer, got '-1'"),
            (["--metrics-out", ""], "--metrics-out needs a file path"),
            (["--seeds", "1", "--metrics-out", "/no/such/dir/m.json"],
             "cannot write --metrics-out '/no/such/dir/m.json'"),
        ]
        for args, message in cases:
            with self.subTest(args=args):
                self.assert_rejected(args, message)

    def test_unknown_flag_prints_usage(self):
        for flag in ["--bogus", "--prof-level", "--obs-level", "--intra-pin"]:
            with self.subTest(flag=flag):
                r = self.run_fuzz(flag, "full")
                self.assertEqual(r.returncode, 2, r.stderr)
                self.assertIn("unknown flag: " + flag, r.stderr)
                self.assertIn("Options:", r.stderr)
                self.assertEqual(r.stdout, "")

    def test_hex_seed_replays_the_decimal_seed(self):
        # The regression tests pin seeds in hex (tests/test_fuzz.cpp), so a
        # pinned seed pastes straight into the replay command.
        hex_run = self.run_fuzz("--repro", "0xCA")
        dec_run = self.run_fuzz("--repro", "202")
        self.assertEqual(hex_run.returncode, dec_run.returncode, hex_run.stderr)
        self.assertIn("seed 202 mix: ", hex_run.stdout)
        self.assertEqual(hex_run.stdout, dec_run.stdout)

    def test_valid_small_batch_still_succeeds(self):
        r = self.run_fuzz("--seeds", "1", "--no-determinism")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("fuzz: 1 case(s), 0 failure(s)", r.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.access(sys.argv[1], os.X_OK):
        sys.exit("usage: test_delta_fuzz_cli.py /path/to/delta_fuzz")
    BINARY = sys.argv.pop(1)
    unittest.main()
