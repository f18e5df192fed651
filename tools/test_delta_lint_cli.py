#!/usr/bin/env python3
"""CLI input-hardening tests for delta_lint (run as a ctest).

Usage: test_delta_lint_cli.py /path/to/delta_lint

A misspelt rule name or source path must end with exit code 2 and one
`delta_lint: <message>` line on stderr.  Linting nothing and reporting
"clean" would silently turn the lint ctests and CI steps into no-ops.
Exit code 1 is reserved for "violations found".  Each case asserts the rc
*and* the message text, so a crash cannot pass.
"""
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None


class DeltaLintCliTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.src = os.path.join(self.tmp.name, "src")
        os.mkdir(self.src)
        with open(os.path.join(self.src, "ok.hpp"), "w") as f:
            f.write("#pragma once\ninline int answer() { return 42; }\n")

    def tearDown(self):
        self.tmp.cleanup()

    def run_lint(self, *args):
        return subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=120)

    def assert_rejected(self, args, message):
        r = self.run_lint(*args)
        self.assertEqual(r.returncode, 2, f"{args}: rc {r.returncode}\n{r.stderr}")
        self.assertIn("delta_lint: " + message, r.stderr)
        self.assertEqual(r.stdout, "", f"{args} reported a result")

    def test_bad_input_is_rejected_with_a_message(self):
        missing = os.path.join(self.tmp.name, "no", "such", "dir")
        a_file = os.path.join(self.src, "ok.hpp")
        cases = [
            ([missing], f"not a directory '{missing}'"),
            ([self.src, missing], f"not a directory '{missing}'"),
            ([a_file], f"not a directory '{a_file}'"),
            (["--rule", "nosuchrule", self.src], "unknown rule 'nosuchrule'"),
            (["--rule", "layering,include-cylce", self.src],
             "unknown rule 'include-cylce'"),
        ]
        for args, message in cases:
            with self.subTest(args=args):
                self.assert_rejected(args, message)

    def test_valid_input_still_lints_clean(self):
        for args in [[self.src],
                     ["--rule", "layering,include-cycle", self.src],
                     ["--rule", "naked-new", self.src]]:
            with self.subTest(args=args):
                r = self.run_lint(*args)
                self.assertEqual(r.returncode, 0, r.stderr)
                self.assertEqual(r.stdout, "delta_lint: clean\n")


if __name__ == "__main__":
    if len(sys.argv) < 2 or not os.access(sys.argv[1], os.X_OK):
        sys.exit("usage: test_delta_lint_cli.py /path/to/delta_lint")
    BINARY = sys.argv.pop(1)
    unittest.main()
