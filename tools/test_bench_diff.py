#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py (run as a ctest: python3 -m unittest).

The gate's contract, pinned here:
  * matching schemas with healthy ratios pass (exit 0);
  * unknown scheme keys in the fresh simulator section — a newer harness
    grew a scheme the committed reference has never heard of — warn but do
    NOT fail, and malformed (non-object) entries are skipped with a warning;
  * a cache-kernel ratio below the slack floor fails (exit 1);
  * engine_health.barriers_per_epoch (v5) is structural: any increase over
    the reference fails on every host, and a missing value fails too;
  * the sweep/intra scaling-ratio gates (v5) fail on a regression when both
    runs were multi-core, and are SKIPPED with a clear message when either
    side recorded hw_threads == 1;
  * a schema mismatch is a usage error (exit 2).
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")


def doc(schema="delta-bench-throughput-v5", hit=2.0, thrash=1.5,
        simulator=None, backend="sse2", match=3.0, find=2.0,
        hw_threads=1, sweep_speedup=1.0, intra8=1.0,
        barriers_per_epoch=2.0):
    return {
        "schema": schema,
        "hw_threads": hw_threads,
        "cache_kernel": {
            "replay_identical": True,
            "hit_heavy": {"new_over_legacy": hit},
            "thrashing": {"new_over_legacy": thrash},
        },
        "simd": {
            "backend": backend,
            "match_u64": {"simd_over_scalar": match},
            "find_u64": {"simd_over_scalar": find},
        },
        "irregular": {"mix": "wi1", "scheme": "delta",
                      "accesses_per_sec": 5e5},
        "sweep": {"byte_identical": True, "speedup": sweep_speedup},
        "intra": {"byte_identical": True, "points": [
            {"intra_jobs": 1, "speedup_vs_serial": 1.0},
            {"intra_jobs": 8, "speedup_vs_serial": intra8},
        ]},
        "engine_health": {"barriers_per_epoch": barriers_per_epoch,
                          "tasks_per_epoch": 200.0,
                          "steal_fraction": 0.1},
        "simulator": simulator if simulator is not None
        else {"snuca": {"accesses_per_sec": 1e6}},
    }


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, ref, fresh, *extra):
        with tempfile.TemporaryDirectory() as d:
            ref_path = os.path.join(d, "ref.json")
            fresh_path = os.path.join(d, "fresh.json")
            with open(ref_path, "w") as f:
                json.dump(ref, f)
            with open(fresh_path, "w") as f:
                json.dump(fresh, f)
            return subprocess.run(
                [sys.executable, TOOL, ref_path, fresh_path, *extra],
                capture_output=True, text=True)

    def test_healthy_run_passes(self):
        r = self.run_diff(doc(), doc())
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("bench_diff: PASS", r.stdout)

    def test_unknown_scheme_keys_warn_but_pass(self):
        fresh = doc(simulator={
            "snuca": {"accesses_per_sec": 1e6},
            "carma": {"accesses_per_sec": 9e5},   # Not in the reference.
            "lfoc": {"accesses_per_sec": 8e5},    # Not in the reference.
            "bogus": "not-an-object",             # Malformed entry.
        })
        r = self.run_diff(doc(), fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("simulator.carma", r.stdout)
        self.assertIn("not in reference", r.stdout)
        self.assertIn("simulator.bogus is not an object", r.stderr)
        self.assertIn("bench_diff: PASS", r.stdout)

    def test_simulator_section_wrong_type_warns_but_passes(self):
        fresh = doc()
        fresh["simulator"] = ["not", "a", "dict"]
        r = self.run_diff(doc(), fresh)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("simulator section is list", r.stderr)

    def test_kernel_regression_fails(self):
        r = self.run_diff(doc(hit=2.0), doc(hit=0.5))
        self.assertEqual(r.returncode, 1)
        self.assertIn("below", r.stderr)

    def test_byte_divergence_fails(self):
        fresh = doc()
        fresh["intra"]["byte_identical"] = False
        r = self.run_diff(doc(), fresh)
        self.assertEqual(r.returncode, 1)

    def test_replay_divergence_fails(self):
        fresh = doc()
        fresh["cache_kernel"]["replay_identical"] = False
        r = self.run_diff(doc(), fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("replay_identical", r.stderr)

    def test_simd_ratio_regression_fails_on_same_backend(self):
        r = self.run_diff(doc(match=3.0), doc(match=1.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("simd.match_u64", r.stderr)

    def test_simd_not_gated_across_backends(self):
        # A scalar-fallback or cross-ISA run measures a different kernel:
        # its ~1.0x ratios print informationally instead of failing.
        r = self.run_diff(doc(backend="sse2"),
                          doc(backend="scalar", match=1.0, find=1.0))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("not gated", r.stdout)
        self.assertIn("backend differs", r.stdout)

    def test_schema_mismatch_is_usage_error(self):
        r = self.run_diff(doc(), doc(schema="delta-bench-throughput-v999"))
        self.assertEqual(r.returncode, 2)
        self.assertIn("schema mismatch", r.stderr)

    def test_barriers_per_epoch_increase_fails(self):
        r = self.run_diff(doc(barriers_per_epoch=2.0),
                          doc(barriers_per_epoch=6.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("barriers_per_epoch", r.stderr)

    def test_barriers_per_epoch_equal_passes(self):
        r = self.run_diff(doc(barriers_per_epoch=2.0),
                          doc(barriers_per_epoch=2.0))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("engine_health.barriers_per_epoch", r.stdout)

    def test_missing_engine_health_fails_on_v5(self):
        fresh = doc()
        del fresh["engine_health"]
        r = self.run_diff(doc(), fresh)
        self.assertEqual(r.returncode, 1)
        self.assertIn("engine_health.barriers_per_epoch missing", r.stderr)

    def test_scaling_gates_skipped_on_single_cpu_reference(self):
        # The committed reference was generated on a 1-thread host: the
        # scaling ratios are ~1x by construction there, so a fast fresh run
        # must not be gated against them (and vice versa).
        r = self.run_diff(doc(hw_threads=1),
                          doc(hw_threads=8, sweep_speedup=3.0, intra8=4.0))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scaling gates: SKIPPED", r.stdout)
        self.assertIn("hw_threads=1", r.stdout)

    def test_scaling_gates_skipped_on_single_cpu_fresh(self):
        r = self.run_diff(doc(hw_threads=8, sweep_speedup=3.0, intra8=4.0),
                          doc(hw_threads=1))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scaling gates: SKIPPED", r.stdout)

    def test_scaling_regression_fails_on_multicore(self):
        r = self.run_diff(doc(hw_threads=8, sweep_speedup=3.0, intra8=4.0),
                          doc(hw_threads=8, sweep_speedup=3.0, intra8=1.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("intra --intra-jobs 8", r.stderr)

    def test_healthy_scaling_passes_on_multicore(self):
        r = self.run_diff(doc(hw_threads=8, sweep_speedup=3.0, intra8=4.0),
                          doc(hw_threads=8, sweep_speedup=2.8, intra8=4.2))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("intra --intra-jobs 8 speedup", r.stdout)


if __name__ == "__main__":
    unittest.main()
