#!/usr/bin/env python3
"""Host-cost benchmark of the DELTA cache-partitioning simulator.

Builds perfbench/perf_driver from the repository's own sources (CMake,
Release; into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench)
and runs one workload. From the root of the repository:

    python3 perfbench/run.py --workload sweep16 --seed 1 --seconds 10 --trace 0

Workloads. The machine, mix and schemes are fixed; --seed reseeds only the
simulated access streams, so one unit of work costs about the same on every
seed. A unit is one whole simulation, or one sweep of them:

    sweep16  16 tiles, mix w6, all six schemes fanned over 2 threads
    delta64  64 tiles, mix w13 x4, DELTA on the 2-thread intra engine

--trace 0 reports the end-to-end metrics: run_ms (median wall time of a
unit), accesses_per_s (median simulated LLC accesses per host second) and
setup_s (median time to construct a unit's chips and run their warm-up
epochs, on one thread). --trace 1 arms the
engine profiler instead and reports the per-layer breakdown; the spans of
the last unit are written as a Chrome trace next to the build.

Every timed unit must reproduce the first unit's results byte for byte,
and so must the same unit run fully serial.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep16", "delta64")
END_TO_END = ("run_ms", "accesses_per_s", "setup_s")
PER_LAYER = (
    "traced_run_ms", "epoch_ms", "policy_ms", "access_ms", "accounting_ms",
    "access_work_ms", "access_busy_share", "unattributed_ms",
    "host_ns_per_access", "llc_accesses", "llc_hit_ratio", "control_msgs",
)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    """Configures once, then rebuilds (a no-op when up to date)."""
    if not (root / "src" / "sim" / "chip.cpp").is_file():
        sys.exit("perfbench: simulator sources not found under src/")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir


def parse_result(stdout: str, names) -> dict:
    """The driver's last line, checked against the metric contract."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perf_driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if set(result["metrics"]) != set(names):
        raise ValueError(f"unexpected metrics {sorted(result['metrics'])}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise ValueError(f"metric {name} is not a finite number")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise ValueError("attempted must be a whole number >= 1")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = build(root)
    cmd = [str(build_dir / "perf_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{args.workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return proc.returncode
    result = parse_result(proc.stdout, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
