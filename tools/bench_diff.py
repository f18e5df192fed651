#!/usr/bin/env python3
"""Gate a fresh micro_throughput run against the committed reference.

    tools/bench_diff.py BENCH_throughput.json fresh.json [--slack 0.6]

Only machine-independent numbers are gated:
  * cache_kernel.*.new_over_legacy — both engines ran on the same host in
    the same process, so the ratio transfers across machines.  The fresh
    ratio must stay above `slack` times the reference ratio.
  * cache_kernel.replay_identical — the SoA engine replayed the streams
    bit-identically against the frozen legacy oracle; binary, every host.
  * simd.*.simd_over_scalar — same-process ratio like the cache kernel,
    but gated only when the fresh run compiled the same backend as the
    reference (a -DDELTA_NO_SIMD or cross-ISA run measures a different
    kernel; its ~1.0x ratio is printed, not failed).
  * sweep.byte_identical / intra.byte_identical — determinism is binary
    and must hold on every host.
  * engine_health.barriers_per_epoch (v5) — a structural property of the
    intra engine (2 per epoch for its one pool section), identical
    on every host; the fresh value must not exceed the reference.
  * schema — a fresh run on an older schema means the harness and the
    reference have drifted apart; fail loudly rather than compare holes.

Scaling ratios (sweep.speedup and the intra points, v5) are gated with
the same slack — but only when BOTH files ran on a multi-core host.  When
either side records hw_threads == 1 the ratio is ~1x by construction
(see docs/performance.md), so the gate is skipped with a clear message
instead of failing a single-CPU runner.

Absolute accesses/sec are printed for the log but never gated: they
depend on the runner's core count.

Exit status: 0 pass, 1 regression/divergence, 2 usage or malformed input.
"""
import argparse
import json
import re
import sys

SCHEMA_PREFIX = "delta-bench-throughput-v"


def load(path, role):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"bench_diff: {role} file {path!r} does not exist.", file=sys.stderr)
        if role == "reference":
            print("bench_diff: regenerate it with: build/bench/micro_throughput "
                  "--out BENCH_throughput.json", file=sys.stderr)
        sys.exit(2)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {role} file {path}: {e}", file=sys.stderr)
        sys.exit(2)


def schema_version(doc, path, role):
    """Returns the integer N of 'delta-bench-throughput-vN', exiting with a
    clear message (not a traceback) on anything unparseable."""
    schema = doc.get("schema")
    m = re.fullmatch(re.escape(SCHEMA_PREFIX) + r"(\d+)", str(schema))
    if not m:
        print(f"bench_diff: {role} file {path!r} has unrecognised schema "
              f"{schema!r} (expected {SCHEMA_PREFIX}N)", file=sys.stderr)
        sys.exit(2)
    return int(m.group(1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reference", help="committed BENCH_throughput.json")
    ap.add_argument("fresh", help="JSON from the run under test")
    ap.add_argument("--slack", type=float, default=0.6,
                    help="fresh ratio must be >= slack * reference ratio "
                         "(default 0.6; absorbs shared-runner noise)")
    args = ap.parse_args()

    ref = load(args.reference, "reference")
    new = load(args.fresh, "fresh")
    failures = []

    # Versions must match exactly: a fresh run on an older schema means the
    # harness and the reference drifted apart; compare neither direction.
    # Unknown keys inside a matching version are ignored (forward-compatible
    # additions within a version don't need a reference regeneration).
    ref_v = schema_version(ref, args.reference, "reference")
    new_v = schema_version(new, args.fresh, "fresh")
    if ref_v != new_v:
        older = "reference" if ref_v < new_v else "fresh run"
        print(f"bench_diff: schema mismatch: reference v{ref_v} vs fresh "
              f"v{new_v} — the {older} is on an older schema.", file=sys.stderr)
        print("bench_diff: regenerate the committed reference with: "
              "build/bench/micro_throughput --out BENCH_throughput.json",
              file=sys.stderr)
        sys.exit(2)

    for stream in ("hit_heavy", "thrashing"):
        try:
            r = ref["cache_kernel"][stream]["new_over_legacy"]
            n = new["cache_kernel"][stream]["new_over_legacy"]
        except (KeyError, TypeError):
            failures.append(f"cache_kernel.{stream}.new_over_legacy missing")
            continue
        floor = args.slack * r
        verdict = "ok" if n >= floor else "FAIL"
        print(f"cache_kernel.{stream}: reference {r:.2f}x, fresh {n:.2f}x, "
              f"floor {floor:.2f}x -> {verdict}")
        if n < floor:
            failures.append(f"cache_kernel.{stream} ratio {n:.2f}x below "
                            f"floor {floor:.2f}x ({args.slack} * {r:.2f}x)")

    # v4+: the oracle replay inside the kernel harness is binary.  (v3 files
    # predate the key; the exact-version check above already pairs them only
    # with other v3 files.)
    if new_v >= 4:
        replay = new.get("cache_kernel", {}).get("replay_identical")
        print(f"cache_kernel.replay_identical: {replay}")
        if replay is not True:
            failures.append(
                f"cache_kernel.replay_identical is {replay!r}, not true")

    # v4: per-kernel SIMD-over-scalar ratios.  Ratio-only and gated only
    # when both files measured the same compiled backend; anything else
    # about the section (unknown kernels, missing keys in the reference)
    # prints informationally instead of failing.
    ref_simd = ref.get("simd", {}) if isinstance(ref.get("simd"), dict) else {}
    new_simd = new.get("simd", {}) if isinstance(new.get("simd"), dict) else {}
    same_backend = (ref_simd.get("backend") is not None and
                    ref_simd.get("backend") == new_simd.get("backend"))
    for kernel, v in new_simd.items():
        if not isinstance(v, dict):
            continue
        n = v.get("simd_over_scalar")
        if not isinstance(n, (int, float)):
            continue
        rv = ref_simd.get(kernel)
        r = rv.get("simd_over_scalar") if isinstance(rv, dict) else None
        if same_backend and isinstance(r, (int, float)):
            floor = args.slack * r
            verdict = "ok" if n >= floor else "FAIL"
            print(f"simd.{kernel} [{new_simd.get('backend')}]: reference "
                  f"{r:.2f}x, fresh {n:.2f}x, floor {floor:.2f}x -> {verdict}")
            if n < floor:
                failures.append(f"simd.{kernel} ratio {n:.2f}x below floor "
                                f"{floor:.2f}x ({args.slack} * {r:.2f}x)")
        else:
            why = ("backend differs: reference "
                   f"{ref_simd.get('backend')!r} vs fresh "
                   f"{new_simd.get('backend')!r}" if not same_backend
                   else "not in reference")
            print(f"simd.{kernel}: {n:.2f}x over scalar (not gated; {why})")

    for section in ("sweep", "intra"):
        ident = new.get(section, {}).get("byte_identical")
        print(f"{section}.byte_identical: {ident}")
        if ident is not True:
            failures.append(f"{section}.byte_identical is {ident!r}, not true")

    # v5: structural engine-health gate.  barriers_per_epoch counts pool
    # barrier crossings per simulated epoch — a property of the engine's
    # code shape, not of the host — so any increase over the committed
    # reference is a real architectural regression (e.g. reintroducing a
    # lockstep phase) and fails on every runner.
    if new_v >= 5:
        r = ref.get("engine_health", {}).get("barriers_per_epoch")
        n = new.get("engine_health", {}).get("barriers_per_epoch")
        if not isinstance(r, (int, float)) or not isinstance(n, (int, float)):
            failures.append("engine_health.barriers_per_epoch missing")
        else:
            verdict = "ok" if n <= r + 1e-9 else "FAIL"
            print(f"engine_health.barriers_per_epoch: reference {r:.2f}, "
                  f"fresh {n:.2f} -> {verdict}")
            if n > r + 1e-9:
                failures.append(
                    f"engine_health.barriers_per_epoch rose from {r:.2f} to "
                    f"{n:.2f} (a pool section was added per epoch)")

    # v5: scaling-ratio gates, skipped on single-CPU hosts where the
    # speedup is ~1x by construction and the ratio would only measure
    # scheduler noise.
    def scaling_gates():
        ref_hw = ref.get("hw_threads")
        new_hw = new.get("hw_threads")
        for role, hw in (("reference", ref_hw), ("fresh", new_hw)):
            if not isinstance(hw, (int, float)) or hw <= 1:
                print(f"scaling gates: SKIPPED — {role} run has hw_threads="
                      f"{hw!r} (single hardware thread: speedups are ~1x by "
                      "construction, nothing to gate)")
                return
        r = ref.get("sweep", {}).get("speedup")
        n = new.get("sweep", {}).get("speedup")
        if isinstance(r, (int, float)) and isinstance(n, (int, float)) and r > 0:
            floor = args.slack * r
            verdict = "ok" if n >= floor else "FAIL"
            print(f"sweep.speedup: reference {r:.2f}x, fresh {n:.2f}x, "
                  f"floor {floor:.2f}x -> {verdict}")
            if n < floor:
                failures.append(f"sweep.speedup {n:.2f}x below floor "
                                f"{floor:.2f}x ({args.slack} * {r:.2f}x)")
        ref_pts = {p.get("intra_jobs"): p.get("speedup_vs_serial")
                   for p in ref.get("intra", {}).get("points", [])
                   if isinstance(p, dict)}
        for p in new.get("intra", {}).get("points", []):
            if not isinstance(p, dict):
                continue
            jobs_n = p.get("intra_jobs")
            n = p.get("speedup_vs_serial")
            r = ref_pts.get(jobs_n)
            if (not isinstance(jobs_n, (int, float)) or jobs_n <= 1 or
                    not isinstance(n, (int, float))):
                continue
            if not isinstance(r, (int, float)) or r <= 0:
                print(f"intra --intra-jobs {jobs_n}: {n:.2f}x "
                      "(not gated; no reference point)")
                continue
            floor = args.slack * r
            verdict = "ok" if n >= floor else "FAIL"
            print(f"intra --intra-jobs {jobs_n} speedup: reference {r:.2f}x, "
                  f"fresh {n:.2f}x, floor {floor:.2f}x -> {verdict}")
            if n < floor:
                failures.append(
                    f"intra --intra-jobs {jobs_n} speedup {n:.2f}x below "
                    f"floor {floor:.2f}x ({args.slack} * {r:.2f}x)")

    if new_v >= 5:
        scaling_gates()

    # Informational only (machine-dependent): single-thread throughput and
    # the parallel speedups on this runner.  Scheme keys the reference has
    # never heard of (a newer harness grew a scheme) are fine — warn and
    # print them rather than failing, so adding a scheme doesn't force a
    # reference regeneration.
    ref_schemes = ref.get("simulator", {})
    if not isinstance(ref_schemes, dict):
        ref_schemes = {}
    sim = new.get("simulator", {})
    if not isinstance(sim, dict):
        print(f"bench_diff: warning: simulator section is {type(sim).__name__},"
              " not an object; skipping", file=sys.stderr)
        sim = {}
    for scheme, v in sim.items():
        if not isinstance(v, dict):
            print(f"bench_diff: warning: simulator.{scheme} is not an object; "
                  f"skipping", file=sys.stderr)
            continue
        note = "" if scheme in ref_schemes else ", not in reference"
        print(f"simulator.{scheme}: {v.get('accesses_per_sec', 0):.3g} acc/s "
              f"(not gated{note})")
    scaling_active = (new_v >= 5 and
                      all(isinstance(d.get("hw_threads"), (int, float)) and
                          d.get("hw_threads") > 1 for d in (ref, new)))
    if not scaling_active:
        for p in new.get("intra", {}).get("points", []):
            print(f"intra --intra-jobs {p.get('intra_jobs')}: "
                  f"{p.get('speedup_vs_serial', 0):.2f}x vs serial (not gated; "
                  f"hw_threads={new.get('hw_threads')})")
    irr = new.get("irregular")
    if isinstance(irr, dict):
        print(f"irregular ({irr.get('mix')}, {irr.get('scheme')}): "
              f"{irr.get('accesses_per_sec', 0):.3g} acc/s (not gated)")
    prof = new.get("prof")
    if isinstance(prof, dict):
        phases = prof.get("phase_ms", {})
        breakdown = " ".join(f"{k}={v:.1f}ms" for k, v in phases.items()
                             if isinstance(v, (int, float)))
        print(f"prof ({prof.get('intra_jobs')}-way intra): {breakdown} "
              f"barrier_wait_fraction={prof.get('barrier_wait_fraction')} "
              f"worker_imbalance_ratio={prof.get('worker_imbalance_ratio')} "
              f"(not gated)")

    if failures:
        for f in failures:
            print(f"bench_diff: FAIL: {f}", file=sys.stderr)
        return 1
    print("bench_diff: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
