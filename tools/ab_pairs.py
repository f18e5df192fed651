#!/usr/bin/env python3
"""Alternating A/B pairs of the perfbench benchmark from two checkouts.

    python3 tools/ab_pairs.py --base ../parent --change . --workload sweep16 \
        [--pairs 10] [--seed 1] [--seconds 10] [--trace 0]

Runs `perfbench/run.py` once in each checkout per pair, --pairs times,
alternating which side goes first so a drift in host load falls on both
sides alike. Each run builds its own checkout (the first build is the slow
one). After each pair it prints one line per metric, `pair N (SIDE first)
METRIC: base B change C ratio C/B`, so every pair's values stay on record.
Then it prints, per metric, each side's median and interquartile range, the
median of the per-pair change/base ratios, in how many pairs the change
was better, and then one `verdict METRIC: ...` line per metric on the gain
rule: "gain" when the change won at least 9 in 10 pairs and its median
beats the base median by more than the base IQR, "no gain" otherwise, and
"unresolved" when the base IQR is wider, relative to the base median, than
the metric's `bound` (then no gain or regression that size can be told
from noise). Which direction is better, and each bound, come from the
change checkout's BENCHMARK.json (lower, and no bound, when a metric is not
listed there).

--trace is passed through to run.py: 0 (the default) compares the
end-to-end metrics, 1 the per-layer breakdown (policy_ms, access_work_ms,
...) under the same verdict rule.

Exit status: 0 when every run reported `correct: true` and `failed: 0`;
1 when any run did not, or printed no result; 2 on a usage error.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, args) -> dict:
    """One perfbench run in `checkout`; its last stdout line, parsed."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} "
                           "without a result")
    return json.loads(lines[-1])


def metric_specs(checkout: Path) -> dict:
    """Metric name -> its BENCHMARK.json entry ('better', maybe 'bound')."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def spread(values) -> str:
    """'median [q1, q3]'."""
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(base, change, wins: int, lower: bool, bound) -> str:
    """The gain rule for one metric (see the module docstring)."""
    q1, base_med, q3 = quartiles(base)
    if bound is not None and base_med != 0 and (q3 - q1) / abs(base_med) > bound:
        return "unresolved"
    gap = base_med - statistics.median(change)
    if not lower:
        gap = -gap
    return "gain" if 10 * wins >= 9 * len(base) and gap > q3 - q1 else "no gain"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: compare the per-layer metrics instead")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        ap.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    # Absolute before use: each run's cwd is its checkout, so a relative
    # path would be looked up again inside it.
    args.base = args.base.resolve()
    args.change = args.change.resolve()
    for side in (args.base, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {side}")

    runs = {"base": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            try:
                result = run_side(getattr(args, side), args)
            except (RuntimeError, ValueError) as e:
                print(f"ab_pairs: pair {i + 1} {side}: {e}", file=sys.stderr)
                return 1
            if result.get("correct") is not True or result.get("failed") != 0:
                ok = False
                print(f"ab_pairs: pair {i + 1} {side}: correct="
                      f"{result.get('correct')} failed={result.get('failed')}",
                      file=sys.stderr)
            runs[side].append({k: m["value"] for k, m in result["metrics"].items()})
        base, change = runs["base"][-1], runs["change"][-1]
        for name in (k for k in base if k in change):
            b, c = base[name], change[name]
            ratio = f"{c / b:.3f}" if b != 0 else "n/a"
            print(f"pair {i + 1} ({order[0]} first) {name}: base {b:.6g} "
                  f"change {c:.6g} ratio {ratio}", flush=True)
        print(f"ab_pairs: pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    specs = metric_specs(args.change)
    names = [k for k in runs["base"][0] if all(k in r for r in runs["change"])]
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, "
          f"{args.seconds:g} s per run, trace {args.trace}")
    print(f"{'metric':<16} {'base median [IQR]':>30} {'change median [IQR]':>30} "
          f"{'ratio':>7} {'wins':>7}")
    verdicts = []
    for name in names:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        spec = specs.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(f"{name:<16} {spread(base):>30} {spread(change):>30} {ratio:>7} "
              f"{wins:>4}/{args.pairs}")
        verdicts.append(f"verdict {name}: "
                        f"{verdict(base, change, wins, lower, spec.get('bound'))}")
    print("\n".join(verdicts))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
