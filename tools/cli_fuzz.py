#!/usr/bin/env python3
"""Drawn malformed command lines against the CLIs.

Usage: cli_fuzz.py BUILD_DIR [--cases N] [--seed S]

Runs build/tools/delta_sim, build/tools/delta_fuzz, build/bench/repro and
build/bench/micro_throughput with argv drawn from a seeded generator.  Each
case is one program's short valid command line plus one fault: an unknown or
repeated flag, a missing value, a non-numeric, negative, fractional or
overflowing number, or an empty path.  A case passes when the program exits
with its bad-input code (1 for delta_sim, 2 for the others) and exactly one
line on stderr; a signal, a sanitizer report, no exit within TIMEOUT_S, any
other exit code or a longer stderr fails it.

No case can start many threads: thread counts (--jobs, --intra-jobs,
--threads, DELTA_JOBS) are drawn only as invalid text or from {0, 1, 2}, and
every base command line is the smallest run its program has (delta_sim at
--warmup 0 --epochs 1), so an argv a program wrongly accepts still ends
quickly.  Prints one line per failing case, with the argv to replay it, and
exits 1 if any case failed.
"""
import argparse
import os
import random
import subprocess
import sys

# Value flags by kind: "int" a decimal integer (with its valid values),
# "u64" a seed, "ms" delta_sim's interval in ms, "threads" a thread count,
# "text" a name, "path" an output file or directory.
PROGRAMS = {
    "delta_sim": {
        "path": "tools/delta_sim",
        "rejects": 1,
        "base": ["--mix", "w2", "--scheme", "snuca", "--warmup", "0", "--epochs", "1"],
        "flags": {
            "epochs": ("int", ["1"]), "warmup": ("int", ["0"]),
            "cores": ("int", ["16"]), "interleave-batch": ("int", ["0", "16"]),
            "central-ms": ("ms", ["1"]), "seed": ("u64", ["1", "0x10"]),
            "jobs": ("threads", None), "intra-jobs": ("threads", None),
            "mix": ("text", ["w2"]), "scheme": ("text", ["snuca"]),
            "trace-out": ("path", None), "timeline-csv": ("path", None),
            "prof-out": ("path", None), "metrics-out": ("path", None),
        },
        "switches": ["csv"],
    },
    "delta_fuzz": {
        "path": "tools/delta_fuzz",
        "rejects": 2,
        "base": ["--seeds", "1", "--no-determinism", "--no-differential"],
        "flags": {
            "seeds": ("int", ["1"]), "sweep-interval": ("int", ["0", "4"]),
            "seed-base": ("u64", ["5"]), "repro": ("u64", ["202"]),
            "threads": ("threads", None), "intra-jobs": ("threads", None),
            "out-dir": ("path", None), "prof-out": ("path", None),
            "metrics-out": ("path", None),
        },
        "switches": ["no-invariants", "no-lockstep"],
    },
    "repro": {
        "path": "bench/repro",
        "rejects": 2,
        "base": ["--fig", "table5"],
        "flags": {
            "jobs": ("threads", None), "fig": ("text", ["table5"]),
            "out": ("path", None), "prof-out": ("path", None),
            "metrics-out": ("path", None),
        },
        "switches": ["quick"],
    },
    "micro_throughput": {
        "path": "bench/micro_throughput",
        "rejects": 2,
        "base": ["--quick", "--reps", "1"],
        "flags": {
            "reps": ("int", ["1"]), "jobs": ("threads", None),
            "prof-out": ("path", None), "metrics-out": ("path", None),
        },
        "switches": ["quick"],
    },
}

UNKNOWN = ["--bogus", "--epoch", "--EPOCHS", "--prof-level", "--obs-level",
           "--intra-pin", "-epochs", "-j", "stray"]
NON_NUMERIC = ["abc", "1e3", "0x", "5x", " 5", "--"]
NEGATIVE = ["-1", "-16", "-2147483648"]
FRACTIONAL = ["1.5", "0.5", "16.0"]
OVERFLOW = ["2147483648", "99999999999999999999", "18446744073709551616"]
# Text that is no thread count; the valid counts stay at {0, 1, 2}.
BAD_THREADS = ["abc", "-1", "1.5", "2x", "99999999999999999999", ""]
# delta_sim's interval takes fractions down to one epoch (0.1 ms) and
# exponents, so only these are malformed.
BAD_MS = ["abc", "0x", "5x", " 5", "--", "0.05", "0", "-1", "1e12", "1e400", "nan"]
# Every bad command line fails before any work, in milliseconds even under
# ASan; a program that wrongly accepts one still ends well within this.
TIMEOUT_S = 60
SANITIZER_MARKS = ("AddressSanitizer", "UndefinedBehaviorSanitizer",
                   "LeakSanitizer", "runtime error:")


def bad_number(rng, kind):
    """A malformed value for a numeric flag of `kind`."""
    if kind == "ms":
        return rng.choice(BAD_MS)
    if kind == "threads":
        return rng.choice(BAD_THREADS)
    pool = NON_NUMERIC + NEGATIVE + FRACTIONAL + OVERFLOW
    if kind == "u64":
        pool = [v for v in pool if v != "2147483648"]  # A valid seed.
    return rng.choice(pool)


def valid_value(rng, kind, values):
    return rng.choice(["0", "1", "2"]) if kind == "threads" else rng.choice(values)


def draw_case(rng, name):
    """(argv, env, fault) for one malformed command line of `name`."""
    prog = PROGRAMS[name]
    argv = list(prog["base"])
    env = {}
    flags = prog["flags"]
    valued = [f for f, (k, _) in flags.items() if k != "path"]
    numeric = [f for f in valued if flags[f][0] != "text"]
    # delta_sim's corpus leans on the flags that size a run.
    if name == "delta_sim" and rng.random() < 0.5:
        numeric = ["epochs", "warmup", "cores", "central-ms", "interleave-batch"]
    fault = rng.choice(["unknown", "repeated", "missing", "number", "empty-path"])

    def drop(flag):
        # Removes a base occurrence, so the fault is the only one.
        if "--" + flag in argv:
            i = argv.index("--" + flag)
            del argv[i:i + 2]

    def set_flag(flag, value):
        drop(flag)
        if rng.random() < 0.3:
            argv.append(f"--{flag}={value}")
        else:
            argv.extend(["--" + flag, value])

    if fault == "unknown":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(UNKNOWN))
    elif fault == "repeated":
        if rng.random() < 0.3:
            switch = rng.choice(prog["switches"])
            argv += ["--" + switch, "--" + switch]
        else:
            flag = rng.choice(valued)
            kind, values = flags[flag]
            set_flag(flag, valid_value(rng, kind, values))
            argv += ["--" + flag, valid_value(rng, kind, values)]
    elif fault == "missing":
        flag = rng.choice(valued)
        drop(flag)
        # Last, or first and so followed by a flag: never a value.
        argv.insert(len(argv) if rng.random() < 0.5 else 0, "--" + flag)
    elif fault == "number":
        flag = rng.choice(numeric)
        set_flag(flag, bad_number(rng, flags[flag][0]))
    else:
        set_flag(rng.choice([f for f, (k, _) in flags.items() if k == "path"]), "")
    # Some harness runs also read DELTA_JOBS: keep it to {0, 1, 2} or junk.
    if name in ("repro", "micro_throughput") and rng.random() < 0.3:
        env["DELTA_JOBS"] = rng.choice(["0", "1", "2", "abc", "-1"])
        fault += "+DELTA_JOBS"
    return argv, env, fault


def run_case(build_dir, name, argv, env):
    """None when the case passes, else why it failed."""
    cmd = [os.path.join(build_dir, PROGRAMS[name]["path"]), *argv]
    full_env = {k: v for k, v in os.environ.items() if k != "DELTA_JOBS"}
    full_env.update(env)
    try:
        r = subprocess.run(cmd, capture_output=True, encoding="utf-8",
                           errors="replace", timeout=TIMEOUT_S, env=full_env,
                           stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT_S} s"
    if r.returncode < 0:
        return f"killed by signal {-r.returncode}"
    if any(mark in r.stderr for mark in SANITIZER_MARKS):
        return "sanitizer report: " + r.stderr.strip().splitlines()[0]
    if r.returncode != PROGRAMS[name]["rejects"]:
        return f"exit {r.returncode}, not {PROGRAMS[name]['rejects']}"
    lines = r.stderr.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} stderr lines: {r.stderr.strip()[:200]!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir")
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.cases < 1:
        ap.error("--cases must be >= 1")
    for prog in PROGRAMS.values():
        path = os.path.join(args.build_dir, prog["path"])
        if not os.access(path, os.X_OK):
            ap.error(f"no executable {path}")

    rng = random.Random(args.seed)
    names = sorted(PROGRAMS)
    failures = 0
    for i in range(args.cases):
        name = names[i % len(names)]
        argv, env, fault = draw_case(rng, name)
        why = run_case(args.build_dir, name, argv, env)
        if why is not None:
            failures += 1
            prefix = "".join(f"{k}={v} " for k, v in env.items())
            print(f"FAIL case {i} ({fault}): {prefix}{name} {argv!r}: {why}")
    print(f"cli_fuzz: {args.cases} case(s), {failures} failure(s), seed {args.seed}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
