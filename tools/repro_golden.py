#!/usr/bin/env python3
"""The reproduction's results gate: the full `repro` report against its golden.

    python3 tools/repro_golden.py REPRO [--jobs N] [--update]

Runs `REPRO` (with `--jobs N` when given), drops the lines that are host
timings (Table VI's measured-ms rows and the DELTA tick line) and compares
the rest with tests/golden/repro.txt byte for byte. Every
simulation is deterministic and its output is the same at any --jobs, so
any difference is a changed result: the script prints a unified diff and
exits 1. --update rewrites the golden from this run instead; a change that
moves results does that and says why in CHANGES.md.

Exit status: 0 on a match (or after --update), 1 on a mismatch or a failed
repro run, 2 on a usage error.
"""
import argparse
import difflib
import os
import re
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests",
                      "golden", "repro.txt")

# Table VI's "cores  lookahead(ms)  peekahead(ms)  la steps  pa steps" rows
# and the "DELTA inter+intra tick ... ms per invocation" line.
HOST_TIMING = re.compile(r"^[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9]+ +[0-9]+ *$|ms per invocation$")


def filtered(report: str) -> str:
    return "".join(line for line in report.splitlines(keepends=True)
                   if not HOST_TIMING.search(line.rstrip("\n")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("repro", help="path to the built repro binary")
    ap.add_argument("--jobs", type=int, help="passed to repro as --jobs N")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from this run instead of comparing")
    args = ap.parse_args()

    command = [args.repro]
    if args.jobs is not None:
        command += ["--jobs", str(args.jobs)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, encoding="utf-8")
    except OSError as e:
        print(f"repro_golden: cannot run {args.repro}: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"repro_golden: {' '.join(command)} exited {run.returncode}", file=sys.stderr)
        return 1
    actual = filtered(run.stdout)

    if args.update:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(actual)
        print(f"repro_golden: wrote {os.path.normpath(GOLDEN)}")
        return 0

    try:
        with open(GOLDEN, encoding="utf-8") as f:
            golden = f.read()
    except OSError as e:
        print(f"repro_golden: cannot read the golden: {e}", file=sys.stderr)
        return 1
    if actual == golden:
        print(f"repro_golden: {' '.join(command)} matches the golden")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        golden.splitlines(keepends=True), actual.splitlines(keepends=True),
        "tests/golden/repro.txt", " ".join(command)))
    print("repro_golden: results differ from the golden; if the change is meant, "
          "rerun with --update and say why in CHANGES.md", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
