#!/usr/bin/env python3
"""Wall time, CPU time and peak memory of one command.

    python3 tools/cost.py [--stdout FILE] -- COMMAND [ARGS...]

Runs COMMAND to completion and then prints one JSON line: `wall_s` (wall
seconds), `user_s` and `sys_s` (the CPU seconds of the command and every
process it waited for, from getrusage(RUSAGE_CHILDREN)), `max_rss_mb` (the
largest resident set of any one of them, in MiB) and `exit` (COMMAND's exit
status). The command's stderr passes through; its stdout does too, unless
--stdout saves it to FILE instead, so that the JSON line is the last line
of this script's stdout either way.

Exit status: COMMAND's, or 2 on a usage error or a command that cannot be
started.
"""
import argparse
import json
import resource
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stdout", help="file to write the command's stdout to")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")
    out = open(args.stdout, "w") if args.stdout else None
    try:
        t0 = time.monotonic()
        code = subprocess.run(command, stdout=out).returncode
        wall = time.monotonic() - t0
    except OSError as e:
        print(f"cost.py: cannot run {command[0]}: {e}", file=sys.stderr)
        return 2
    finally:
        if out is not None:
            out.close()
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout.flush()
    print(json.dumps({"wall_s": round(wall, 3), "user_s": round(ru.ru_utime, 3),
                      "sys_s": round(ru.ru_stime, 3),
                      "max_rss_mb": round(ru.ru_maxrss / 1024, 1), "exit": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
