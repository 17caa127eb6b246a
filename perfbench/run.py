#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload suite-depol [--seed N] \
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest      # the benchmark's own tests
    python3 perfbench/run.py --regen-refs    # recompute exact references

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (which compiles ../src itself) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  The last line
of stdout is the result JSON: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "core" / "tqsim.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4", "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", proc.returncode or 1)
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--regen-refs", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_test"))],
                                check=False).returncode)
    binary = build("perfbench")
    refs = BENCH_DIR / "refs"
    if args.regen_refs:
        sys.exit(subprocess.run([str(binary), "--regen-refs", "--refs",
                                 str(refs)],
                                check=False).returncode)
    if not args.workload:
        fail("--workload is required")

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--refs", str(refs)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir() / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(line for line in lines if line.startswith("#")))
        fail(f"benchmark exited with {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
