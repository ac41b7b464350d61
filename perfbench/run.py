#!/usr/bin/env python3
"""The repository benchmark: dvvd client traffic, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rmw_uniform --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it the library sources under src/) with
CMake in Release mode, then runs the perfbench binary, whose last line
of output is the result JSON.  The build directory is
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset.  --trace 1 runs the traced variant with DVV_METRICS=on and writes
its spans next to the build.  Exits non-zero, without a result, when
the program sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmw_uniform", "read_mostly", "sibling_storm", "ring_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="scaled-down workload (the benchmark's own tests)")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    env = dict(os.environ)
    env["DVV_METRICS"] = "on" if args.trace == 1 else "off"
    # The store configuration is explicit; keep process-wide defaults out.
    for var in ("DVV_MECHANISM", "DVV_TRANSPORT", "DVV_STORE_BACKEND",
                "DVV_FLIGHT_RECORDER"):
        env.pop(var, None)
    if args.trace == 1:
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
