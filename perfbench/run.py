#!/usr/bin/env python3
"""Build and run the gnnperf measured-clock training benchmark.

Run from the root of a gnnperf checkout:

    python3 perfbench/run.py --workload enzymes_gatedgcn --seed 1 \
        --seconds 20 --trace 0

The benchmark is compiled from this checkout's sources (perfbench/
CMakeLists.txt pulls in src/) into .bench_build/perfbench, reusing the
build on later runs. Build output goes to stderr; the benchmark's own
report goes to stdout and ends with one JSON line of metrics.
Exits non-zero, without a result, when the checkout has no gnnperf
sources or the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(3)


def run_logged(cmd):
    """Run a build command with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gnnperf sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One builder at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"]):
                fail("cmake configure failed")
        if not run_logged(["cmake", "--build", BUILD, "--target",
                           "perfbench", "-j", jobs]):
            fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt"),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
