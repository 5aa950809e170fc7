#!/usr/bin/env python3
"""Build and run the HTAP benchmark.

Run from the root of a checkout:

    python3 htapbench/run.py --workload tpcc --seed 1 --seconds 10 --trace 0

Workloads: tpcc, tpch, chbench (see htapbench/README.md). The first run
configures and builds htapbench/ -- a CMake project that compiles the
engine from src/ and bench/workloads/ in Release mode -- under
$CARGO_TARGET_DIR (default .bench_build) in the checkout; later runs only
re-check the build. The benchmark's databases live in a directory under
the same build root and are removed when the run ends.

The last line of stdout is the benchmark's JSON result. Build output goes
to stderr. The exit code is the benchmark's (0 ok, 1 failed output check,
2 failed phase); any failure to build or to finish in time exits 2.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
REQUIRED_SOURCES = ("src/engine/database.h", "bench/workloads/tpcc.h")


def fail(message):
    print(f"htapbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    for path in REQUIRED_SOURCES:
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"{path} not found: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if run(configure, BUILD_TIMEOUT_S, sys.stderr) != 0:
            fail("configuring the benchmark failed")
    if run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
           BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "htapbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tpcc", "tpch", "chbench"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "htapbench"))

    data_dir = os.path.join(build_root, f"htapbench-data-{os.getpid()}")
    os.makedirs(data_dir, exist_ok=True)
    try:
        sys.stdout.flush()
        code = run([binary, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--data-dir", data_dir],
                   RUN_TIMEOUT_S, None)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 2)


if __name__ == "__main__":
    main()
