#!/usr/bin/env python3
"""Builds the service benchmark from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <delegate-mix|report-durable|
        follower-transitive> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from ../src with its own CMake project into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr; the benchmark's own output is passed through unchanged, so
the last line of stdout is its JSON result. The exit code is the
benchmark's: 0 only when every correctness gate passed.
"""

import os
import subprocess
import sys

# The run is killed after RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_SECOND *
# --seconds. On a 4-vCPU VM the slowest workload (delegate-mix, traced)
# spends ~35 s in set-up and the per-layer decomposition, and its
# reference replay takes ~0.7 s per timed second; the allowance covers a
# host 2.5 times slower. At --seconds 10 it is 170 s.
RUN_TIMEOUT_FIXED_S = 90
RUN_TIMEOUT_PER_SECOND = 8


def run_timeout(args: list) -> float:
    """The kill deadline for a run given the benchmark's arguments."""
    seconds = 0
    if "--seconds" in args:
        index = args.index("--seconds")
        if index + 1 < len(args) and args[index + 1].isdigit():
            seconds = int(args[index + 1])
    return RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_SECOND * seconds


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no src/CMakeLists.txt beside perfbench/; run from a "
              "full source checkout", file=sys.stderr)
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "siot_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "siot_perfbench"), *sys.argv[1:],
               "--workdir", os.path.join(build_dir, "run")]
    timeout = run_timeout(sys.argv[1:])
    process = subprocess.Popen(command, cwd=root)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout}s", file=sys.stderr)
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
