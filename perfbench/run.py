#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fig8_median|quarter_daily|serve_paced \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the project and the psbench program
into .bench_build/ (incremental after the first run), generates the seed's
inputs in a process of their own (cached under .bench_build/inputs), then
runs the measurement. The last line of stdout is the JSON result; build
output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fig8_median", "quarter_daily", "serve_paced")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE_TIMEOUT_S = 165
PREPARE_TIMEOUT_S = 120


def check(cmd, timeout=None):
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=timeout)


def build(work):
    build_dir = os.path.join(work, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", build_dir, "-j", jobs,
           "--target", "psbench", "perfbench_serve"])
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no project source tree next to perfbench/")

    work = os.path.join(ROOT, ".bench_build")
    build_dir = build(work)
    psbench = os.path.join(build_dir, "psbench")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    check([psbench, "--prepare"] + common, timeout=PREPARE_TIMEOUT_S)

    measured = subprocess.run(
        [psbench] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--serve-bin", os.path.join(build_dir, "perfbench_serve")],
        stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    sys.stdout.write(measured.stdout)
    sys.stdout.flush()
    lines = measured.stdout.strip().splitlines()
    if measured.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: psbench failed (exit {measured.returncode})")


if __name__ == "__main__":
    main()
