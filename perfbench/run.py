#!/usr/bin/env python3
"""Build and run the mwsec end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
mwsec libraries and the benchmark program from source into .bench_build/
(CMake, RelWithDebInfo); later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the program's JSON
result. The workloads and metrics are listed in BENCHMARK.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")


def build():
    """Configure once, then build the benchmark program; exit on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mwsec sources next to %s; "
                 "run from a full checkout" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")


def main():
    build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    args = [PROGRAM] + sys.argv[1:] + ["--trace-dir", traces]
    return subprocess.call(args)


if __name__ == "__main__":
    sys.exit(main())
