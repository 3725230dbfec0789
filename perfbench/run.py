#!/usr/bin/env python3
"""Builds the compile-and-serve benchmark from the checkout and runs it.

Usage (from anywhere inside a checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The project library, the sgpu-served daemon and the benchmark driver are
built with CMake into .bench_build/ at the root of the checkout (build
output goes to standard error), then the driver runs with the same
arguments from the root of the checkout. Its last line of standard output
is the result object; README.md in this directory describes it.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures once, then builds the two programs a run needs."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            stdout=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    return subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4",
         "--target", "sgpu-perfbench", "sgpu-served"],
        stdout=sys.stderr).returncode


def main():
    os.chdir(ROOT)
    status = build()
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status
    status = subprocess.run(
        [os.path.join(BUILD, "sgpu-perfbench")] + sys.argv[1:]).returncode
    try:
        os.rmdir(os.path.join(ROOT, ".bench_run"))  # Only when empty.
    except OSError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
