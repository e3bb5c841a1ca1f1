#!/usr/bin/env python3
"""Builds the Why-question benchmark from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload answ_imdb --seed 1 --seconds 20 --trace 0

Every argument after the script name is passed to the benchmark binary, so
the extra modes work the same way:

  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --workload answ_imdb --seed 1 --seconds 20 \
      --trace 0 --config answb

The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the current directory. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("error: library sources (src/) not found under %s\n" % root)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("error: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "wqe_perfbench")


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 2
    done = subprocess.run([binary] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
