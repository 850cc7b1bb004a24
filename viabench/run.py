#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 viabench/run.py --workload replay|stream|serve --seed N \
        --seconds S --trace 0|1
    python3 viabench/run.py --selftest

Run from the root of a checkout.  Every call configures viabench/ (and
with it the library under src/) as a Release build under $CARGO_TARGET_DIR,
or .bench_build when that is unset, and builds it; on a configured tree
that only rebuilds what changed.  CMake refuses a build directory
configured from another source tree, so two checkouts cannot share one:
give each its own.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no result,
when the sources are missing, the build fails or the run fails.
"""

import os
import subprocess
import sys

# A run measures for at most viabench's own --seconds cap (120 s); set-ups,
# checked replays and the serve drain fit in the rest.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"viabench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources not found: run from the root of a checkout")
    configure = ["cmake", "-S", os.path.join(root, "viabench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail(f"cmake configure failed (is {build_dir} a build of another source tree?)", 1)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    if not selftest and "--workload" not in args:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 | --selftest")
    build(root, build_dir)
    binary = os.path.join(build_dir, "viabench_selftest" if selftest else "viabench")
    if not os.path.isfile(binary):
        fail(f"{binary} was not built", 1)
    command = [binary] if selftest else [binary] + args
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
