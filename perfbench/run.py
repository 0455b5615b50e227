#!/usr/bin/env python3
"""Build vmig from this checkout and run one perfbench workload.

Usage (from the root of the checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench inside the checkout and is reused
only when it was configured from this same checkout. Build output goes to
standard error, so the benchmark's JSON result stays the last line of
standard output. Exits non-zero, without a result, when the sources are
missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def configured_from(build_dir):
    """Source directory recorded in an existing CMake cache, or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return None


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "vmig.hpp")):
        print("error: no vmig sources at %s/src" % ROOT, file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("error: cmake not found", file=sys.stderr)
        return None
    home = configured_from(BUILD_DIR)
    if home is not None and os.path.realpath(home) != os.path.realpath(BENCH_DIR):
        shutil.rmtree(BUILD_DIR)
    if configured_from(BUILD_DIR) is None:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if run(cmd) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", BUILD_DIR, "-j", jobs]) != 0:
        return None
    exe = os.path.join(BUILD_DIR, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    exe = build()
    if exe is None:
        print("error: perfbench build failed", file=sys.stderr)
        return 2
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
