#!/usr/bin/env python3
"""Builds the FANNet benchmark from source and runs one workload.

usage: python3 perf/run.py [--rate R] [--limit-ms L]
           --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and compiles
perf/CMakeLists.txt (the repository's `fannet` library plus fannet_perf) into
.bench_build/perf; later calls only rebuild what changed.  Build output goes
to stderr, so the last line of stdout is fannet_perf's JSON result.  Exits
non-zero, without a result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perf")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                       check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perf/run.py: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "fannet_perf")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
