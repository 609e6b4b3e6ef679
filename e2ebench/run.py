#!/usr/bin/env python3
"""Builds the outside-in benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The first call configures and builds the
library sources and the e2ebench binary (Release) into
.bench_build/e2ebench; later calls only re-check the configuration and the
build. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Any further arguments (for example --size tiny) are
passed to the binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    # Configuring again over an existing cache is quick, and it recovers
    # from a configure step that failed part-way.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    result = subprocess.run([BINARY, *sys.argv[1:], "--work-dir", work])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
