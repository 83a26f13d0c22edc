#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 asrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (asrbench/main.ml) is built with dune from the
checkout's own sources, then run with the same arguments.  Build output
goes to standard error, so the last line of standard output is the
program's JSON result line.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGET = os.path.join("asrbench", "main.exe")


def fail(msg):
    print("asrbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("asrbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode)
    exe = os.path.join("_build", "default", TARGET)
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
