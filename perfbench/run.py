#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build is plain dune; its output goes to
standard error, so the last line of standard output is the result object
printed by perfbench.exe.  In a directory that does not hold the
repository's sources the build fails and this exits non-zero.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    # the shared dune cache lives outside the checkout; keep every write in it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
