#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/main.exe with dune
(the shared dune cache is disabled, so the build reads and writes only
inside the tree), then runs it with the same arguments; its last line of
standard output is the result. Exits non-zero without a result when the
tree does not hold the program's sources.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("perfbench: not a source tree (missing %s)\n" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
