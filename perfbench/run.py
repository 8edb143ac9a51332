#!/usr/bin/env python3
"""Build the psnap benchmark from source and run one workload.

Usage, from the root of a psnap checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes through dune into the checkout's own _build directory (the
shared dune cache is switched off, so nothing is written outside the
checkout); its output goes to standard error.  Standard output is the
benchmark's own: human-readable figures, then one JSON object as the last
line.  The exit code is the benchmark's: 0 on success, 1 on a failed
output check, 2 on bad arguments or a tree that is not a psnap checkout.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "core"))):
        print("perfbench: run from the root of a psnap checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
