#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig4-ft --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list

Every argument is passed to the program. The Go build cache, temporary
files and the binary live under the build directory (CARGO_TARGET_DIR if
set, else .bench_build at the repository root), so nothing is written
outside the checkout. The first run compiles the standard library into
that cache; later runs reuse it.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
    )
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    except FileNotFoundError:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, "-root", ROOT] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
