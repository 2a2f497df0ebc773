#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
benchmark (and the program, from ../src) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr; the benchmark's last line of standard output
is its JSON result.  See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    if not os.path.isdir(os.path.join(REPO, "src")):
        print("perfbench: the program's sources (src/) are not here",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    # A fresh scratch directory per run: the audit stream of one run must
    # not be the start of the next one's file.
    scratch = os.path.join(build_root, "run")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    run = subprocess.run(
        [os.path.join(build_dir, "perfbench"), *sys.argv[1:], "--scratch", scratch])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
