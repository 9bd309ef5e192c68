#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload compile-mix --seed 1 --seconds 25 --trace 0

Run it from the repository root: the benchmark is a Cargo package of its
own whose path dependencies are the repository's crates. Build output goes
to $CARGO_TARGET_DIR (default `.bench_build`), and the serve workload's
cache directories to a scratch directory inside it. Arguments are passed
through to the benchmark binary; its exit code is this script's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env.setdefault("PERFBENCH_TMP", os.path.join(target, "perfbench-tmp"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
