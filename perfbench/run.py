#!/usr/bin/env python3
"""Builds and runs the paper-scale run->detect benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sampled-apps|full-log|sync-heavy|all \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` at the repository root when that is
unset, then runs it with the given arguments. Cargo's own output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Log files and the traced run's span dump go to `.bench_work` at the
repository root. Exits non-zero if the build fails (printing no result) or
if any program run fails its correctness check (the result then reads
"correct": false).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(root, ".bench_work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
