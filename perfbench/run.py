#!/usr/bin/env python3
"""Build and run the DirQ benchmark from the root of a checkout.

    python3 perfbench/run.py --workload run_20k|serve_mixed \
        --seed N --seconds S --trace 0|1

Builds `perfbench/` (a Cargo package of its own, offline, release) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload in a
fresh process. The benchmark prints a metric table and, as its last line,
one JSON result object; a failed build, a failed correctness gate or a
run over the time limit exits non-zero without a result line.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "dirq-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
