#!/usr/bin/env python3
"""Builds `srl` and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 15 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). Cargo's
messages go to standard error, so the last line of standard output is the
benchmark's JSON result. Any failure exits non-zero without printing one.
"""

import os
import subprocess
import sys

BUILDS = [
    ["cargo", "build", "--release", "--offline", "--quiet", "-p", "srl-cli"],
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", "perfbench/Cargo.toml"],
]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in BUILDS:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
