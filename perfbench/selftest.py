#!/usr/bin/env python3
"""The benchmark's own test: response checking is not vacuous.

Run from the repository root:

    python3 perfbench/selftest.py

A short `serve_mix` run must report no failures; the same run with one
reference deliberately corrupted (`--corrupt-reference`) must report
failures (`fail_frac` > 0) and `"correct": false`. A traced run with
`--corrupt-reference`, which also offsets the server's cache counters the
replay is checked against, must report the counter mismatch and
`"correct": false`. Exits non-zero otherwise.
"""

import json
import subprocess
import sys


def run(*extra, trace="0"):
    cmd = ["python3", "perfbench/run.py", "--workload", "serve_mix", "--seed", "7",
           "--seconds", "2", "--trace", trace, *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def main():
    clean, _ = run()
    if not clean["correct"] or clean["failed"] != 0:
        sys.exit(f"clean run failed {clean['failed']} of {clean['attempted']}")
    corrupt, _ = run("--corrupt-reference")
    if corrupt["correct"] or corrupt["failed"] == 0:
        sys.exit("a corrupted reference went unnoticed")
    traced, err = run("--corrupt-reference", trace="1")
    if traced["correct"] or "cache counters differ" not in err:
        sys.exit("a cache counter mismatch in the traced run went unnoticed")
    print(f"ok: clean run 0 of {clean['attempted']} failed; "
          f"corrupted reference {corrupt['failed']} of {corrupt['attempted']} failed; "
          f"traced run with corrupted cache counters failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
