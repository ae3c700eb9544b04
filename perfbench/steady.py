#!/usr/bin/env python3
"""Runs one workload on several seeds and reports how steady its metrics are.

Run from the repository root:

    python3 perfbench/steady.py --workload serve_mix --seeds 1-10 [--save FILE]
    python3 perfbench/steady.py --compare FILE_A FILE_B

For each end-to-end metric it prints the median of the runs and the spread:
the distance between the first and third quartile (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound in BENCHMARK.json. A benchmark is steady when every spread
is below a third of its bound; the script exits 1 otherwise. `--compare`
checks that the second set's medians are no worse than the first's by more
than the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def report(bench, results):
    steady = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med, sp = spread(values)
        ok = sp < bound / 3
        steady &= ok
        print(f"{name:<18} median {med:<14.6g} spread {sp:7.4f}  bound {bound:5.2f}  {'ok' if ok else 'WIDE'}")
    return steady


def compare(bench, a, b):
    fine = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        ok = worse <= bound
        fine &= ok
        print(f"{name:<18} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:+.4f} (bound {bound:.2f}) {'ok' if ok else 'WORSE'}")
    return fine


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            a, b = json.load(fa), json.load(fb)
        for w in sorted(set(a) & set(b)):
            print(f"== {w}")
            if not compare(bench, a[w], b[w]):
                return 1
        return 0
    results = [run(bench, args.workload, s) for s in seeds(args.seeds)]
    if args.save:
        try:
            with open(args.save) as f:
                saved = json.load(f)
        except FileNotFoundError:
            saved = {}
        saved[args.workload] = results
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
