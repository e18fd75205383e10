#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Run from the root of a gnnperf checkout:

    python3 perfbench/spread.py --workload enzymes_gatedgcn --seeds 1-5

For every metric of the result line it prints the median over the seeds
and the spread: the interquartile range (statistics.quantiles, n=4) as
a share of the median, then each run's value over the median, in seed
order. It also prints the wall time of each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, "
              f"correct={result['correct']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:40s} median {med:14.6g}  spread {spread:.3f}  "
              f"runs/median: {' '.join(f'{v / med:.2f}' for v in vals)}")


if __name__ == "__main__":
    main()
