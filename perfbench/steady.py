#!/usr/bin/env python3
"""Runs one workload repeatedly and reports how steady its metrics are.

    python3 perfbench/steady.py --workload search --runs 10

Run i uses seed i and lasts run_seconds from BENCHMARK.json. Before every
run a fixed arithmetic loop owned by this script is timed for one second; its
spread is the host's own, and shows how much of a metric's spread comes
from the machine rather than the program. For every metric the summary
prints the median, the quartiles (statistics.quantiles, n=4) and the
inter-quartile range as a share of the median.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SECONDS = json.load(f)["run_seconds"]


def host_loop_rate(seconds=1.0):
    """Iterations per second of a fixed integer loop."""
    n = 0
    x = 1
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for _ in range(1000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        n += 1000
    return n / seconds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    runs = []
    for seed in range(1, args.runs + 1):
        rate = host_loop_rate()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(out.stdout, file=sys.stderr)
            sys.exit(f"run with seed {seed} failed (exit {out.returncode})")
        result = json.loads(last)
        steal = next(float(l.split()[3]) for l in out.stdout.splitlines()
                     if l.startswith("# host steal:"))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"host_loop_per_s": rate, "host_steal": steal, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": metrics})
        shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
        print(f"seed {seed}: host {rate:.4g}/s steal {steal:.3f} attempted {result['attempted']} "
              f"failed {result['failed']} {shown}", flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {SECONDS} s")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}")
    names = list(runs[0]["metrics"])
    rows = [("host_loop_per_s", [r["host_loop_per_s"] for r in runs]),
            ("host_steal", [r["host_steal"] for r in runs])]
    rows += [(n, [r["metrics"][n] for r in runs]) for n in names]
    for name, values in rows:
        med, q1, q3, share = spread(values)
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:11.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
