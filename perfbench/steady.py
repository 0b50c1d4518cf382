#!/usr/bin/env python3
"""Run one workload N times on N seeds and print each metric's spread.

    python3 perfbench/steady.py --workload fleet_storm --runs 10 [--first-seed 1]
                                [--seconds 45] [--trace 0|1]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json. Bounds are set from these
measurements: a spread should stay below a third of its bound. Run from the
root of a checkout; each run goes through run.py, so it also checks outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["correct"]
        shown = " ".join(f"{name}={m['value']:.5g}"
                         for name, m in result["metrics"].items() if name in bounds)
        print(f"seed {seed}: {'ok' if ok else 'FAILED'} "
              f"({result['failed']}/{result['attempted']} failed) {shown}", flush=True)
        if not ok:
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:44} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}  {units[name]}")


if __name__ == "__main__":
    main()
