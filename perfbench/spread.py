#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
measures it.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (--trace 0, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a
share of the median, next to a third of the metric's bound -- the level a
steady benchmark stays under.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        res = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not res["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = "ok" if spread < m["bound"] / 3 else "WIDE"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{args.workload:<13} {m['name']:<12} median={med:<14.6g} "
              f"spread={spread:.4f} bound/3={m['bound'] / 3:.4f} {ok}")
    print(f"{args.workload}: worst spread/bound (setup_s excluded) = "
          f"{worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
