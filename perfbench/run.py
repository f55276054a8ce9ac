#!/usr/bin/env python3
"""The repo benchmark: simulator host time on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repo root. Builds perfbench_run (the library through the
repo's own CMakeLists.txt, Release) under .bench_build/ -- or under
$CARGO_TARGET_DIR when set -- runs workload W as a closed loop for T
seconds, checks every op's outputs, prints a readable summary and, as the
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both, with units). Exits non-zero when the program
cannot be built or run, or when any op failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("mm_cold", "apsp_arena", "apsp_socket4", "kcycle")
RUN_TIMEOUT_S = 170
# --trace 1 runs each input twice; this many pairs at least.
TRACED_MIN_PAIRS = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configures (once) and builds perfbench_run; returns its path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_run",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench_run"


def summary(raw, res, spec, trace_file):
    """Human-readable lines (printed before the JSON line)."""
    env = raw["env"]
    lines = [
        f"perfbench {raw['workload']} seed={raw['seed']} trace={raw['trace']}"
        f" nproc={env['nproc']} ranks={env['ranks']}"
        f" CCA_THREADS/rank={env['cca_threads_per_rank']}"
        f" compiler={env['compiler']!r} build={env['build_type']}",
        f"  attempted={raw['attempted']} failed={raw['failed']}"
        f" fail_ratio={raw['failed'] / max(1, raw['attempted']):.4f} ratio",
    ]
    lines += [f"  error: {e}" for e in raw["errors"]]
    if raw["aborted"]:
        lines.append(f"  aborted: {raw['aborted']}")
    if raw["trace"] == 0 and raw["wall_ns"]:
        n = len(raw["wall_ns"])
        lines.append(f"  samples={n} (p90 needs {metrics.min_samples_for(90)};"
                     f" highest reportable percentile:"
                     f" p{metrics.highest_percentile(n)})"
                     f" sim_* summed over the first "
                     f"{metrics.SIM_PREFIX_OPS} ops;"
                     f" setup_s is the median of {len(raw['setup_s'])}")
    if raw["trace"] == 1:
        t = raw["traced"]
        lines.append(
            f"  traced ops={t['ops']} (each paired with an untraced twin);"
            f" layers account for {metrics.accounted_ns(t)} of"
            f" {t['op_ns']} traced ns; self ns by span:"
            f" {raw['rollup_self_ns']} spans dropped={raw['spans_dropped']}"
            f" allgather_ns={t['allgather_ns']}")
        lines.append(f"  Chrome trace: {trace_file}")
    units = {m["name"]: m["unit"] for s in ("end_to_end", "per_layer")
             for m in spec[s]}
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:>16.6g} {units[name]}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = metrics.load_spec(ROOT / "BENCHMARK.json")
    problems = metrics.spec_problems(spec)
    if problems:
        log("BENCHMARK.json:", *problems)
        return 2
    try:
        exe = build()
    except (OSError, RuntimeError) as e:
        log(f"perfbench: cannot build: {e}")
        return 1

    trace_file = build_dir() / f"trace-{args.workload}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_file),
           "--min-ops", str(metrics.SIM_PREFIX_OPS if args.trace == 0
                            else TRACED_MIN_PAIRS)]
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: perfbench_run exited {done.returncode} "
            f"without output")
        return 1
    raw = json.loads(lines[-1])
    try:
        res = metrics.result(spec, raw)
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    print(summary(raw, res, spec, trace_file))
    print(f"  run wall {time.monotonic() - t0:.1f} s")
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
