"""Turns perfbench_run's raw measurements into the reported metrics.

Pure functions only, so that perfbench/test_metrics.py can exercise them
without building anything. The metric catalogue (names, units, which way
is better) lives in BENCHMARK.json at the repo root; this module computes
values for exactly the metrics it lists.
"""

import json
import math
import re
import statistics
from fractions import Fraction

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A reported percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# sim_rounds / sim_words are summed over this many leading ops: the same
# inputs in every run of a seed, however fast the ops go.
SIM_PREFIX_OPS = 100


def load_spec(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spec_problems(spec):
    """Reasons the metric catalogue is malformed (empty when it is fine)."""
    problems = []
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for m in spec.get(section, []):
            name = m.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad metric name {name!r}")
            if name in seen:
                problems.append(f"{section}: duplicate metric name {name!r}")
            seen.add(name)
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(f"{name}: bad unit {m.get('unit')!r}")
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"{name}: 'better' must be higher or lower")
            if section == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    return problems


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (exact:
    99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def highest_percentile(n, ladder=PERCENTILE_LADDER, min_beyond=MIN_BEYOND):
    """The highest percentile in `ladder` that leaves at least `min_beyond`
    of n samples beyond it, or None when even the lowest does not."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def min_samples_for(p, min_beyond=MIN_BEYOND):
    """The fewest samples for which the p-th percentile is reportable."""
    n = 1
    while samples_beyond(n, p) < min_beyond:
        n += 1
    return n


def nearest_rank(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p%
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run (--trace 0)."""
    walls = raw["wall_ns"]
    n = len(walls)
    if highest_percentile(n) is None or highest_percentile(n) < 90:
        raise ValueError(
            f"{n} ops leave fewer than {MIN_BEYOND} samples beyond p90")
    if n < SIM_PREFIX_OPS:
        raise ValueError(f"{n} ops, fewer than the {SIM_PREFIX_OPS} summed "
                         "into sim_rounds")
    ms = [w / 1e6 for w in walls]
    return {
        "ops_per_s": n / (sum(walls) / 1e9),
        "op_ms_p50": nearest_rank(ms, 50),
        "op_ms_p90": nearest_rank(ms, 90),
        "sim_rounds": sum(raw["rounds"][:SIM_PREFIX_OPS]),
        "sim_words": sum(raw["words"][:SIM_PREFIX_OPS]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def local_ns_total(t):
    """Traced time outside staging, exchange and relay scheduling."""
    return t["between_ns"] - t["schedule_ns"]


def accounted_ns(t):
    """stage + exchange + schedule + local, summed over traced ops; equals
    t["op_ns"] when the tracer's windows tile every op."""
    return t["stage_ns"] + t["exchange_ns"] + t["schedule_ns"] + \
        local_ns_total(t)


def per_layer(raw):
    """The per-layer metrics of a traced run (--trace 1). Times are per op
    and per rank; counts are per op (stage calls summed over ranks)."""
    t, u = raw["traced"], raw["untraced"]
    ops = t["ops"]
    if ops == 0 or u["ops"] == 0:
        raise ValueError("no traced op completed")
    ranks = raw["env"]["ranks"]
    per_rank_op = ranks * ops

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "routing.schedule_ns": t["schedule_ns"] / per_rank_op,
        "routing.schedule_share": share(t["schedule_ns"], t["op_ns"]),
        "routing.hits": t["schedule_hits"] / ops,
        "routing.misses": t["schedule_misses"] / ops,
        "routing.shapes": t["shapes"] / per_rank_op,
        "routing.shapes_repeat_cross_op": t["shapes_repeat"] / per_rank_op,
        "transport.exchange_ns": t["exchange_ns"] / per_rank_op,
        "transport.exchange_ns_per_superstep":
            share(t["exchange_ns"], t["delivers"]),
        "transport.supersteps": t["delivers"] / per_rank_op,
        "transport.words": t["delivered_words"] / per_rank_op,
        "transport.stage_ns": t["stage_ns"] / per_rank_op,
        "transport.stage_calls": t["stage_calls"] / ops,
        "socket.exchange_skew_share":
            share(t["exchange_skew_ns"] * ranks, t["exchange_ns"]),
        "socket.schedule_ns_all_ranks": t["schedule_ns"] / ops,
        "local.ns": local_ns_total(t) / per_rank_op,
        "local.share": share(local_ns_total(t), t["op_ns"]),
        "parallel.sys_s": u["sys_ns"] / 1e9 / ops,
        "parallel.cpu_util": share(u["user_ns"] + u["sys_ns"], u["wall_ns"]),
        "parallel.ctx_switches": u["ctx_switches"] / u["ops"],
        "network.router_overhead": share(t["rounds"], t["bound_rounds"]),
        "network.supersteps": t["supersteps"] / ops,
        "dispatch.calls": t["dispatch_calls"] / ops,
        "dispatch.sparse_share": share(t["dispatch_sparse"],
                                       t["dispatch_calls"]),
        "trace.overhead": t["wall_ns"] / u["wall_ns"] - 1.0,
        "trace.op_ns": t["op_ns"] / per_rank_op,
    }


def result(spec, raw):
    """The benchmark's final JSON object for one run."""
    trace = raw["trace"]
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(raw) if trace else end_to_end(raw)
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = raw["failed"] == 0 and not raw["aborted"]
    if trace and accounted_ns(raw["traced"]) != raw["traced"]["op_ns"]:
        correct = False
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
