"""Tests of the benchmark's own logic: percentile selection, the metric
catalogue in BENCHMARK.json, and result assembly.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics

SPEC = metrics.load_spec(Path(__file__).resolve().parent.parent /
                         "BENCHMARK.json")


def fake_sums(**overrides):
    base = {
        "ops": 4, "wall_ns": 400, "rounds": 40, "bound_rounds": 20,
        "supersteps": 8, "words": 800, "schedule_hits": 6,
        "schedule_misses": 2, "dispatch_calls": 4, "dispatch_sparse": 1,
        "schedule_ns": 100, "user_ns": 300, "sys_ns": 100,
        "ctx_switches": 12, "exchange_skew_ns": 0, "op_ns": 400,
        "stage_ns": 50, "exchange_ns": 70, "allgather_ns": 0,
        "between_ns": 280, "stage_calls": 64, "delivers": 8,
        "delivered_words": 800, "shapes": 4, "shapes_repeat": 2,
    }
    base.update(overrides)
    return base


def fake_raw(trace, n=120):
    return {
        "workload": "mm_cold", "seed": 1, "trace": trace,
        "env": {"nproc": 4, "ranks": 1, "cca_threads_per_rank": 2,
                "compiler": "GNU", "build_type": "Release"},
        "setup_s": [0.3, 0.1, 0.2], "attempted": n, "failed": 0,
        "errors": [], "aborted": "",
        "wall_ns": [1_000_000 * (i + 1) for i in range(n)],
        "rounds": [3] * n, "words": [7] * n,
        "traced": fake_sums(), "untraced": fake_sums(op_ns=0),
        "rollup_self_ns": {}, "spans_dropped": 0, "peak_rss_kb": 2048,
    }


class PercentileSelection(unittest.TestCase):
    def test_counts_samples_beyond_the_nearest_rank(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)

    def test_picks_the_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.highest_percentile(10000), 99.9)
        self.assertEqual(metrics.highest_percentile(1000), 99.0)
        self.assertEqual(metrics.highest_percentile(999), 95.0)
        self.assertEqual(metrics.highest_percentile(200), 95.0)
        self.assertEqual(metrics.highest_percentile(100), 90.0)
        self.assertEqual(metrics.highest_percentile(99), 75.0)
        self.assertEqual(metrics.highest_percentile(20), 50.0)
        self.assertIsNone(metrics.highest_percentile(19))

    def test_min_samples_for_p90_is_100(self):
        self.assertEqual(metrics.min_samples_for(90), 100)
        self.assertEqual(metrics.min_samples_for(50), 20)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50), 50)
        self.assertEqual(metrics.nearest_rank(values, 90), 90)
        self.assertEqual(metrics.nearest_rank(reversed(values), 90), 90)
        self.assertEqual(metrics.nearest_rank([5], 90), 5)

    def test_p90_needs_enough_samples(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(fake_raw(0, n=99))
        self.assertIn("op_ms_p90", metrics.end_to_end(fake_raw(0, n=100)))


class Catalogue(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        self.assertEqual(metrics.spec_problems(SPEC), [])

    def test_metric_names_use_only_the_allowed_characters(self):
        for name in ("ops_per_s", "routing.schedule_ns", "a-b.c_9", "9x"):
            self.assertRegex(name, metrics.NAME_RE)
        for name in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertNotRegex(name, metrics.NAME_RE)
        bad = {"end_to_end": [{"name": "op ms", "unit": "ms",
                               "better": "lower", "bound": 0.1}]}
        self.assertTrue(metrics.spec_problems(bad))

    def test_only_throughput_is_higher_is_better(self):
        for m in SPEC["end_to_end"]:
            want = "higher" if m["name"] == "ops_per_s" else "lower"
            self.assertEqual(m["better"], want, m["name"])

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Result(unittest.TestCase):
    def test_reports_exactly_the_catalogue_with_units(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = metrics.result(SPEC, fake_raw(trace))
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            self.assertTrue(res["correct"])
            json.dumps(res)

    def test_end_to_end_values(self):
        raw = fake_raw(0)
        e2e = metrics.end_to_end(raw)
        self.assertAlmostEqual(e2e["ops_per_s"],
                               120 / (sum(raw["wall_ns"]) / 1e9))
        self.assertEqual(e2e["op_ms_p50"], 60.0)
        self.assertEqual(e2e["op_ms_p90"], 108.0)
        self.assertEqual(e2e["sim_rounds"], 3 * metrics.SIM_PREFIX_OPS)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)

    def test_layers_split_the_traced_wall(self):
        layer = metrics.per_layer(fake_raw(1))
        parts = (layer["routing.schedule_ns"] + layer["transport.stage_ns"] +
                 layer["transport.exchange_ns"] + layer["local.ns"])
        self.assertAlmostEqual(parts, layer["trace.op_ns"])

    def test_failures_and_untiled_traces_are_not_correct(self):
        raw = fake_raw(0)
        raw["failed"] = 1
        self.assertFalse(metrics.result(SPEC, raw)["correct"])
        raw = fake_raw(1)
        raw["traced"]["stage_ns"] += 1
        self.assertFalse(metrics.result(SPEC, raw)["correct"])


if __name__ == "__main__":
    unittest.main()
