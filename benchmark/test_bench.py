"""Tests of the benchmark tooling (no build needed):

  python3 -m unittest benchmark/test_bench.py
"""

import copy
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import compare  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.supported_percentile(19))
        self.assertEqual(benchlib.supported_percentile(20), 0.5)
        self.assertEqual(benchlib.supported_percentile(39), 0.5)
        self.assertEqual(benchlib.supported_percentile(40), 0.75)
        self.assertEqual(benchlib.supported_percentile(99), 0.75)
        self.assertEqual(benchlib.supported_percentile(100), 0.9)
        self.assertEqual(benchlib.supported_percentile(200), 0.95)
        self.assertEqual(benchlib.supported_percentile(999), 0.95)
        self.assertEqual(benchlib.supported_percentile(1000), 0.99)
        self.assertEqual(benchlib.supported_percentile(10000), 0.999)

    def test_quartiles_are_statistics_quantiles(self):
        v = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        self.assertEqual(benchlib.quartiles(v),
                         tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        self.assertEqual(benchlib.spread([5.0] * 4), 0.0)
        # quantiles([8..12], n=4) = 8.5, 10, 11.5
        self.assertAlmostEqual(benchlib.spread([8, 9, 10, 11, 12]), 0.3)


class Verdicts(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5]

    def check(self, b, better, expect, bound=0.1):
        self.assertEqual(benchlib.verdict(self.A, b, better, bound), expect)

    def test_within_bound_is_unchanged(self):
        self.check([95.0, 96.0, 95.5, 94.5, 95.2], "higher", "unchanged")

    def test_direction(self):
        faster = [120.0, 121.0, 119.0, 120.5, 119.5]
        self.check(faster, "higher", "improved")
        self.check(faster, "lower", "regressed")
        slower = [80.0, 81.0, 79.0, 80.5, 79.5]
        self.check(slower, "higher", "regressed")
        self.check(slower, "lower", "improved")

    def test_wide_spread_is_unresolved(self):
        self.check([50.0, 100.0, 150.0, 60.0, 140.0], "higher", "unresolved")

    def test_wide_spread_where_every_change_run_wins_is_improved(self):
        self.check([150.0, 300.0, 200.0, 250.0, 160.0], "higher", "improved")

    def test_gain_sign(self):
        self.assertAlmostEqual(benchlib.gain(100, 110, "higher"), 0.1)
        self.assertAlmostEqual(benchlib.gain(100, 110, "lower"), -0.1)


class PairWinRule(unittest.TestCase):
    A = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]

    def test_nine_of_ten_wins_and_a_clear_gap(self):
        b = [a + 1.0 for a in self.A]
        b[3] = 9.0  # one loss
        met, _ = benchlib.claim_met(self.A, b, "higher")
        self.assertTrue(met)

    def test_eight_wins_is_not_enough(self):
        b = [a + 1.0 for a in self.A]
        b[3] = b[4] = 9.0
        self.assertFalse(benchlib.claim_met(self.A, b, "higher")[0])

    def test_ties_count_for_neither(self):
        b = [a + 1.0 for a in self.A]
        b[0] = self.A[0]
        self.assertEqual(benchlib.pair_wins(self.A, b, "higher"), (9, 10))
        b[1] = self.A[1]
        self.assertFalse(benchlib.claim_met(self.A, b, "higher")[0])

    def test_gap_must_exceed_parent_quartile_distance(self):
        b = [a + 0.01 for a in self.A]  # wins every pair, by a hair
        self.assertFalse(benchlib.claim_met(self.A, b, "higher")[0])

    def test_needs_ten_pairs(self):
        self.assertFalse(
            benchlib.claim_met(self.A[:9], [a + 1 for a in self.A[:9]], "higher")[0])

    def test_more_failures_void_the_gain(self):
        b = [a - 1.0 for a in self.A]
        self.assertTrue(benchlib.claim_met(self.A, b, "lower")[0])
        self.assertFalse(benchlib.claim_met(self.A, b, "lower", 0, 3)[0])


class Compare(unittest.TestCase):
    def test_rows_give_verdicts_per_workload_and_metric(self):
        cfg = benchlib.load_benchmark()

        def run(workload, evals, p50):
            return {"workload": workload, "traced": False, "failed": 0,
                    "metrics": {"evals_per_s": {"value": evals},
                                "lat_p50_ms": {"value": p50}}}
        a = [run("selfjoin_sift", 100.0 + i, 5.0) for i in range(5)]
        b = [run("selfjoin_sift", 60.0 + i, 5.01) for i in range(5)]
        got = {(w, m): v for w, m, _, _, _, v in compare.rows(cfg, a, b)}
        self.assertEqual(got[("selfjoin_sift", "evals_per_s")], "regressed")
        self.assertEqual(got[("selfjoin_sift", "lat_p50_ms")], "unchanged")
        self.assertNotIn(("query_mix_gist", "evals_per_s"), got)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.cfg = benchlib.load_benchmark()

    def errors(self, cfg):
        return benchlib.validate_benchmark(cfg)

    def test_repository_file_is_valid(self):
        self.assertEqual(self.errors(self.cfg), [])

    def test_names_are_restricted(self):
        cfg = copy.deepcopy(self.cfg)
        cfg["workloads"][0]["name"] = "bad name"
        self.assertTrue(self.errors(cfg))
        cfg = copy.deepcopy(self.cfg)
        cfg["end_to_end"][1]["name"] = "_leading"
        self.assertTrue(self.errors(cfg))

    def test_counts_are_capped(self):
        cfg = copy.deepcopy(self.cfg)
        cfg["workloads"] = [{"name": "w%d" % i, "why": "x"} for i in range(9)]
        self.assertTrue(any("workloads" in e for e in self.errors(cfg)))
        cfg = copy.deepcopy(self.cfg)
        cfg["end_to_end"] += [{"name": "m%d" % i, "unit": "s", "better": "lower",
                               "bound": 0.1} for i in range(10)]
        self.assertTrue(any("end_to_end" in e for e in self.errors(cfg)))
        cfg = copy.deepcopy(self.cfg)
        cfg["per_layer"] += [{"name": "l%d" % i, "unit": "s", "better": "lower"}
                             for i in range(100)]
        self.assertTrue(any("per_layer" in e for e in self.errors(cfg)))

    def test_per_layer_metrics_name_existing_targets(self):
        cfg = copy.deepcopy(self.cfg)
        cfg["end_to_end"] = [m for m in cfg["end_to_end"]
                             if m["name"] != "lat_tail_ms"]
        self.assertTrue(any("lat_tail_ms" in e for e in self.errors(cfg)))
        cfg = copy.deepcopy(self.cfg)
        cfg["workloads"] = [w for w in cfg["workloads"]
                            if w["name"] != "ingest_serve_sift"]
        self.assertTrue(any("ingest_serve_sift" in e for e in self.errors(cfg)))
        cfg = copy.deepcopy(self.cfg)
        cfg["per_layer"].append({"name": "x.unmapped", "unit": "s",
                                 "better": "lower"})
        self.assertTrue(any("x.unmapped" in e for e in self.errors(cfg)))

    def test_bounds_and_setup_metric(self):
        cfg = copy.deepcopy(self.cfg)
        cfg["end_to_end"][1]["bound"] = 0.3
        self.assertTrue(self.errors(cfg))
        cfg = copy.deepcopy(self.cfg)
        cfg["end_to_end"] = [m for m in cfg["end_to_end"]
                             if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in e for e in self.errors(cfg)))


if __name__ == "__main__":
    unittest.main()
