"""Self-tests for the benchmark's own arithmetic and its declared metric
set. Run: python3 coicbench/run.py --selftest (or python3 -m unittest
discover coicbench)."""

import json
import os
import unittest

import analysis
import run

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        p = analysis.percentile(values, 99)
        self.assertEqual(p["percentile"], 99)
        self.assertEqual(p["samples"], 1000)
        # Rank 0.99 * 999 = 989.01 -> between 990 and 991.
        self.assertAlmostEqual(p["value"], 990.01)
        beyond = sum(1 for v in values if v > p["value"])
        self.assertGreaterEqual(beyond, 10)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        values = list(range(500))
        p = analysis.percentile(values, 99)
        # 500 * (1 - 98/100) = 10 samples beyond p98; p99 has only 5.
        self.assertEqual(p["percentile"], 98)
        self.assertEqual(p["samples"], 500)
        p = analysis.percentile(list(range(563)), 99)
        self.assertEqual(p["percentile"], 98)

    def test_median_is_unaffected_by_the_rule(self):
        p = analysis.percentile([5, 1, 3] * 10, 50)
        self.assertEqual(p["percentile"], 50)
        self.assertEqual(p["value"], 3)

    def test_too_few_samples_give_no_percentile(self):
        p = analysis.percentile(list(range(10)), 50)
        self.assertIsNone(p["percentile"])
        self.assertIsNone(p["value"])
        self.assertEqual(p["samples"], 10)


class TailMeanTest(unittest.TestCase):
    def test_tail_mean_averages_the_samples_beyond_p99(self):
        values = list(range(1, 1001))
        t = analysis.tail_mean(values, 99)
        self.assertEqual(t["percentile"], 99)
        self.assertEqual(t["tail_samples"], 10)
        self.assertAlmostEqual(t["value"], sum(range(991, 1001)) / 10)

    def test_tail_follows_the_percentile_rule(self):
        t = analysis.tail_mean(list(range(500)), 99)
        self.assertEqual(t["percentile"], 98)
        self.assertEqual(t["tail_samples"], 10)
        self.assertEqual(t["samples"], 500)

    def test_too_few_samples_give_no_tail(self):
        t = analysis.tail_mean([1.0] * 5, 99)
        self.assertIsNone(t["value"])
        self.assertEqual(t["tail_samples"], 0)

    def test_mean(self):
        self.assertEqual(analysis.mean([1, 2, 6]), {"value": 3, "samples": 3})
        self.assertEqual(analysis.mean([]), {"value": None, "samples": 0})


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_bases(self):
        self.assertEqual(analysis.ratio(3, 4),
                         {"value": 0.75, "num": 3, "den": 4})

    def test_empty_base_reads_zero(self):
        self.assertEqual(analysis.ratio(0, 0),
                         {"value": 0.0, "num": 0, "den": 0})


def rung(hz, achieved=None, err=0.0, recog=1400.0, render=200.0):
    return {"offered_hz": float(hz),
            "achieved_hz": float(hz if achieved is None else achieved),
            "error_rate": err, "recog_p99_ms": recog, "render_p99_ms": render}


class LadderTest(unittest.TestCase):
    limits = run.LADDER_LIMITS

    def test_capacity_is_last_rung_before_first_failure(self):
        rungs = [rung(1000), rung(1200), rung(1400, achieved=1410),
                 rung(1600, achieved=1300)]
        capacity, rung_hz, verdicts = analysis.ladder_capacity(rungs,
                                                               self.limits)
        self.assertEqual(rung_hz, 1400)
        self.assertEqual(capacity, 1410)  # the rung's achieved rate
        self.assertEqual([v["passed"] for v in verdicts],
                         [True, True, True, False])

    def test_passing_rung_above_a_failure_does_not_count(self):
        rungs = [rung(1000), rung(1200, render=900.0), rung(1400)]
        _, rung_hz, _ = analysis.ladder_capacity(rungs, self.limits)
        self.assertEqual(rung_hz, 1000)

    def test_each_limit_fails_a_rung(self):
        for bad in (rung(1000, achieved=900), rung(1000, err=0.02),
                    rung(1000, recog=3000.0), rung(1000, render=None)):
            passed, reasons = analysis.rung_verdict(bad, self.limits)
            self.assertFalse(passed)
            self.assertEqual(len(reasons), 1)

    def test_rungs_are_judged_in_rate_order(self):
        rungs = [rung(1400), rung(1000), rung(1200, err=0.5)]
        _, rung_hz, verdicts = analysis.ladder_capacity(rungs, self.limits)
        self.assertEqual(rung_hz, 1000)
        self.assertEqual([v["offered_hz"] for v in verdicts],
                         [1000, 1200, 1400])

    def test_failing_bottom_rung_gives_zero(self):
        capacity, rung_hz, _ = analysis.ladder_capacity(
            [rung(1000, err=0.5)], self.limits)
        self.assertEqual(capacity, 0)
        self.assertIsNone(rung_hz)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [("a.root", 0, 100, -1, 0),
                 ("b.child", 10, 30, 0, 1),
                 ("b.child", 50, 60, 0, 2)]
        self.assertEqual(analysis.self_times(spans), [70, 20, 10])

    def test_overlapping_children_are_covered_once(self):
        spans = [("a.root", 0, 100, -1, 0),
                 ("b.x", 10, 40, 0, 0),
                 ("b.y", 30, 50, 0, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("a.root", 0, 100, -1, 0), ("b.x", 90, 120, 0, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 90)

    def test_grandchildren_count_against_their_own_parent(self):
        spans = [("a.root", 0, 100, -1, 0),
                 ("b.mid", 0, 50, 0, 0),
                 ("c.leaf", 0, 20, 1, 0)]
        self.assertEqual(analysis.self_times(spans), [50, 30, 20])
        self.assertEqual(analysis.layer_self_times(spans),
                         {"a": 50, "b": 30, "c": 20})


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = (2.75, 5.5, 8.25)
        self.assertAlmostEqual(analysis.spread(values), (q3 - q1) / 5.5)


class DeclaredMetricsTest(unittest.TestCase):
    """BENCHMARK.json must declare exactly the metrics run.py reports."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_metrics_match(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))

    def test_per_layer_metrics_match(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["per_layer"]]
        self.assertEqual(declared, list(run.PER_LAYER))

    def test_workloads_match(self):
        declared = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(declared, list(run.WORKLOADS))

    def test_default_seconds_is_run_seconds(self):
        self.assertEqual(run.RUN_SECONDS, self.bench["run_seconds"])

    def test_ladder_steps_are_finer_than_capacity_bound_above_1400(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        rungs = [hz for hz in run.LADDER_HZ if hz >= 1400]
        for low, high in zip(rungs, rungs[1:]):
            self.assertLess(high / low - 1, bounds["capacity_hz"])

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
