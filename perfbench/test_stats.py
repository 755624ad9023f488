"""Self-tests for the benchmark's own math (python3 perfbench/test_stats.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([7], 99.0), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50.0), 2)  # unsorted input

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90.0), 10)
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)

    def test_highest_supported_percentile(self):
        # p99 needs 1000 samples, p90 needs 100, p50 needs 20.
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(999), 90.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(99), 50.0)
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertIsNone(stats.supported_percentile(19))
        self.assertIsNone(stats.supported_percentile(0))

    def test_summarize_flags_unsupported(self):
        s = stats.summarize(list(range(500)), 99.0)
        self.assertEqual(s["n"], 500)
        self.assertEqual(s["beyond"], 5)
        self.assertFalse(s["supported"])
        s = stats.summarize(list(range(2000)), 99.0)
        self.assertTrue(s["supported"])
        self.assertEqual(s["value"], 1979)
        self.assertFalse(stats.summarize([], 50.0)["supported"])


    def test_histogram_expands_to_its_samples(self):
        buckets = [[2048, 4, 2], [5, 1, 2], [70, 1, 1]]
        self.assertEqual(stats.expand(buckets), [5, 5, 70, 2049.0, 2051.0])
        s = stats.summarize(stats.expand(buckets), 50.0)
        self.assertEqual((s["value"], s["n"], s["beyond"]), (70, 5, 2))
        self.assertEqual(stats.expand([]), [])


class RatioWithBase(unittest.TestCase):
    def test_ratio_carries_base(self):
        r = stats.ratio_with_base(30, 120)
        self.assertAlmostEqual(r["value"], 0.25)
        self.assertEqual(r["numerator"], 30)
        self.assertEqual(r["base"], 120)

    def test_zero_base_is_zero_not_error(self):
        r = stats.ratio_with_base(0, 0)
        self.assertEqual(r["value"], 0.0)
        self.assertEqual(r["base"], 0)


def span(sid, parent, req, name, start, end):
    return {"id": sid, "parent": parent, "req": req, "name": name, "start": start,
            "end": end}


class SelfTime(unittest.TestCase):
    def test_covered_length_merges_overlaps_and_clips(self):
        self.assertEqual(stats.covered_length(0, 100, [(10, 20), (15, 30), (50, 60)]), 30)
        self.assertEqual(stats.covered_length(0, 100, [(-10, 5), (95, 120)]), 10)
        self.assertEqual(stats.covered_length(0, 100, [(200, 300)]), 0)
        self.assertEqual(stats.covered_length(0, 100, []), 0)

    def test_self_time_subtracts_children(self):
        spans = [
            span(1, 0, 7, "net.rpc", 0, 100),
            span(2, 1, 7, "server.batch", 20, 80),
            span(3, 2, 7, "repl.push", 30, 40),
            span(4, 2, 7, "repl.push", 35, 50),  # overlaps its sibling
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 40)   # 100 - 60
        self.assertEqual(own[2], 40)   # 60 - union(30..50) = 60 - 20
        self.assertEqual(own[3], 10)
        self.assertEqual(own[4], 15)

    def test_self_times_partition_the_root_when_children_nest(self):
        spans = [
            span(1, 0, 9, "net.rpc", 0, 100),
            span(2, 1, 9, "server.batch", 10, 90),
            span(3, 2, 9, "core.execute", 10, 40),
        ]
        by_req = stats.self_time_by_request(spans)
        self.assertEqual(by_req[9], {"net": 20, "server": 50, "core": 30})
        self.assertEqual(sum(by_req[9].values()), 100)

    def test_layers_are_summed_per_request(self):
        spans = [
            span(1, 0, 1, "net.rpc", 0, 10),
            span(2, 0, 2, "net.rpc", 0, 50),
            span(3, 2, 2, "server.batch", 10, 30),
        ]
        by_req = stats.self_time_by_request(spans)
        self.assertEqual(by_req[1], {"net": 10})
        self.assertEqual(by_req[2], {"net": 30, "server": 20})


if __name__ == "__main__":
    unittest.main()
