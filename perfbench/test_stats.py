"""Tests for the benchmark's arithmetic (stats.py).

    python3 perfbench/test_stats.py

run.py also runs them before every measurement.
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def job(status="ok", due=0.0, complete=0.0):
    return {"status": status, "due": due, "complete": complete}


class PercentileSupport(unittest.TestCase):
    def test_p90_refused_below_100_samples(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(99)), 0.90)

    def test_p90_of_100_samples(self):
        self.assertEqual(stats.percentile(list(range(1, 101)), 0.90), 90)

    def test_p99_needs_1000(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile([1.0] * 999, 0.99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_p50_needs_20(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(19)), 0.5)
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_infinite_samples_sort_last(self):
        values = [1.0] * 95 + [math.inf] * 5 + [2.0] * 100
        self.assertEqual(stats.percentile(values, 0.90), 2.0)

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)


class OpenLoopLatency(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at 1.0 s, sent late at 1.5 s, complete at 1.6 s: the 0.5 s the
        # job waited for a connection is part of its latency.
        late = {"status": "ok", "due": 1.0, "connect": 1.5, "complete": 1.6}
        self.assertAlmostEqual(stats.job_latency_s(late), 0.6)

    def test_refused_job_fails_and_misses_limit(self):
        jobs = [job(due=0.0, complete=0.010),
                job(status="refused:overload", due=0.0, complete=0.001)]
        self.assertEqual(stats.failed_jobs(jobs), 1)
        self.assertEqual(math.inf, stats.job_latency_s(jobs[1]))
        self.assertEqual(stats.jobs_within_limit(jobs, 1.0), [jobs[0]])

    def test_timeout_and_protocol_failures_count(self):
        jobs = [job(status=s) for s in ("timeout", "protocol", "error", "ok")]
        self.assertEqual(stats.failed_jobs(jobs), 3)

    def test_windowed_rate_is_a_median(self):
        # Three 1 s windows carrying 4, 4 and 40 docs: a burst (or a stall)
        # in one window does not set the rate.
        events = [(0.5, 4), (1.5, 4), (2.2, 20), (2.8, 20), (3.5, 100)]
        self.assertEqual(stats.windowed_rate(events, 3.0), 4.0)

    def test_max_overlap(self):
        self.assertEqual(stats.max_overlap([(0, 2), (1, 3), (2.5, 4)]), 2)
        self.assertEqual(stats.max_overlap([(0, 1), (1, 2)]), 1)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"start": 0.0, "end": 10.0, "parent": -1},  # sweep
            {"start": 1.0, "end": 4.0, "parent": 0},    # attack
            {"start": 1.5, "end": 2.5, "parent": 1},    # nn call
            {"start": 5.0, "end": 6.0, "parent": 0},    # predict
        ]
        self.assertEqual(stats.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [
            {"start": 0.0, "end": 10.0, "parent": -1},
            {"start": 1.0, "end": 5.0, "parent": 0},
            {"start": 3.0, "end": 7.0, "parent": 0},
            {"start": 9.0, "end": 12.0, "parent": 0},  # clipped to parent
        ]
        self.assertEqual(stats.self_times(spans)[0], 10.0 - 6.0 - 1.0)


if __name__ == "__main__":
    unittest.main()
