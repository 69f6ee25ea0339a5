"""Tests for the benchmark's statistics.

Run from the repository root: python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(999), 95.0)

    def test_highest_percentile_ladder(self):
        self.assertEqual(stats.highest_percentile(10000), 99.9)
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertIsNone(stats.highest_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertEqual(stats.percentile(values, 50), 500)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)
        self.assertEqual(stats.percentile(list(reversed(values)), 100), 1000)

    def test_tail_percentile_refuses_thin_tail(self):
        self.assertEqual(stats.tail_percentile(list(range(1000)), 99), 989)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(999)), 99)


class MedianQuartileTest(unittest.TestCase):

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))


class SpeedFactorTest(unittest.TestCase):

    def test_slow_host_scales_times_down(self):
        # The work took twice its nominal time: times are halved.
        self.assertEqual(stats.speed_factor([500, 500, 250], 250), 0.5)

    def test_median_of_samples(self):
        # One slow sample does not move the factor.
        self.assertEqual(stats.speed_factor([200, 200, 9000], 250), 1.25)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.speed_factor([], 250)


def span(start, end, tid=1):
    return {"tid": tid, "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):

    def test_leaf_is_all_self(self):
        self.assertEqual(stats.self_times([span(0, 10)]), [10])

    def test_nested_children(self):
        spans = [span(0, 100), span(10, 30), span(50, 60), span(12, 20)]
        self.assertEqual(stats.self_times(spans),
                         [100 - 20 - 10, 20 - 8, 10, 8])

    def test_order_of_input_does_not_matter(self):
        spans = [span(12, 20), span(50, 60), span(0, 100), span(10, 30)]
        self.assertEqual(stats.self_times(spans),
                         [8, 10, 100 - 20 - 10, 20 - 8])

    def test_overlapping_children_count_once(self):
        # [20, 45] overlaps [10, 30] without fitting inside it: both are
        # children of [0, 100], and their union [10, 45] is covered once.
        spans = [span(0, 100), span(10, 30), span(20, 45)]
        self.assertEqual(stats.self_times(spans), [100 - 35, 20, 25])

    def test_child_of_the_span_it_fits_inside(self):
        # [25, 28] starts inside both overlapping siblings but fits only
        # inside [20, 45].
        spans = [span(0, 100), span(10, 30), span(20, 45), span(25, 28)]
        self.assertEqual(stats.self_times(spans), [100 - 35, 20, 25 - 3, 3])

    def test_equal_intervals_nest(self):
        spans = [span(0, 10), span(0, 10)]
        self.assertEqual(sorted(stats.self_times(spans)), [0, 10])

    def test_threads_are_separate_trees(self):
        # The same interval on another thread is no child of tid 1's span.
        spans = [span(0, 100, tid=1), span(10, 30, tid=2),
                 span(40, 50, tid=1)]
        self.assertEqual(stats.self_times(spans), [90, 20, 10])


class RatioTest(unittest.TestCase):

    def test_ratio_prints_base(self):
        value, text = stats.ratio(1, 4)
        self.assertEqual(value, 0.25)
        self.assertEqual(text, "0.25 (1/4)")

    def test_zero_base(self):
        value, text = stats.ratio(0, 0)
        self.assertEqual(value, 0.0)
        self.assertEqual(text, "0 (0/0)")


if __name__ == "__main__":
    unittest.main()
