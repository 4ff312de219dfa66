"""Unit tests for the tail rule in stats.py.

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True

from stats import describe, tail  # noqa: E402


class TailRule(unittest.TestCase):
    def test_fewer_than_eleven_samples_have_no_tail(self):
        for n in range(11):
            self.assertIsNone(tail(list(range(n))), n)

    def test_exactly_eleven_samples_give_the_minimum(self):
        # Only the first rank has ten samples beyond it: p9 is the highest
        # percentile whose nearest rank (ceil(0.09 * 11) = 1) qualifies.
        self.assertEqual(tail([float(v) for v in range(10, -1, -1)]), (9, 0.0))

    def test_twenty_samples_give_the_median_rank(self):
        self.assertEqual(tail(list(range(1, 21))), (50, 10))

    def test_hundred_samples_give_p90(self):
        self.assertEqual(tail(list(range(1, 101))), (90, 90))

    def test_ties_count_by_rank(self):
        # 25 equal fast waves, then 10 slow ones: rank 25 still has the
        # ten slow waves beyond it, whatever the tie.
        self.assertEqual(tail([1.0] * 25 + [2.0] * 10), (71, 1.0))
        # All equal: the rule still picks a rank with ten ranked beyond.
        self.assertEqual(tail([3.0] * 30), (66, 3.0))

    def test_order_of_input_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 6
        self.assertEqual(tail(samples), tail(sorted(samples)))

    def test_describe_reports_median_tail_and_n(self):
        self.assertEqual(describe([1.0] * 5), "median 1, no tail (n < 11), n=5")
        self.assertEqual(describe(list(range(1, 21)), 2), "median 21, p50 20, n=20")


if __name__ == "__main__":
    unittest.main()
