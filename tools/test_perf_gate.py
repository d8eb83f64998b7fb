#!/usr/bin/env python3
"""Unit test of tools/perf_gate.py's verdict on canned results.

    python3 tools/test_perf_gate.py

No perfbench run: each case feeds compare() base and change results in
the shape perfbench prints as its last line.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

END_TO_END = [
    {"name": "sim_ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "host_heap_peak_mb", "better": "lower", "bound": 0.1},
]

BASE = {"sim_ops_per_s": 1000.0, "setup_s": 1.0, "host_heap_peak_mb": 20.0}


def run(correct=True, attempted=1000, failed=0, **metrics):
    values = dict(BASE, **metrics)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v} for k, v in values.items() if v is not None},
    }


def failures(base_runs, change_runs):
    return perf_gate.compare(END_TO_END, base_runs, change_runs)[1]


class Verdict(unittest.TestCase):
    def assertFails(self, base_runs, change_runs, reason):
        found = failures(base_runs, change_runs)
        self.assertTrue(any(reason in f for f in found), found)

    def test_identical_passes(self):
        self.assertEqual(failures([run()] * 5, [run()] * 5), [])

    def test_higher_is_better_bound(self):
        self.assertFails([run()] * 5, [run(sim_ops_per_s=740.0)] * 5, "sim_ops_per_s")
        self.assertEqual(failures([run()] * 5, [run(sim_ops_per_s=760.0)] * 5), [])

    def test_higher_is_better_gain_passes(self):
        self.assertEqual(failures([run()] * 5, [run(sim_ops_per_s=2000.0)] * 5), [])

    def test_lower_is_better_direction(self):
        self.assertFails([run()] * 5, [run(setup_s=1.26)] * 5, "setup_s")
        self.assertEqual(failures([run()] * 5, [run(setup_s=0.5)] * 5), [])
        self.assertFails([run()] * 5, [run(host_heap_peak_mb=22.2)] * 5,
                         "host_heap_peak_mb")
        self.assertEqual(failures([run()] * 5, [run(host_heap_peak_mb=10.0)] * 5), [])

    def test_median_not_mean(self):
        change = [run()] * 3 + [run(sim_ops_per_s=1.0)] * 2
        self.assertEqual(failures([run()] * 5, change), [])

    def test_missing_metric_fails(self):
        self.assertFails([run()] * 5, [run()] * 4 + [run(setup_s=None)], "missing")
        self.assertFails([run(setup_s=None)] * 5, [run()] * 5, "missing")

    def test_incorrect_run_fails(self):
        self.assertFails([run()] * 5, [run()] * 4 + [run(correct=False)],
                         "not correct")
        self.assertFails([run(correct=False)] + [run()] * 4, [run()] * 5,
                         "not correct")

    def test_failed_share(self):
        self.assertFails([run()] * 5, [run()] * 4 + [run(failed=1)], "failed share")
        self.assertFails([run(failed=1)] * 5, [run(failed=2)] * 5, "failed share")
        self.assertEqual(failures([run(failed=2)] * 5, [run(failed=1)] * 5), [])


if __name__ == "__main__":
    unittest.main()
