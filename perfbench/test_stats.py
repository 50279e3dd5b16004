#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_stats.py        (from the repository root)

The reconciliation test builds the workload runner and runs a short
traced compile window (about 15 s)."""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

# The share of a traced compile window's op time that the layer
# self-times may leave uncovered (README.md, "Reconciliation").
RECONCILE_SHARE = 0.10


class Percentiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        xs = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 9.1)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_order_of_samples_does_not_matter(self):
        xs = [5, 1, 4, 2, 3, 9, 8, 7, 6, 10]
        self.assertEqual(stats.percentile(xs, 75),
                         stats.percentile(sorted(xs), 75))

    def test_p90_of_100_samples_keeps_ten_beyond(self):
        xs = list(range(100))
        self.assertEqual(stats.beyond(xs, 90), 10)
        self.assertAlmostEqual(stats.tail(xs, 90), 89.1)

    def test_tail_refuses_fewer_than_ten_beyond(self):
        xs = list(range(100))
        self.assertEqual(stats.beyond(xs, 95), 5)
        with self.assertRaises(ValueError):
            stats.tail(xs, 95)

    def test_ties_at_the_top_are_not_beyond(self):
        xs = list(range(50)) + [100] * 50
        self.assertEqual(stats.beyond(xs, 75), 0)
        with self.assertRaises(ValueError):
            stats.tail(xs, 75)

    def test_workload_percentiles_leave_ten_beyond_at_reference_counts(self):
        # the fewest ops a 30 s window held on the 2-core reference host
        # (README.md): compile ~3300, validate ~100, serve ~30000
        for workload, n in (("compile", 3300), ("validate", 100),
                            ("serve", 30000)):
            q = stats.TAIL_PERCENTILE[workload]
            self.assertGreaterEqual(stats.beyond(list(range(n)), q), 10,
                                    workload)


class Counting(unittest.TestCase):
    @staticmethod
    def report(attempted, failed, failures=()):
        return {"attempted": attempted, "failed": failed,
                "failures": list(failures)}

    def test_attempted_failed_and_correct(self):
        self.assertEqual(stats.count_ops(self.report(48, 0)), (48, 0, True))
        self.assertEqual(stats.count_ops(self.report(48, 1, ["x: drift"])),
                         (48, 1, False))
        self.assertEqual(stats.count_ops(self.report(48, 48, ["x: crash"])),
                         (48, 48, False))

    def test_rejects_impossible_counts(self):
        for bad in (self.report(0, 0), self.report(10, 11, ["x"]),
                    self.report(10, -1)):
            with self.assertRaises(ValueError):
                stats.count_ops(bad)

    def test_rejects_failures_without_reasons_and_reasons_without_failures(self):
        for bad in (self.report(10, 2), self.report(10, 0, ["x: drift"])):
            with self.assertRaises(ValueError):
                stats.count_ops(bad)

    def test_failed_share_is_whole_rounds(self):
        # a point failing every time fails the same share of every run
        # of whole rounds, however many rounds fit in the window
        round_size, bad_per_round = 48, 4
        shares = {(k * bad_per_round) / (k * round_size)
                  for k in range(1, 30)}
        self.assertEqual(len(shares), 1)


class Spread(unittest.TestCase):
    def test_quartiles_and_deviation(self):
        med, q1, q3, iqr, maxdev = stats.spread([10, 10, 10, 10, 12])
        self.assertEqual(med, 10)
        self.assertEqual((q1, q3), (10, 11))
        self.assertAlmostEqual(iqr, 0.1)
        self.assertAlmostEqual(maxdev, 0.2)


def synthetic_layers(uncovered_ns):
    """A traced compile window whose layers cover all but uncovered_ns:
    parse 100, normalize 200, inline 50, parallelize 400 (150 of it
    dependence misses), reverse 30, planner 900 - 600 = 300."""
    return {
        "ops": 4, "op_ns": 1080 + uncovered_ns,
        "pass_ns": {"parse": 100, "normalize": 200, "inline": 50,
                    "parallelize": 400, "reverse": 30},
        "dep_miss_ns": 150,
        "dep_miss_ns_by_phase": {"parallelize": 150},
        "demand_task_ns": 900, "demand_pass_ns": 600,
    }


class Reconciliation(unittest.TestCase):
    def test_self_times_partition_the_passes(self):
        L = synthetic_layers(20)
        s = stats.compile_self_ns(L)
        # the dependence misses move out of parallelize, nothing is lost
        self.assertEqual(s["parallelizer.self"], 250)
        self.assertEqual(s["dependence.miss"], 150)
        self.assertEqual(s["planner.self"], 300)
        self.assertEqual(sum(s.values()), L["op_ns"] - 20)
        self.assertAlmostEqual(stats.unattributed_share(L), 20 / L["op_ns"])

    def test_traced_compile_run_reconciles(self):
        run.build()
        os.makedirs(run.WORKDIR, exist_ok=True)
        out = subprocess.run(
            [run.BENCH_EXE, "--workload", "compile", "--seed", "7",
             "--seconds", "2", "--trace", "1"],
            stdout=subprocess.PIPE, check=True, timeout=300).stdout
        report = json.loads(out.decode().strip().splitlines()[-1])
        layers = report["traced"]["layers"]
        share = stats.unattributed_share(layers)
        self.assertLess(abs(share), RECONCILE_SHARE,
                        "layer self-times leave %.1f%% of op time" %
                        (100 * share))
        # the op timer encloses the driver's task span
        self.assertLessEqual(layers["task_ns"], layers["op_ns"])
        self.assertEqual(report["failed"], 0, report["failures"])


if __name__ == "__main__":
    unittest.main()
