#!/usr/bin/env python3
"""Unit tests for run.py's compare gate.  Run: python3 bench/e2e/test_run.py"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = {"end_to_end": [
    {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "capacity_rps", "unit": "1/s", "better": "higher", "bound": 0.10},
]}

STEADY = {"latency_s": [1.00, 1.01, 0.99, 1.00, 1.02],
          "capacity_rps": [3.00, 3.02, 2.99, 3.01, 3.00]}


def scaled(values, factor):
    return [v * factor for v in values]


def verdicts(a, b):
    return {(w, m): v for w, m, v, *_ in run.compare(SPEC, a, b)}


class CompareTest(unittest.TestCase):
    def test_same_runs_pass(self):
        got = verdicts({"w": STEADY}, {"w": dict(STEADY)})
        self.assertEqual(set(got.values()), {"ok"})

    def test_change_within_bound_passes(self):
        b = {"latency_s": scaled(STEADY["latency_s"], 1.05),
             "capacity_rps": scaled(STEADY["capacity_rps"], 0.95)}
        got = verdicts({"w": STEADY}, {"w": b})
        self.assertEqual(set(got.values()), {"ok"})

    def test_slower_latency_is_regression(self):
        b = dict(STEADY, latency_s=scaled(STEADY["latency_s"], 1.2))
        got = verdicts({"w": STEADY}, {"w": b})
        self.assertEqual(got[("w", "latency_s")], "regression")
        self.assertEqual(got[("w", "capacity_rps")], "ok")

    def test_lower_capacity_is_regression(self):
        b = dict(STEADY, capacity_rps=scaled(STEADY["capacity_rps"], 0.8))
        got = verdicts({"w": STEADY}, {"w": b})
        self.assertEqual(got[("w", "capacity_rps")], "regression")

    def test_improvement_in_either_direction(self):
        b = {"latency_s": scaled(STEADY["latency_s"], 0.7),
             "capacity_rps": scaled(STEADY["capacity_rps"], 1.3)}
        got = verdicts({"w": STEADY}, {"w": b})
        self.assertEqual(got[("w", "latency_s")], "improvement")
        self.assertEqual(got[("w", "capacity_rps")], "improvement")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.25, 1.0]
        got = verdicts({"w": STEADY}, {"w": dict(STEADY, latency_s=noisy)})
        self.assertEqual(got[("w", "latency_s")], "unresolved")

    def test_wide_spread_but_every_run_better_is_resolved(self):
        a = dict(STEADY, latency_s=[1.0, 1.4, 1.1, 1.35, 1.2])
        b = dict(STEADY, latency_s=[0.5, 0.7, 0.55, 0.65, 0.6])
        got = verdicts({"w": a}, {"w": b})
        self.assertEqual(got[("w", "latency_s")], "improvement")

    def test_metric_missing_on_one_side(self):
        b = {"latency_s": STEADY["latency_s"]}
        got = verdicts({"w": STEADY}, {"w": b})
        self.assertEqual(got[("w", "capacity_rps")], "missing")
        got = verdicts({"w": b}, {"w": STEADY})
        self.assertEqual(got[("w", "capacity_rps")], "missing")

    def test_workload_missing_on_one_side(self):
        got = verdicts({"w": STEADY, "v": STEADY}, {"w": STEADY})
        self.assertEqual(got[("v", "latency_s")], "missing")
        self.assertEqual(got[("w", "latency_s")], "ok")

    def test_workloads_are_judged_separately(self):
        slow = dict(STEADY, latency_s=scaled(STEADY["latency_s"], 1.5))
        got = verdicts({"w": STEADY, "v": STEADY}, {"w": STEADY, "v": slow})
        self.assertEqual(got[("w", "latency_s")], "ok")
        self.assertEqual(got[("v", "latency_s")], "regression")

    def test_failure_in_b_fails_even_when_faster(self):
        a = dict(STEADY, attempted=[10] * 5, failed=[0] * 5)
        b = dict(a, latency_s=scaled(STEADY["latency_s"], 0.7),
                 failed=[0, 0, 1, 0, 0])
        got = verdicts({"w": a}, {"w": b})
        self.assertEqual(got[("w", "failed_share")], "failed")
        self.assertEqual(got[("w", "latency_s")], "improvement")

    def test_failures_only_in_a_pass(self):
        a = dict(STEADY, attempted=[10] * 5, failed=[1] * 5)
        b = dict(STEADY, attempted=[10] * 5, failed=[0] * 5)
        got = verdicts({"w": a}, {"w": b})
        self.assertEqual(got[("w", "failed_share")], "ok")

    def test_load_set_counts_incorrect_run_as_failed(self):
        with tempfile.TemporaryDirectory() as d:
            for seed, correct in ((1, True), (2, False)):
                Path(d, f"w.seed{seed}.json").write_text(json.dumps({
                    "workload": "w", "traced": False, "correct": correct,
                    "attempted": 10, "failed": 0,
                    "metrics": {"latency_s": {"value": 1.0, "unit": "s"}}}))
            Path(d, "w.seed1.trace.json").write_text(json.dumps({
                "workload": "w", "traced": True, "correct": True,
                "attempted": 10, "failed": 0,
                "metrics": {"trace.latency_s": {"value": 1.0, "unit": "s"}}}))
            got = run.load_set(d)
        self.assertEqual(got["w"]["failed"], [0, 1])
        self.assertEqual(got["w"]["latency_s"], [1.0, 1.0])
        self.assertNotIn("trace.latency_s", got["w"])
        self.assertAlmostEqual(run.failed_share(got["w"]), 0.05)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        self.assertAlmostEqual(run.spread([5.0]), 0.0)
        self.assertGreater(run.spread([0.7, 1.3, 0.8, 1.25, 1.0]), 0.10)


if __name__ == "__main__":
    unittest.main()
