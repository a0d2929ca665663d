#!/usr/bin/env python3
"""Unit checks for tools/bench_report.py (stdlib unittest; CI runs this
as part of the bench-report job).

The regression pinned here: summarize_load_run on a report whose phases
all failed to complete must emit an explicit "incomplete" marker and
fail the gate, not raise on the empty aggregate."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_report  # noqa: E402


def _phase(name, completed, requests=100, violations=0, p99=250.0):
    return {
        "name": name,
        "completed": completed,
        "requests": requests,
        "oracle_violations": violations,
        "decide_p99_us": p99,
    }


class SummarizeLoadRunTest(unittest.TestCase):
    def test_normal_run_aggregates(self):
        run = {
            "scenario": "revocation-storm",
            "surface": "replicated",
            "pass": True,
            "phases": [
                _phase("warmup", True, requests=50, p99=100.0),
                _phase("storm", True, requests=70, p99=400.0),
            ],
            "slo": {"pass": True, "objectives": []},
        }
        s = bench_report.summarize_load_run(run)
        self.assertEqual(s["status"], "ok")
        self.assertTrue(s["pass"])
        self.assertEqual(s["requests"], 120)
        self.assertEqual(s["oracle_violations"], 0)
        self.assertEqual(s["decide_p99_us"], 400.0)

    def test_zero_completed_phases_is_incomplete_not_a_crash(self):
        run = {
            "scenario": "revocation-storm",
            "surface": "replicated-tcp",
            "pass": False,
            "phases": [
                _phase("warmup", False),
                _phase("storm", False),
            ],
        }
        s = bench_report.summarize_load_run(run)  # must not raise
        self.assertEqual(s["status"], "incomplete")
        self.assertFalse(s["pass"])
        self.assertNotIn("decide_p99_us", s)
        self.assertNotIn("requests", s)

    def test_empty_phase_list_is_incomplete(self):
        s = bench_report.summarize_load_run({"scenario": "s", "phases": []})
        self.assertEqual(s["status"], "incomplete")
        self.assertFalse(s["pass"])

    def test_incomplete_phase_violations_still_counted(self):
        # Violations recorded before a later phase failed to settle must
        # survive into the summary (they are summed over ALL phases).
        run = {
            "scenario": "s",
            "pass": False,
            "phases": [
                _phase("a", True, violations=2),
                _phase("b", False, violations=1),
            ],
        }
        s = bench_report.summarize_load_run(run)
        self.assertEqual(s["status"], "ok")
        self.assertEqual(s["oracle_violations"], 3)


if __name__ == "__main__":
    unittest.main()
