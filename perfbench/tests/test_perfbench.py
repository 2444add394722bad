"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The end-to-end cases build the runner on first
use (as perfbench/run.py does) and run the cheapest workload for a second.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args):
    """Runs perfbench/run.py; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SpecTest(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_a_unit(self):
        spec = run.load_spec()
        names = []
        for entry in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(entry["name"], NAME)
            self.assertRegex(entry["unit"], UNIT)
            self.assertIn(entry["better"], ("higher", "lower"))
            names.append(entry["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_the_runner(self):
        spec = run.load_spec()
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


class RuleTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond_it(self):
        self.assertEqual(run.tail(list(range(19))), (0.0, 0.0))
        self.assertEqual(run.tail(list(range(20)))[0], 50.0)
        self.assertEqual(run.tail(list(range(100)))[0], 90.0)
        self.assertEqual(run.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(run.tail(list(range(10000)))[0], 99.9)

    def test_self_times_sum_to_the_root_span(self):
        spans = [["bench.run", -1, 0.0, 100.0],
                 ["sparse.load", 0, 1.0, 11.0],
                 ["runtime.prepare", 0, 11.0, 31.0],
                 ["graph.bfs", 0, 40.0, 90.0],
                 ["bench.check", 0, 90.0, 99.5],
                 ["sparse.transpose", 4, 91.0, 92.0]]
        layers, unattributed, wall = run.self_times(spans)
        self.assertEqual(wall, 100.0)
        self.assertAlmostEqual(layers["sparse"], 11.0)
        self.assertAlmostEqual(layers["bench"], 8.5)
        self.assertAlmostEqual(unattributed, 10.5)
        self.assertAlmostEqual(sum(layers.values()) + unattributed, wall)


class EndToEndTest(unittest.TestCase):
    def test_untraced_run_is_correct_and_reports_end_to_end_metrics(self):
        code, line = run_bench("--workload", "serve_mixed", "--seed", "5",
                               "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        names = [m["name"] for m in run.load_spec()["end_to_end"]]
        self.assertEqual(list(line["metrics"]), names)
        for m in line["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_traced_layer_self_times_add_up_to_the_traced_wall(self):
        code, line = run_bench("--workload", "serve_mixed", "--seed", "5",
                               "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        m = {k: v["value"] for k, v in line["metrics"].items()}
        self.assertEqual(list(m), [e["name"] for e in run.load_spec()["per_layer"]])
        parts = sum(m[layer + ".self_ms"] for layer in run.SPAN_LAYERS)
        total = parts + m["trace.unattributed_ms"]
        self.assertAlmostEqual(total, m["trace.wall_ms"],
                               delta=1e-6 * m["trace.wall_ms"])
        self.assertGreater(m["serve.self_ms"], 0)

    def test_a_corrupted_digest_fails_the_check(self):
        code, line = run_bench("--workload", "serve_mixed", "--seed", "5",
                               "--seconds", "1", "--trace", "0",
                               "--corrupt-digest")
        self.assertEqual(code, 1)
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)


if __name__ == "__main__":
    unittest.main()
