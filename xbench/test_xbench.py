#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 xbench/test_xbench.py

Builds the runner (as xbench/run.py does) and checks that the simulated
metrics and the traced run's simulated per-layer counts are a function of the
seed, that a held-out seed passes the
correctness checks, that the traced run's forwarding wrappers and observers
leave every simulated result unchanged, and that the checks catch bad output.
Runs use the benchmark's own measurement windows, so the whole file takes
about a minute and a half.
"""

import json
import sys
import time
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def runner(workload, seed, trace=0):
    return run.run_runner(workload, seed, trace, time.monotonic() + 120)


class XbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_gives_identical_simulation(self):
        a = runner("ycsb-hot", 5)
        b = runner("ycsb-hot", 5)
        for key in run.SIM_KEYS:
            self.assertEqual(a[key], b[key], key)

    def test_same_seed_repeats_traced_counts(self):
        a = runner("ycsb-hot", 5, trace=1)
        b = runner("ycsb-hot", 5, trace=1)
        for name, _, kind in run.PER_LAYER:
            if kind == "sim":
                self.assertEqual(a[name], b[name], name)

    def test_held_out_seed_passes_checks(self):
        seed = 987654321
        metrics, table, attempted, errors, _ = run.measure_end_to_end("ycsb-hot", seed, seconds=0)
        self.assertEqual(errors, [])
        self.assertGreater(attempted, 0)
        for name, _, _ in table:
            self.assertGreater(metrics[name], 0, name)
        other = runner("ycsb-hot", run.subrun_seed(1, 0))
        self.assertNotEqual(other["latency_hist"], runner("ycsb-hot", run.subrun_seed(seed, 0))[
            "latency_hist"])

    def test_wrappers_forward_without_changing_simulation(self):
        for workload in run.SIM_SUBRUNS:
            with self.subTest(workload=workload):
                plain = runner(workload, 3, trace=0)
                traced = runner(workload, 3, trace=1)
                self.assertEqual(run.check_subrun(plain), [])
                self.assertEqual(run.check_subrun(traced), [])
                self.assertEqual(run.check_same_simulation(plain, traced), [])
                self.assertGreater(traced["store.records"], 0)
                self.assertGreater(traced["workload.next_txn_ns"], 0)
                self.assertGreater(traced["txn.submit_ns"], 0)

    def test_checks_catch_bad_output(self):
        good = runner("ycsb-hot", 2)
        self.assertEqual(run.check_subrun(good), [])
        for key, value in (("messages_by_type", good["messages"] + 1), ("committed", 0),
                           ("latency_samples", 999)):
            bad = dict(good, **{key: value})
            self.assertNotEqual(run.check_subrun(bad), [], key)
        changed = dict(good, sim_events=good["sim_events"] + 1)
        self.assertNotEqual(run.check_same_simulation(good, changed), [])

    def test_quantile_interpolates_inside_bucket(self):
        # Bucket midpoint 100 covers [99, 101); 64 linear sub-buckets per octave.
        self.assertEqual(run.bucket_width(100), 2)
        self.assertEqual(run.bucket_width(63), 1)
        hist = Counter({100: 10})
        self.assertAlmostEqual(run.quantile(hist, 0.0), 99.1)
        self.assertAlmostEqual(run.quantile(hist, 1.0), 100.9)
        self.assertAlmostEqual(run.quantile(Counter({10: 1, 20: 1, 30: 1}), 0.5), 20.0)

    def test_benchmark_json_matches_run_tables(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside xbench/")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.SIM_SUBRUNS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(n, u) for n, u, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
