#!/usr/bin/env python3
"""The benchmark's own tests: python3 perfbench/test_perfbench.py

Builds the benchmark binary if needed and runs each workload briefly;
about a minute in total.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIM_METRICS = [n for n, _, _, kind in run.PER_LAYER if kind == "sim"]


def traced(workload, seed, seconds=1.0):
    path = os.path.join(run.BUILD_DIR, f"test-{workload}-{seed}.json")
    raw, err = run.run_binary(workload, seed, seconds, path)
    assert raw is not None, err
    metrics, rows, timed = run.per_layer(raw, run.load_spans(path + ".jsonl"))
    return raw, metrics, rows, timed


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "perfbench build failed"

    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for section, table in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[section]],
                [(n, u, b) for n, u, b, _ in table])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        raw, _ = run.run_binary("kv-zipf", 3, 0.2, None)
        self.assertEqual(set(run.end_to_end(raw)),
                         {n for n, _, _, _ in run.END_TO_END})
        _, metrics, _, _ = traced("kv-zipf", 3, 0.2)
        self.assertEqual(set(metrics), {n for n, _, _, _ in run.PER_LAYER})

    def test_sim_metrics_repeat_exactly_for_a_fixed_seed(self):
        for workload in ("kv-zipf", "crash-sweep"):
            a_raw, a, _, _ = traced(workload, 11, 0.2)
            b_raw, b, _, _ = traced(workload, 11, 0.2)
            self.assertEqual(a_raw["digest"], b_raw["digest"], workload)
            self.assertEqual(a_raw["failed"], 0, a_raw["why"])
            for name in SIM_METRICS:
                self.assertEqual(a[name], b[name], f"{workload} {name}")

    def test_suite_and_suite_parallel_digests_are_equal(self):
        suite, _ = run.run_binary("suite", 1, 0.1, None)
        parallel, _ = run.run_binary("suite-parallel", 2, 0.1, None)
        self.assertEqual(suite["failed"], 0, suite["why"])
        self.assertEqual(parallel["failed"], 0, parallel["why"])
        self.assertEqual(suite["digest"], parallel["digest"])
        self.assertEqual(suite["sim"], parallel["sim"])

    def test_per_layer_times_never_exceed_the_timed_time(self):
        for workload in ("kv-zipf", "suite"):
            raw, metrics, rows, timed = traced(workload, 5, 0.5)
            timed_s = timed.dur / raw["traced_passes"] / 1e6
            for name, unit, _, _ in run.PER_LAYER:
                if unit == "s" and name != "workloads.setup_s":
                    self.assertLessEqual(metrics[name], timed_s,
                                         f"{workload} {name}")
            main_self = sum(own for key, (_, own, _) in rows.items()
                            if not key.endswith("[worker]"))
            self.assertLessEqual(main_self, timed.dur)
            self.assertGreaterEqual(metrics["obs.layer_coverage"], 0.9)


if __name__ == "__main__":
    unittest.main()
