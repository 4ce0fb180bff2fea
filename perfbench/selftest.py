#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks the
metric names and units against BENCHMARK.json; checks that one corrupted
digit makes a task fail; checks the self-time arithmetic on synthetic
spans; and checks that run.py refuses a directory without ffzeta sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracer


def _contract():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_contract(self):
        bench = _contract()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         tracer.metric_specs())

    def test_tiny_runs_emit_every_metric(self):
        bench = _contract()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    res = run.run(name, 7, 0, trace, size="tiny")
                    self.assertEqual(res["failures"], [])
                    self.assertTrue(res["correct"])
                    got = {k: m["unit"] for k, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in res["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_corrupted_digit_fails(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                res = run.run(name, 7, 0, 0, size="tiny", corrupt=True)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"] / res["attempted"], 0)

    def test_bare_directory_is_refused(self):
        bare = run.WORKDIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "zeta-batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # task [0, 10] > a [1, 6] > b [2, 3], b [4, 5.5]; task > c [7, 9]
        spans = [
            (0, 0.0, 10.0, -1),
            (1, 1.0, 6.0, 0),
            (2, 2.0, 3.0, 1),
            (2, 4.0, 5.5, 1),
            (3, 7.0, 9.0, 0),
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.5, 1.0, 1.5, 2.0])

    def test_metrics_aggregate_by_function_and_module(self):
        t = tracer.Tracer()
        t.names = ["task", "laurent.Laurent.add", "backend.convolve_mod"]
        t.stats = {f"{m}.{f}": make() for m, f, _, _, make in tracer.TRACED}
        t.spans = [(0, 0.0, 4.0, -1), (1, 0.5, 2.0, 0), (2, 1.0, 1.5, 1), (1, 2.5, 3.0, 0)]
        m = t.metrics()
        self.assertEqual(m["laurent.Laurent.add.calls"], 2)
        self.assertAlmostEqual(m["laurent.Laurent.add.self_s"], 1.5)
        self.assertAlmostEqual(m["backend.convolve_mod.self_s"], 0.5)
        self.assertAlmostEqual(m["laurent.self_s"], 1.5)
        self.assertEqual(m["linalg.rref.calls"], 0)


if __name__ == "__main__":
    unittest.main()
