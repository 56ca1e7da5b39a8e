#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root (about a minute):

    python3 perfbench/selftest.py

* Smoke: every workload at tiny scale, untraced and traced, each in a fresh
  process, prints every metric that applies to it with its unit, and closes
  with a correct result line carrying exactly the metrics BENCHMARK.json lists.
* A wrong expected report hash raises failed_ops_frac above 0.
* The tracer restores what it wrapped, also after an exception, and computes
  self time from children on other threads.
* BENCHMARK.json and perfbench/metrics.json name the same gated metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import types
import unittest

import run
from tracer import Tracer, layer_table


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in run.REGISTRY["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    level = "per_layer" if trace else "end_to_end"
                    self.assertEqual(set(result["metrics"]), set(run.gated(level)))
                    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                               if line and not line.startswith("#")}
                    for name, meta in run.METRICS.items():
                        if meta["level"] == level and run.applies(name, workload):
                            self.assertEqual(printed.get(name), meta["unit"], name)
                    for name, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], run.METRICS[name]["unit"])
                        self.assertIsInstance(entry["value"], (int, float))


class CorruptedOutputTest(unittest.TestCase):
    def test_wrong_expected_hash_counts_as_failed(self):
        sys.path.insert(0, str(run.SRC))
        args = run.parse_args(["--workload", "desk", "--seed", "5", "--seconds", "0.01", "--scale", "tiny"])
        record = run.run_workload(args, pins={"emse.json": "0" * 64})
        self.assertGreater(record["metrics"]["failed_ops_frac"], 0.0)
        self.assertFalse(record["result"]["correct"])
        self.assertTrue(any("emse.json sha256" in p for p in record["problems"]))


class TracerTest(unittest.TestCase):
    def test_wrappers_are_restored_after_an_exception(self):
        mod = types.SimpleNamespace(f=lambda x: x + 1)
        original = mod.f
        with self.assertRaises(RuntimeError):
            with Tracer("t") as tracer:
                tracer.wrap(mod, "f", "layer.f", lambda a, k, r: {"arg": a[0]})
                self.assertEqual(mod.f(1), 2)
                raise RuntimeError("boom")
        self.assertIs(mod.f, original)
        (span,) = tracer.spans
        self.assertEqual((span.name, span.attrs["arg"], span.run), ("layer.f", 1, "t"))

    def test_self_time_subtracts_children_on_other_threads(self):
        def child():
            time.sleep(0.05)

        def parent():
            workers = [threading.Thread(target=mod.child) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=5)
                self.assertFalse(w.is_alive())

        mod = types.SimpleNamespace(child=child, parent=parent)
        with Tracer("t") as tracer:
            tracer.wrap(mod, "child", "inner.child")
            tracer.wrap(mod, "parent", "outer.parent")
            mod.parent()
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["inner.child"].parent, by_name["outer.parent"].id)
        table = layer_table(tracer.spans)
        self.assertEqual(table["inner"]["spans"], 2)
        # the two children overlap in time, so self time is the parent minus ~0.05 s
        self.assertLess(table["outer"]["self_s"], table["outer"]["total_s"] - 0.04)


class RegistryTest(unittest.TestCase):
    def test_benchmark_json_matches_registry(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for level in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in bench[level]}
            self.assertEqual(listed, {n: run.METRICS[n]["unit"] for n in run.gated(level)})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.REGISTRY["workloads"]))
        for name in run.gated("per_layer") + run.gated("end_to_end"):
            self.assertEqual(run.METRICS[name]["workloads"], "all", name)


if __name__ == "__main__":
    unittest.main()
