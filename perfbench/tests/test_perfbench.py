#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as run.py does), then checks that
  * every end-to-end metric of BENCHMARK.json, and every workload-specific
    metric of perfbench/metrics.json, is emitted for each workload;
  * the traced pass emits every per-layer metric;
  * each correctness gate trips when fed a deliberately corrupted reference;
  * results of differing provenance are refused by `run.py compare`.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(PERFBENCH, "metrics.json")) as f:
    METRICS = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke(workload, trace, *extra):
    """Runs the binary at smoke size; returns (result, detail) objects."""
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--smoke"] + list(extra),
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" %
                             (workload, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    detail = next(l for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), json.loads(detail[len("detail "):])


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def assert_clean(self, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_end_to_end_metric_on_every_workload(self):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, detail = smoke(workload, 0)
                self.assert_clean(result)
                got = result["metrics"]
                self.assertEqual(set(got), set(wanted))
                for name, unit in wanted.items():
                    self.assertEqual(got[name]["unit"], unit)
                    self.assertGreater(got[name]["value"], 0, name)
                for name in METRICS["workload_metrics"][workload]:
                    self.assertIn(name, detail, "%s on %s" % (name, workload))

    def test_every_layer_metric_in_the_traced_pass(self):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertTrue(set(METRICS["layers"]) <= set(wanted))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = smoke(workload, 1)
                self.assert_clean(result)
                got = result["metrics"]
                self.assertEqual(set(got), set(wanted))
                for name, unit in wanted.items():
                    self.assertEqual(got[name]["unit"], unit, name)

    def test_gates_trip_on_corrupted_references(self):
        for workload, gate in [("udp-hot", "socket"), ("udp-cold", "socket"),
                               ("zone-refresh", "socket"),
                               ("zone-refresh", "refresh"),
                               ("ditl-replay", "replay")]:
            with self.subTest(workload=workload, gate=gate):
                result, _ = smoke(workload, 0, "--corrupt", gate)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_compare_refuses_differing_provenance(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "a.json")
            b = os.path.join(tmp, "b.json")
            proc = subprocess.run(
                [run.BINARY, "--workload", "ditl-replay", "--seed", "7",
                 "--seconds", "1", "--trace", "0", "--smoke", "--result", a],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0)
            with open(a) as f:
                doc = json.load(f)
            self.assertEqual(run.compare(a, a), 0)
            doc["provenance"]["nproc"] = "1"
            with open(b, "w") as f:
                json.dump(doc, f)
            self.assertEqual(run.compare(a, b), 3)


if __name__ == "__main__":
    unittest.main(verbosity=2)
