#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the repository root after `dune build`. Checks that
BENCHMARK.json and the metric table in perfbench.ml agree, and that one
short untraced run of every workload prints every end-to-end metric with
its unit and its host/sim tag, and puts each in its final JSON line.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "out", "test")

METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)\s+\[(host|sim)\]")


def describe():
    out = subprocess.run([EXE, "--describe"], capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.desc = describe()
        cls.runs = {}
        for w in cls.desc["workloads"]:
            out = subprocess.run(
                [EXE, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--out", OUT],
                capture_output=True, text=True, timeout=170)
            cls.runs[w["name"]] = out

    def test_workloads_match(self):
        # BENCHMARK.json lists the workloads steady enough to gate on;
        # perfbench may define more (sets: see perfbench.ml).
        mine = [w["name"] for w in self.desc["workloads"]]
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], mine)
        for w in self.desc["workloads"]:
            self.assertTrue(w["why"])

    def test_metric_tables_match(self):
        mine = {m["name"]: m for m in self.desc["end_to_end"]}
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(mine))
        for m in self.spec["end_to_end"]:
            self.assertEqual(m["unit"], mine[m["name"]]["unit"], m["name"])
            self.assertEqual(m["better"], mine[m["name"]]["better"], m["name"])
            self.assertIn(mine[m["name"]]["base"], ("host", "sim"))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         [(m["name"], m["unit"]) for m in self.desc["per_layer"]])

    def test_every_metric_printed(self):
        e2e = {m["name"]: m for m in self.desc["end_to_end"]}
        serve_only = {m["name"]: m for m in self.desc["serve_only"]}
        for name, out in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
                printed = {}
                for line in out.stdout.splitlines():
                    m = METRIC_LINE.match(line)
                    if m:
                        printed[m.group(1)] = (m.group(3), m.group(4),
                                               float(m.group(2)))
                expect = dict(e2e)
                if name == "serve":
                    expect.update(serve_only)
                for metric, spec in expect.items():
                    self.assertIn(metric, printed)
                    unit, base, value = printed[metric]
                    self.assertEqual((unit, base), (spec["unit"], spec["base"]))
                    self.assertNotEqual(value, 0.0, metric)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(e2e))
                for metric, v in result["metrics"].items():
                    self.assertEqual(v["unit"], e2e[metric]["unit"])


if __name__ == "__main__":
    if not os.path.exists(EXE):
        sys.exit("build first: dune build ./perfbench/perfbench.exe")
    unittest.main()
