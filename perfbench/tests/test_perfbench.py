#!/usr/bin/env python3
"""Self-test of the VAQ wall-clock benchmark.

    python3 perfbench/tests/test_perfbench.py      (from the checkout root)

Checks BENCHMARK.json against the benchmark contract, runs every workload
briefly untraced and traced, and requires each run to exit 0 with no
failed op and exactly the metrics BENCHMARK.json lists, each with its
unit. Finally runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result line.
The smoke runs take a minute or two; the first one also builds.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SMOKE_SECONDS = "1"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, workload, trace, seed="7"):
    cmd = load_spec()["command"] + ["--workload", workload, "--seed", seed,
                                    "--seconds", SMOKE_SECONDS,
                                    "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        for arg in spec["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] +
                 spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # fail_ratio = 0
        self.assertTrue(result["correct"])
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_workloads(self):
        for workload in load_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_run(workload["name"], trace)

    def test_fails_outside_a_checkout(self):
        spec = load_spec()
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, spec["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertFalse(line.startswith("{"), line)


if __name__ == "__main__":
    unittest.main(verbosity=2)
