#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale (about a minute).

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the seed-determined counts repeat exactly at one seed, that a
deliberately wrong cover is counted as a failure, and that the command
fails cleanly when the library sources are absent.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

# Counts fixed by the seed alone, by the mode whose result carries them.
REPEATABLE = {
    "0": ["state_words", "cover_ratio"],
    "1": ["comm.message_words", "stream.bytes_per_edge",
          "run.checkpoint_bytes"],
}

_cache = {}


def run(workload, trace, *extra, seed=SEED, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.5", "--trace", trace, "--scale", "tiny",
               *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done


def cached(workload, trace, attempt=0):
    key = (workload, trace, attempt)
    if key not in _cache:
        _cache[key] = run(workload, trace)
    return _cache[key]


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, specs):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, result, done = cached(workload, trace)
                self.assertEqual(code, 0, done.stderr[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {s["name"] for s in specs})
                for spec in specs:
                    self.assertEqual(metrics[spec["name"]]["unit"],
                                     spec["unit"], spec["name"])
                    self.assertIsInstance(metrics[spec["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_have_units(self):
        self.check_metrics("0", SPEC["end_to_end"])

    def test_per_layer_metrics_have_units(self):
        self.check_metrics("1", SPEC["per_layer"])

    def test_counts_repeat_at_one_seed(self):
        for trace, names in REPEATABLE.items():
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, first, _ = cached(workload, trace)
                    _, second, _ = cached(workload, trace, attempt=1)
                    for name in names:
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"],
                                         name)


class FailureTest(unittest.TestCase):
    def test_wrong_cover_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, done = run(workload, "0",
                                         "--inject-wrong-cover")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, done.stdout[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            copy = pathlib.Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", copy)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, copy / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run(WORKLOADS[0], "0", cwd=copy)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
