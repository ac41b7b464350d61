#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark the way run.py does, then checks that
  * a short run of every workload prints every metric BENCHMARK.json
    names, with its unit, in both the untraced and the traced variant;
  * the same seed gives a byte-identical op stream, another seed a
    different one;
  * the model check trips when the model forgets one write;
  * two short runs agree exactly on siblings_per_get and
    token_bytes_per_get.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())


def perfbench(*args):
    """Runs the binary; returns (exit code, stdout, stderr, result or None)."""
    env = dict(os.environ, DVV_METRICS="off")
    p = subprocess.run([BINARY, *args], capture_output=True, text=True,
                       env=env, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, p.stdout, p.stderr, result


def short_run(workload, seed, trace=0, seconds=2):
    return perfbench("--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace), "--short")


class ShortModeMetrics(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, out, err, result = short_run(w["name"], 7, trace)
                self.assertEqual(code, 0, err)
                self.assertIsNotNone(result, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                for name, unit in expected.items():
                    self.assertIn(name, out)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")


class OpStream(unittest.TestCase):
    def dump(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = os.path.join(tmp, "stream.bin")
            code, out, err, _ = perfbench("--workload", workload, "--seed", str(seed),
                                          "--short", "--dump-stream", path)
            self.assertEqual(code, 0, err)
            with open(path, "rb") as f:
                return f.read()

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a = self.dump(w["name"], 11)
                self.assertGreater(len(a), 0)
                self.assertEqual(a, self.dump(w["name"], 11))
                self.assertNotEqual(a, self.dump(w["name"], 12))


class ModelCheck(unittest.TestCase):
    def test_dropped_write_trips_the_model_check(self):
        # Index 16 of an rmw_uniform stream is its first PUT (after the
        # 16 GETs that open the GET->PUT lag); the model forgets it.
        code, out, err, result = perfbench(
            "--workload", "rmw_uniform", "--seed", "5", "--seconds", "2",
            "--trace", "0", "--short", "--drop-model-write", "16")
        self.assertEqual(code, 1, err)
        self.assertIn("model mismatch", err)
        self.assertIn("key k0-", err)
        self.assertIn("op index", err)
        self.assertIn("put@16", err)
        self.assertFalse(result["correct"])

    def test_intact_model_passes(self):
        code, _, err, result = short_run("rmw_uniform", 5)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])


class ExactCounts(unittest.TestCase):
    def test_two_runs_agree_exactly(self):
        for workload in ("rmw_uniform", "read_mostly", "sibling_storm"):
            with self.subTest(workload=workload):
                runs = [short_run(workload, 21)[3]["metrics"] for _ in range(2)]
                for name in ("siblings_per_get", "token_bytes_per_get"):
                    self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)

    def test_storm_siblings_are_the_concurrent_writers(self):
        m = short_run("sibling_storm", 3)[3]["metrics"]
        self.assertGreater(m["siblings_per_get"]["value"], 1.0)
        self.assertLessEqual(m["siblings_per_get"]["value"], 16.0)


if __name__ == "__main__":
    unittest.main()
