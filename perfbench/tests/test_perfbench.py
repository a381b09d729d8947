#!/usr/bin/env python3
"""The benchmark's own tests: a smoke-size run of every workload (every
metric name and unit printed, oracles passing), the oracles' liveness under
injected faults, the inputs digest, and the refusal to run without the
sources.

    python3 perfbench/tests/test_perfbench.py

Builds through perfbench/run.py like a real run (the first call builds).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("compile", "service", "batch")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (%d):\n%s" %
                             (proc.returncode, proc.stderr[-3000:]))
    return json.loads(lines[-1])


def smoke(workload, trace, *extra):
    return result(run("--workload", workload, "--seed", "7", "--seconds",
                      "1.5", "--trace", trace, "--smoke", *extra))


class SmokeTest(unittest.TestCase):
    def check_metrics(self, res, spec):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = smoke(w, "0")
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                for name, v in res["metrics"].items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        res = smoke("compile", "1")
        self.check_metrics(res, SPEC["per_layer"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


class FaultTest(unittest.TestCase):
    def test_flipped_response_byte_is_a_failure(self):
        res = smoke("service", "0", "--inject-fault", "response")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_wrong_root_value_is_a_failure(self):
        res = smoke("batch", "0", "--inject-fault", "root")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)


class InputsTest(unittest.TestCase):
    def digest(self, seed):
        proc = run("--inputs-digest", "--seed", str(seed), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout

    def test_inputs_depend_only_on_the_seed(self):
        a, b, c = self.digest(3), self.digest(3), self.digest(4)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertIn("service.requests.client0", a)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result, and
        # a nonzero exit.
        tmp = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "compile",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
