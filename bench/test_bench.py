"""Smoke test of the benchmark itself, on tiny inputs (--quick).

    python3 -m unittest discover -s bench -p 'test_*.py'

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both modes; that a wrong answer injected into the check path
makes the command fail; and that the command refuses to run, without a
result line, in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


class BenchSmoke(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--quick")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_line(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in res["metrics"].items()}, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_injected_wrong_answer_fails_the_run(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--quick", "--inject-fault")
                self.assertNotEqual(proc.returncode, 0)
                res = result_line(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)

    def test_refuses_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("_out", "__pycache__"))
            proc = run_bench("--workload", "verify-sweep", "--seed", "3", "--seconds", "1",
                             "--trace", "0", root=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_line(proc))


if __name__ == "__main__":
    unittest.main()
