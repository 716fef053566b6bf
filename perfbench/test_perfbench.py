#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark, runs its C++ unit tests (nearest-rank percentiles,
the open-loop arrival schedule, span self time, the adapter decorator, and
traced reps matching plain ones), checks BENCHMARK.json against what the
command prints, and runs every workload in smoke mode, plain and traced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, trace, seed=7):
    """Runs one smoke run through the command; returns (exit code, lines)."""
    spec = load_spec()
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench", "perfbench_test"))

    def test_unit(self):
        out = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_test")],
                             capture_output=True, text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_spec_names(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def check_run(self, workload, trace, metrics):
        code, lines, err = smoke(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines) + err)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        printed = "\n".join(lines[:-1])
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn("metric %s = " % m["name"], printed)
        self.assertRegex(printed, r"worker_pool_threads=0 ")
        for key in ("nproc=", "build_type=", "cxx_flags=", "sha_ni=",
                    "git_commit=", "seed=7", "latency_samples="):
            self.assertIn(key, printed)
        return result

    def test_smoke_plain(self):
        spec = load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 0, spec["end_to_end"])
                for m in spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_smoke_traced(self):
        spec = load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, spec["per_layer"])

    def test_unknown_workload_is_refused(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
