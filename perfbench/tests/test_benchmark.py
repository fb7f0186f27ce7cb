"""Self-test of the benchmark at smoke size.

    python3 -m unittest discover -s perfbench/tests

Runs every workload through `perfbench/run.py --smoke`, untraced and traced,
and checks that every metric BENCHMARK.json declares is reported with a
finite value and no op fails; then checks that a deliberately wrong
expected value makes every workload fail.
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, trace, declared):
        names = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, result = run(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), set(names))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], names[name], name)
                    self.assertTrue(math.isfinite(metric["value"]), name)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_wrong_expectation_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--expect-wrong")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
