"""Self-tests of the benchmark, on tiny instances over the same code paths.

Run from the repository root:

    python3 -m unittest perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from hublab.labeling import parse_labeling  # noqa: E402


def invoke(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


class EveryMetricEmitted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    args = ["--workload", workload["name"], "--seed", "3", "--seconds", "1"]
                    proc = invoke(ROOT, *args, "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)


class Gate(unittest.TestCase):
    def test_flipped_hub_distance_fails_the_gate(self):
        with run.Bench("random-hhl", 999, tiny=True) as bench:
            try:
                bench.setup(1)
                build, verify = bench.spec.ops[:2]
                bench.measured(build, parse_labeling)
                bench.measured(verify, parse_labeling)
                self.assertEqual(bench.failures, [])

                path = bench.dir / build.labels
                lines = path.read_text().splitlines()
                for i, line in enumerate(lines):
                    tag, v, *entries = line.split()
                    for j, entry in enumerate(entries):
                        hub, dist = map(int, entry.split(":"))
                        if hub != int(v):
                            entries[j] = f"{hub}:{dist + 1}"
                            lines[i] = " ".join([tag, v, *entries])
                            break
                    else:
                        continue
                    break
                path.write_text("\n".join(lines) + "\n")

                self.assertGreater(oracle.label_errors(path, bench.ref[build.graph]), 0)
                bench.measured(verify, parse_labeling)
                self.assertGreater(bench.failed, 0)
                self.assertIn("exit 1", bench.failures[0])
            finally:
                shutil.rmtree(bench.dir, ignore_errors=True)


class MissingProgram(unittest.TestCase):
    def test_fails_without_a_result_when_only_the_benchmark_is_present(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            args = ["--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = invoke(bare, *args)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
