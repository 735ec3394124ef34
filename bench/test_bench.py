"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench

They are not part of the repository's test suite, and that suite must not
depend on the benchmark (the last test checks it).
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))
import sixrde.cli  # noqa: E402

BENCH_MODULES = {p.stem for p in run.BENCH.glob("*.py")} | {"bench"}


def generated_files(workload_cls, seed: int) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        workload_cls(seed, Path(tmp))
        return {
            str(p.relative_to(tmp)): p.read_bytes()
            for p in sorted(Path(tmp).rglob("*.json"))
        }


class GenerationTest(unittest.TestCase):
    def test_inputs_are_a_function_of_the_seed(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                first = generated_files(cls, 7)
                self.assertTrue(first)
                self.assertEqual(first, generated_files(cls, 7))
                self.assertNotEqual(first, generated_files(cls, 8))

    def test_benchmark_json_records_each_workloads_rationale(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {w["name"]: w["why"] for w in spec["workloads"]},
            {name: cls.why for name, cls in workloads.WORKLOADS.items()},
        )


class VerificationTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def ops(self, name: str, seed: int = workloads.DEFAULT_SEED):
        workload = workloads.WORKLOADS[name](seed, Path(self.tmp.name))
        ops = workload.cycle(sixrde, workload.load(sixrde, workload.workdir))
        for op in ops:
            op.gauges()
        return workload, ops

    def test_correct_outputs_pass(self):
        _workload, ops = self.ops("export")
        attempted, failed, metrics = run.end_to_end(ops[:6], 0, 0.0)
        self.assertEqual((attempted, failed, metrics["ok_frac"]), (6, 0, 1.0))

    def test_corrupted_pinned_digest_raises_failed_frac(self):
        workload, ops = self.ops("export")
        self.assertIn(ops[0].key, workload.pinned)
        workload.pinned[ops[0].key] = "0" * 64
        attempted, failed, metrics = run.end_to_end(ops[:6], 0, 0.0)
        self.assertEqual(failed, 1)
        self.assertEqual(metrics["ok_frac"], 5 / 6)

    def test_corrupted_reference_value_raises_failed_frac(self):
        workload, ops = self.ops("sweep", seed=3)
        want = workload.expected(0)
        workload._expected[0] = replace(
            want, terms=want.terms[:-1] + (want.terms[-1] + 1,))
        attempted, failed, metrics = run.end_to_end(ops[:2], 0, 0.0)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertLess(metrics["ok_frac"], 1.0)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans = [
            (1, 0, "cli.main", 0, 100),
            (2, 1, "oracle.iterate", 10, 40),
            (3, 1, "core.format_rational", 50, 60),
        ]
        total, own, calls = tracer.layer_times()
        self.assertAlmostEqual(own["cli.main"], 60e-9)
        self.assertAlmostEqual(total["cli.main"], 100e-9)
        self.assertEqual(calls["oracle.iterate"], 1)

    def test_restore_puts_every_original_back(self):
        originals = (sixrde.iterate, sixrde.oracle.iterate, sixrde.cli.format_rational,
                     sixrde.CoefficientSequence.pair_at)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(sixrde.oracle.iterate, originals[1])
            self.assertIs(sixrde.iterate, sixrde.oracle.iterate)
        finally:
            tracer.restore()
        self.assertEqual(
            (sixrde.iterate, sixrde.oracle.iterate, sixrde.cli.format_rational,
             sixrde.CoefficientSequence.pair_at),
            originals,
        )


class IndependenceTest(unittest.TestCase):
    def test_tier1_imports_nothing_from_the_benchmark(self):
        files = [*(run.ROOT / "tests").rglob("*.py"), *(run.ROOT / "src").rglob("*.py")]
        self.assertTrue(files)
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                elif isinstance(node, ast.FunctionDef):
                    # pytest-benchmark is used through its `benchmark` fixture
                    names = ["pytest_benchmark"] * any(
                        a.arg == "benchmark" for a in node.args.args)
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    self.assertNotIn(top, BENCH_MODULES, f"{path} imports {name}")
                    self.assertNotEqual(top, "pytest_benchmark", f"{path} uses {name}")


if __name__ == "__main__":
    unittest.main()
