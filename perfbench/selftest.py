"""Self-tests of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

They import the package from `src/` of the checkout, like `run.py`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import checks
import run
import workloads
from tracer import Tracer, public_functions

sys.path.insert(0, str(run.SRC))

from entloc import cli  # noqa: E402  (needs the path above)

MODULES = [importlib.import_module(f"entloc.{layer}") for layer in run.LAYERS]


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.golden = checks.load_golden()

    def test_recorded_outputs_pass(self):
        for key, recorded in self.golden.items():
            text = recorded if key.split()[0] in checks.CSV_COMMANDS else json.dumps(recorded)
            self.assertEqual(checks.check_output(key.split(), 0, text, self.golden), [], key)

    def test_perturbed_outputs_are_failures(self):
        self.assertEqual(checks.perturbation_selftest(self.golden), [])

    def test_new_json_keys_are_ignored(self):
        key = next(k for k in self.golden if k.startswith("verify"))
        report = dict(self.golden[key], provenance={"elapsed_s": 0.1})
        self.assertEqual(checks.check_output(key.split(), 0, json.dumps(report), self.golden), [])

    def test_wrong_exit_code_and_missing_output_are_failures(self):
        key = next(iter(self.golden))
        self.assertTrue(checks.check_output(key.split(), 1, self.golden[key], self.golden))
        self.assertTrue(checks.check_output(key.split(), 0, None, self.golden))

    def test_closed_forms_catch_a_wrong_unrecorded_sweep(self):
        argv = workloads.sweep("T", 0.1, 0.9, 11, 0.4, 0.3, 0.2)
        self.assertNotIn(checks.key(argv), self.golden)
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            out = Path(tmp) / "output"
            self.assertEqual(cli.main([*argv, "--out", str(out)]), 0)
            text = out.read_text(encoding="utf-8")
        self.assertEqual(checks.check_output(argv, 0, text, self.golden), [])
        lines = text.split("\n")
        cells = lines[3].split(",")
        cells[2] = cli.fmt(float(cells[2]) + 1e-6)  # stage_II
        lines[3] = ",".join(cells)
        self.assertTrue(checks.check_output(argv, 0, "\n".join(lines), self.golden))


class TracerChecks(unittest.TestCase):
    def traced_op(self, argv, entry=None):
        """(summary, seconds) of one traced operation; `entry` replaces `cli.main`."""
        before = [dict(vars(module)) for module in MODULES]
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            with Tracer(MODULES) as tracer:
                self.assertIsNot(MODULES[0].main, before[0]["main"])
                elapsed, code = run.call_main(entry or cli, argv, Path(tmp) / "output")
                summary = tracer.take()
        self.assertEqual(code, 0)
        for module, attrs in zip(MODULES, before):
            for name, obj in vars(module).items():
                self.assertIs(obj, attrs[name], f"{module.__name__}.{name} not restored")
        return summary, elapsed

    def root_gap(self, argv, entry=None) -> float:
        """Median seconds of three traced operations not covered by layer self times."""
        gaps = []
        for _ in range(3):
            summary, elapsed = self.traced_op(argv, entry)
            gaps.append(elapsed - sum(summary.self_s.values()))
        return statistics.median(gaps)

    def test_restored_and_self_times_sum_to_operation_time(self):
        argv = workloads.sweep("T", 0.0, 1.0, 7, 0.4, 0.5, 0.2)
        summary, _ = self.traced_op(argv)
        self.assertGreater(summary.calls["fock_oracle"], 0)
        self.assertLessEqual(self.root_gap(argv), run.ROOT_GAP_TOL)

    def test_unwrapped_entry_point_misses_operation_time(self):
        entry = types.SimpleNamespace(main=cli.main)  # bound before tracing, like a `from` import
        self.assertGreater(self.root_gap(workloads.sweep("T", 0.0, 1.0, 7, 0.4, 0.5, 0.2), entry),
                           run.ROOT_GAP_TOL)

    def test_analytic_sweep_never_calls_the_oracle(self):
        summary, _ = self.traced_op(workloads.sweep("T", 0.0, 1.0, 7, 0.4, 0.0, 0.2))
        self.assertEqual(summary.calls.get("fock_oracle", 0), 0)
        self.assertGreater(summary.raised["protocol"], 0)  # eps_to_filter/stage3 at T = 0

    def test_restored_when_the_traced_call_raises(self):
        before = public_functions(MODULES[0])
        with self.assertRaises(ValueError):
            with Tracer(MODULES) as tracer:
                MODULES[0].fmt("not a number")
        self.assertEqual(public_functions(MODULES[0]), before)
        self.assertEqual(tracer.take().raised, {"cli": 1})

    def test_from_imports_are_not_wrapped(self):
        protocol = importlib.import_module("entloc.protocol")
        with Tracer(MODULES):
            self.assertFalse(hasattr(protocol.check_unit_interval, "__wrapped__"))
            self.assertTrue(hasattr(protocol.stage3_filter, "__wrapped__"))


class Helpers(unittest.TestCase):
    def test_tail_leaves_ten_samples_above(self):
        times = [float(i) for i in range(100)]
        value, percentile = run.tail(times)
        self.assertEqual(sum(t > value for t in times), run.TAIL_BEYOND)
        self.assertEqual(percentile, 90.0)

    def test_parse_importtime(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     numpy.version\n"
            "import time:      1904 |     105844 |     numpy\n"
            "import time:      6086 |     120895 |   entloc.fock_oracle\n"
            "import time:       630 |     126984 | entloc\n"
            "import time:      9091 |      17665 | entloc.cli\n"
        )
        numpy_s, entloc_s = run.parse_importtime(stderr)
        self.assertAlmostEqual(numpy_s, 0.105844)
        self.assertAlmostEqual(entloc_s, 0.144649)

    def test_streams_repeat_for_a_seed(self):
        for name in workloads.WORKLOADS:
            first = list(itertools.islice(workloads.operations(name, 5), 20))
            self.assertEqual(first, list(itertools.islice(workloads.operations(name, 5), 20)))
            self.assertNotEqual(first, list(itertools.islice(workloads.operations(name, 6), 20)))

    def test_refuses_a_directory_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep_dist", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("correct", result.stdout)


if __name__ == "__main__":
    unittest.main()
