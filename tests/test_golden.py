"""Replay the benchmark's recorded outputs: the byte-identical output promise.

Each argument vector recorded in `perfbench/golden.json` is run through
`entloc.cli.main`, and its output is compared with the recording by the
benchmark's own `checks.golden_differences` (CSV byte for byte, JSON field
by field).
"""

import importlib.util
from pathlib import Path

import pytest

from entloc import cli

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

GOLDEN = checks.load_golden()


@pytest.mark.parametrize("command_line", sorted(GOLDEN))
def test_matches_recording(tmp_path, command_line):
    argv = command_line.split(" ")
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert checks.golden_differences(GOLDEN[command_line], text, argv[0]) == []
