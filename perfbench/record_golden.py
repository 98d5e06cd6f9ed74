"""Record the outputs that `checks.py` compares operations against.

    python3 perfbench/record_golden.py

Runs the first operations of every workload for the default seed through
`entloc.cli.main` and writes their outputs to `golden.json`.  Re-record only
when an output change is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
FIRST_OPS = {"cli_session": 8, "sweep_dist": 6, "sweep_overlap": 6, "verify_suite": 6}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from entloc import cli

    outputs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = Path(tmp) / "output"
        for workload, count in FIRST_OPS.items():
            for argv in itertools.islice(workloads.operations(workload, DEFAULT_SEED), count):
                if cli.main([*argv, "--out", str(out)]) != 0:
                    raise SystemExit(f"{checks.key(argv)} did not exit with 0")
                text = out.read_bytes().decode("utf-8")
                outputs[checks.key(argv)] = text if argv[0] in checks.CSV_COMMANDS else json.loads(text)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": DEFAULT_SEED, "outputs": outputs}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs in {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
