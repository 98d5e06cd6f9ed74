"""The command line corpus of `tools/cli_corpus.py` against its committed listing.

`tests/cli_corpus.txt` records, for each of the corpus' fixed invocations, the
exit code and the SHA-256 digests of stdout, stderr and the --out file.  A
change that moves output on purpose regenerates the listing with

    python tools/cli_corpus.py src > tests/cli_corpus.txt

so that its diff shows every moved invocation.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "cli_corpus.txt"


def argv_of(line: str) -> str:
    return line.split(" ", 4)[4]  # after the exit code and the three digests


def test_the_corpus_prints_its_committed_listing():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_corpus.py"),
                             str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    found, recorded = result.stdout.splitlines(), LISTING.read_text(encoding="utf-8").splitlines()
    assert [argv_of(line) for line in found] == [argv_of(line) for line in recorded]
    moved = [argv_of(line) for line, expected in zip(found, recorded) if line != expected]
    assert not moved, f"{len(moved)} invocations moved:\n" + "\n".join(moved)
