"""Run a fixed corpus of `entloc` invocations and print a digest of each.

    python tools/cli_corpus.py SRC > corpus.txt

SRC is a source tree that holds the `entloc` package (the `src` directory of a
checkout).  A child process imports the package from SRC and runs every
invocation of the corpus through `entloc.cli.main`, in a temporary working
directory that takes every --out file.  For each invocation it prints one line:

    <exit code> <sha256 of stdout> <sha256 of stderr> <sha256 of the --out file or -> <argv>

To see what a change moves in the command line output, run the tool on the
source tree before and after the change and diff the two listings.  The corpus
covers T, p and eps sweeps (T in {0, 1/2, 1} and random, p in {0, 1} and
random, mixed p, eps down to 1e-15), `verify` grids, every `reproduce` table
with and without its overrides (the formulas table at T down to 1e-300), `hom`
(T within 1e-9 of 0 and of 1, 1e-5, 0.99999 and subnormal T included), the
stage III limit at p = 1 within one ulp of T = 1/2 and at p within 1e-7 of 1, a T of
-0.0, and usage errors.  It is drawn from a
fixed seed, so every run lists the same invocations.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

OUT = "out.txt"  # the --out file, relative to the child's temporary working directory
SEED = 20261019


def corpus() -> list[list[str]]:
    """The invocations, each an argv list; those that take "--out" write to OUT."""
    rng = random.Random(SEED)

    def draw() -> str:
        return repr(rng.random())

    runs = []
    for p in ["0", "1", draw(), draw()]:
        for eps in ["0.15", "1", "1e-12", draw()]:
            runs.append(["sweep", "--p", p, "--eps", eps])
        runs.append(["sweep", "--p", p, "--steps", "2"])
        runs.append(["sweep", "--p", p, "--min", "0.3", "--max", "0.7", "--steps", "3"])
        lo, hi = sorted(rng.random() for _ in range(2))
        runs.append(["sweep", "--p", p, "--min", repr(lo), "--max", repr(hi), "--steps", "37"])
    # T near 1/2 at p = 1, where the filtration limit cancels
    runs.append(["sweep", "--min", "0.4999999999999999", "--max", "0.5000000000000002",
                 "--steps", "4", "--p", "1"])
    runs.append(["sweep", "--min", "0.4999", "--max", "0.5001", "--steps", "11", "--p", "1"])
    for t in ["0", "0.5", "1", draw(), draw()]:
        runs.append(["sweep", "--variable", "p", "--T", t])  # mixed p: p = 0 and p > 0
        runs.append(["sweep", "--variable", "p", "--T", t, "--min", "0.2", "--steps", "11"])
        for p in ["0", "1", draw()]:
            runs.append(["sweep", "--variable", "eps", "--T", t, "--p", p, "--min", "1e-12"])
            runs.append(["sweep", "--variable", "eps", "--T", t, "--p", p, "--min", "0.5",
                         "--steps", "5"])
    runs.append(["sweep", "--steps", "600", "--p", draw()])  # more than one grid block
    runs.append(["sweep", "--variable", "p", "--steps", "600", "--T", draw()])
    for grid in ["2", "3", "10", "50"]:
        runs.append(["verify", "--grid", grid])
    runs.append(["verify", "--grid", "10", "--tolerance", "1e-20"])  # fails: exit 1
    runs.append(["verify", "--grid", "50", "--tolerance", "1e-300"])  # two blocks, every record
    for table in ["formulas", "distinguishable", "indistinguishable", "I", "II", "III"]:
        runs.append(["reproduce", "--table", table])
        for t in ["0", "0.3", "0.9", "1", draw()]:
            runs.append(["reproduce", "--table", table, "--T", t])
        for flag in ["--aa", "--ab"]:
            for value in ["0", "0.3", "1", draw()]:
                runs.append(["reproduce", "--table", table, flag, value])
        runs.append(["reproduce", "--table", table, "--aa", "0.2", "--ab", "0.6"])
    for t in ["0.5", "0.3", "1e-9", "1e-12", "0.999999999", "0.999999999999", draw()]:
        runs.append(["hom", "--T", t])
        runs.append(["hom", "--T", t, "--steps", "2"])
    runs = [[*argv, "--out", OUT] for argv in runs]
    runs.append(["sweep", "--steps", "5"])  # to stdout
    runs.append(["hom", "--steps", "3"])
    usage_errors = [
        [], ["nope"], ["sweep", "--steps", "1"], ["sweep", "--min", "0.5", "--max", "0.5"],
        ["sweep", "--min", "-0.1"], ["sweep", "--max", "1.1"], ["sweep", "--T", "1.5"],
        ["sweep", "--p", "-0.1"], ["sweep", "--eps", "0"], ["sweep", "--eps", "5"],
        ["sweep", "--eps", "nan"], ["sweep", "--variable", "x"], ["sweep", "--steps", "2.5"],
        ["sweep", "--variable", "eps", "--min", "0"], ["sweep", "--out", "missing/out.csv"],
        ["verify", "--grid", "1"], ["verify", "--grid", "abc"], ["verify", "--tolerance", "0"],
        ["verify", "--tolerance", "nan"], ["verify", "--tolerance", "inf"],
        ["reproduce", "--table", "nope"], ["reproduce", "--table", "formulas", "--aa", "0.3"],
        ["reproduce", "--table", "II", "--aa", "1.5"], ["reproduce", "--T", "-1"],
        ["hom", "--T", "0"], ["hom", "--T", "1"], ["hom", "--steps", "1"],
        ["--config", "missing.ini", "sweep"], ["sweep", "--config", "missing.ini"],
    ]
    # p > 0 sweeps through T = 0 with pass rates on both sides of the 1e-15 block
    # threshold, a mixed p sweep over two grid blocks and an eps usage error at p > 0
    blocks = [["sweep", "--p", "0.5", "--eps", eps] for eps in ["1e-15", "1.1e-15"]]
    blocks.append(["sweep", "--variable", "p", "--min", "0", "--steps", "300", "--T", "0.3"])
    blocks = [[*argv, "--out", OUT] for argv in blocks]
    blocks.append(["sweep", "--variable", "eps", "--p", "0.5", "--min", "0"])
    # the formulas table where its eps = 1e-6 filters block the stage II state (T = 1e-5 and
    # 1e-300) and where they pass (1e-4), a p sweep to the limit's zero at T = 1/2, p = 1,
    # and an eps sweep at p > 0 whose smallest pass rates fall below the block threshold
    limits = [["reproduce", "--table", "formulas", "--T", t] for t in ["1e-5", "1e-4", "1e-300"]]
    limits.append(["sweep", "--variable", "p", "--T", "0.5", "--min", "0.9", "--max", "1",
                   "--steps", "11"])
    limits.append(["sweep", "--variable", "eps", "--T", "1e-5", "--p", "0.5", "--min", "1e-12"])
    # hom where a visibility taken as a difference of coincidences loses digits (T = 1e-5,
    # 0.99999) or all of them (subnormal T), and its usage errors for T outside [0, 1] or -0
    limits += [["hom", "--T", "1e-5"], ["hom", "--T", "0.99999"],
               ["hom", "--T", "5e-324", "--steps", "2"], ["hom", "--T", "1e-300", "--steps", "3"]]
    # the filtration limit at p = 1 within 2e-9 and one ulp of T = 1/2, and at p within 1e-7
    # of 1, where its verbatim radicand 1 - 2 (1 + p) T (1 - T) cancels
    limits += [["sweep", "--min", lo, "--max", hi, "--steps", steps, "--p", "1"]
               for lo, hi, steps in [("0.499999998", "0.500000002", "3"),
                                     ("0.49999999999999994", "0.5", "2")]]
    limits.append(["sweep", "--variable", "p", "--T", "0.49999", "--min", "0.9999999", "--max",
                   "1", "--steps", "11"])
    # a T of -0.0 reads as 0.0: no -0 in the stage III limit or in the echoed coupling
    limits += [["sweep", "--variable", "eps", "--T", "-0.0", "--min", "0.5", "--steps", "2"],
               ["sweep", "--variable", "p", "--T", "-0.0", "--steps", "3"],
               ["reproduce", "--table", "formulas", "--T", "-0.0"]]
    hom_errors = [["hom", "--T", t] for t in ["1.5", "nan", "-0.0"]]
    return runs + usage_errors + blocks + [[*argv, "--out", OUT] for argv in limits] + hom_errors


def sha256(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def run_child() -> int:
    """Run the corpus from stdin (JSON) in this process and print one digest line each."""
    from entloc import cli

    for argv in json.load(sys.stdin):
        stdout, stderr = io.StringIO(), io.StringIO()
        warnings.simplefilter("default")  # resets the once-per-location warning registry
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception as exc:  # an uncaught exception exits 1, as a process would
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        out = Path(OUT)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        print(code, sha256(stdout.getvalue().encode()), sha256(stderr.getvalue().encode()),
              sha256(written), " ".join(argv))
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        return run_child()
    if len(argv) != 1 or not Path(argv[0], "entloc").is_dir():
        print("usage: python tools/cli_corpus.py SRC  (SRC holds the entloc package)",
              file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(Path(argv[0]).resolve())}
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                               input=json.dumps(corpus()), text=True, cwd=tmp, env=env)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
