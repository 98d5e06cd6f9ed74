"""Operation streams of the benchmark workloads.

An operation is one `entloc` subcommand invocation, given as its argument
vector without `--out`.  Each workload is an endless generator of
operations whose parameters are drawn from a `random.Random(seed)`, so a
seed fixes the whole stream.  Every parameter the output checks depend on
is passed explicitly, so the checks never rely on the command line's
defaults.

Why each workload exists:

cli_session    the paper-reproduction session, every subcommand as a fresh
               process: interpreter start and imports dominate.
sweep_dist     T and eps sweeps at p = 0: the analytic path, which never
               calls `fock_oracle`; exercises `measures`/`qmat`.
sweep_overlap  T sweeps at p > 0 and p sweeps: `protocol` delegates p > 0 to
               `fock_oracle.simulate`, which dominates.
verify_suite   `verify` plus `reproduce` of all three tables: the oracle
               layer used differently (random dense vectors, branch
               probabilities, fidelity, CHSH) and JSON report writing.
"""

from __future__ import annotations

import itertools
import random

IN_PROCESS = ("sweep_dist", "sweep_overlap", "verify_suite")

TABLES = ("distinguishable", "indistinguishable", "formulas")
VERIFY_GRID = 10


def _num(value: float) -> str:
    return repr(float(value))


def sweep(variable: str, lo: float, hi: float, steps: int, T: float, p: float, eps: float) -> tuple:
    return (
        "sweep", "--variable", variable, "--min", _num(lo), "--max", _num(hi),
        "--steps", str(steps), "--T", _num(T), "--p", _num(p), "--eps", _num(eps),
    )


def reproduce(table: str, T: float | None = None) -> tuple:
    argv = ("reproduce", "--table", table)
    return argv if T is None else argv + ("--T", _num(T))


def verify(grid: int) -> tuple:
    return ("verify", "--grid", str(grid))


def hom(T: float, steps: int) -> tuple:
    return ("hom", "--T", _num(T), "--steps", str(steps))


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def cli_session(rng: random.Random):
    """Whole sessions of the eight paper-reproduction commands in seeded order."""
    while True:
        session = [
            sweep("T", 0.0, 1.0, 101, 0.4, 0.0, 0.15),
            sweep("eps", 0.001, 1.0, 100, _draw(rng, 0.1, 0.9), 0.0, 0.15),
            sweep("p", 0.0, 1.0, 51, _draw(rng, 0.1, 0.9), 0.0, 0.15),
            reproduce("distinguishable"),
            reproduce("indistinguishable"),
            reproduce("formulas", _draw(rng, 0.1, 0.9)),
            hom(_draw(rng, 0.1, 0.9), 101),
            verify(VERIFY_GRID),
        ]
        rng.shuffle(session)
        yield from session


def sweep_dist(rng: random.Random):
    """Alternating T and eps sweeps at p = 0 over seeded ranges."""
    while True:
        yield sweep("T", _draw(rng, 0.0, 0.2), _draw(rng, 0.8, 1.0), 101,
                    0.4, 0.0, _draw(rng, 0.05, 0.5))
        yield sweep("eps", _draw(rng, 0.001, 0.05, 4), _draw(rng, 0.5, 1.0), 101,
                    _draw(rng, 0.1, 0.9), 0.0, 0.15)


def sweep_overlap(rng: random.Random):
    """Alternating T sweeps at a seeded p > 0 and p sweeps at a seeded T."""
    while True:
        yield sweep("T", _draw(rng, 0.0, 0.2), _draw(rng, 0.8, 1.0), 51,
                    0.4, _draw(rng, 0.05, 1.0), _draw(rng, 0.05, 0.5))
        yield sweep("p", _draw(rng, 0.0, 0.2), _draw(rng, 0.8, 1.0), 51,
                    _draw(rng, 0.1, 0.9), 0.0, 0.15)


def verify_suite(rng: random.Random):
    """Two `verify` runs per `reproduce`, the tables taken in turn.

    Two thirds of the operations are `verify`, so the median operation is a
    `verify` run and moves with the oracle and `fidelity`.
    """
    for table in itertools.cycle(TABLES):
        yield verify(VERIFY_GRID)
        yield verify(VERIFY_GRID)
        yield reproduce(table, _draw(rng, 0.1, 0.9) if table == "formulas" else None)


# Operations per round of each workload's mix.  A run stops only after a
# whole number of rounds, so every run measures the same mix.
ROUND = {"cli_session": 8, "sweep_dist": 2, "sweep_overlap": 2, "verify_suite": 3}

WORKLOADS = {
    "cli_session": cli_session,
    "sweep_dist": sweep_dist,
    "sweep_overlap": sweep_overlap,
    "verify_suite": verify_suite,
}


def operations(workload: str, seed: int):
    """The endless operation stream of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(seed))
