"""Correctness checks behind the benchmark's failure count.

Every operation must exit with code 0.  Its output is then checked against
closed forms kept here, independent of the package:

  sweep      stage_II          T|T - p(1-T)| / (1 - (2+p)T(1-T)),  T^2/(T^2+R^2) at p = 0
             stage_III_limit   |T - p(1-T)| / sqrt(1 - 2(1+p)T(1-T)), T/sqrt(T^2+R^2) at p = 0
             stage_I (p = 0)   max(0, (2T^2 - R^2) / (2(T^2+R^2)))
  hom        coincidence       T^2 + R^2 - 2pTR, visibility 2pTR / (T^2+R^2)
  verify     "passed" is true
  reproduce  "all_within_tolerance" is true

An operation whose argument vector has a recorded output in `golden.json`
is also compared with it: CSV byte for byte, JSON field by field over the
fields present in the recording (keys added later are ignored).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SWEEP_HEADER = "variable,stage_I,stage_II,stage_III_eps,stage_III_limit"
HOM_HEADER = "p,coincidence,visibility"

STAGE_TOL = 1e-8  # constructed concurrence vs closed form, 10-digit output
FORMULA_TOL = 1e-9  # verbatim evaluations, 10-digit output
GRID_TOL = 1e-9


def options(argv) -> dict:
    """`--name value` pairs of an argument vector (the subcommand skipped)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """The points of numpy.linspace(lo, hi, steps), in plain Python."""
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def stage1_p0(t: float) -> float:
    r = 1.0 - t
    return max(0.0, (2.0 * t * t - r * r) / (2.0 * (t * t + r * r)))


def stage2(t: float, p: float) -> float:
    r = 1.0 - t
    if p == 0.0:
        return t * t / (t * t + r * r)
    return t * abs(t - p * r) / (1.0 - (2.0 + p) * t * r)


def stage3_limit(t: float, p: float) -> float:
    r = 1.0 - t
    if p == 0.0:
        return t / math.sqrt(t * t + r * r)
    numerator = abs(t - p * r)
    return 0.0 if numerator == 0.0 else numerator / math.sqrt(1.0 - 2.0 * (1.0 + p) * t * r)


def hom_coincidence(t: float, p: float) -> float:
    r = 1.0 - t
    return t * t + r * r - 2.0 * p * t * r


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _csv_rows(text: str, header: str, steps: int, width: int) -> list[list[float]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    if len(lines) - 1 != steps:
        raise ValueError(f"{len(lines) - 1} rows, expected {steps}")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError(f"a row does not have {width} columns")
    return rows


def check_sweep(opts: dict, text: str) -> list[str]:
    steps = int(opts["steps"])
    rows = _csv_rows(text, SWEEP_HEADER, steps, 5)
    variable = opts["variable"]
    problems = []
    for x, row in zip(grid(float(opts["min"]), float(opts["max"]), steps), rows):
        value, c1, c2, c3, limit = row
        if not _close(value, x, GRID_TOL):
            problems.append(f"grid value {value} != {x}")
        t = x if variable == "T" else float(opts["T"])
        p = x if variable == "p" else float(opts["p"])
        if not _close(c2, stage2(t, p), STAGE_TOL):
            problems.append(f"stage_II {c2} != {stage2(t, p)} at T={t}, p={p}")
        if not _close(limit, stage3_limit(t, p), FORMULA_TOL):
            problems.append(f"stage_III_limit {limit} != {stage3_limit(t, p)} at T={t}, p={p}")
        if p == 0.0 and not _close(c1, stage1_p0(t), STAGE_TOL):
            problems.append(f"stage_I {c1} != {stage1_p0(t)} at T={t}")
        if not (math.isnan(c3) or -STAGE_TOL <= c3 <= 1.0 + STAGE_TOL):
            problems.append(f"stage_III_eps {c3} outside [0, 1] at T={t}, p={p}")
    return problems


def check_hom(opts: dict, text: str) -> list[str]:
    steps = int(opts["steps"])
    rows = _csv_rows(text, HOM_HEADER, steps, 3)
    t = float(opts["T"])
    base = hom_coincidence(t, 0.0)
    problems = []
    for p, (value, coincidence, visibility) in zip(grid(0.0, 1.0, steps), rows):
        if not _close(value, p, GRID_TOL):
            problems.append(f"grid value {value} != {p}")
        if not _close(coincidence, hom_coincidence(t, p), FORMULA_TOL):
            problems.append(f"coincidence {coincidence} != {hom_coincidence(t, p)} at p={p}")
        expected = (base - hom_coincidence(t, p)) / base
        if not _close(visibility, expected, STAGE_TOL):
            problems.append(f"visibility {visibility} != {expected} at p={p}")
    return problems


def check_verify(opts: dict, text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report.get("passed") is not True:
        problems.append(f"verify report has passed={report.get('passed')!r}")
    if report.get("grid_density") != int(opts["grid"]):
        problems.append(f"verify report has grid_density={report.get('grid_density')!r}")
    return problems


def check_reproduce(opts: dict, text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report.get("all_within_tolerance") is not True:
        problems.append("reproduce report is not within tolerance")
    if report.get("table") != opts["table"]:
        problems.append(f"reproduce report is for table {report.get('table')!r}")
    return problems


CHECKERS = {
    "sweep": check_sweep,
    "hom": check_hom,
    "verify": check_verify,
    "reproduce": check_reproduce,
}

CSV_COMMANDS = ("sweep", "hom")


def key(argv) -> str:
    return " ".join(argv)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def json_differences(expected, got, path: str = "$") -> list[str]:
    """Fields of `expected` that `got` lacks or holds with another value."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path} is not an object"]
        problems = []
        for name, value in expected.items():
            if name not in got:
                problems.append(f"{path}.{name} is missing")
            else:
                problems.extend(json_differences(value, got[name], f"{path}.{name}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{path} is not a list of {len(expected)} items"]
        problems = []
        for i, (want, have) in enumerate(zip(expected, got)):
            problems.extend(json_differences(want, have, f"{path}[{i}]"))
        return problems
    if type(expected) is not type(got):
        return [f"{path} is {got!r}, recorded {expected!r}"]
    if expected != got and not (isinstance(got, float) and math.isnan(expected) and math.isnan(got)):
        return [f"{path} is {got!r}, recorded {expected!r}"]
    return []


def golden_differences(recorded, text: str, command: str) -> list[str]:
    if command in CSV_COMMANDS:
        if text == recorded:
            return []
        got, want = text.split("\n"), recorded.split("\n")
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return [f"CSV differs from the recording at line {line + 1}"]
    return json_differences(recorded, json.loads(text))


def check_output(argv, exit_code, text: str | None, golden: dict) -> list[str]:
    """Every problem found with one operation's exit code and output."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if text is None:
        return ["no output file"]
    command = argv[0]
    try:
        problems = CHECKERS[command](options(argv), text)
        recorded = golden.get(key(argv))
        if recorded is not None:
            problems += golden_differences(recorded, text, command)
    except (ValueError, TypeError, AttributeError, KeyError) as exc:  # malformed CSV or JSON
        problems = [f"malformed output: {exc!r}"]
    return problems


def perturbation_selftest(golden: dict) -> list[str]:
    """Show that one changed CSV digit and one flipped JSON value are failures.

    Returns the self-test's own problems; an empty list means both perturbed
    outputs were counted as failures while the recorded ones pass.
    """
    problems = []
    csv_key = next(k for k in golden if k.split()[0] == "sweep")
    json_key = next(k for k in golden if k.split()[0] == "verify")
    csv_text = golden[csv_key]
    json_text = json.dumps(golden[json_key])
    for argv, text in ((csv_key.split(), csv_text), (json_key.split(), json_text)):
        if check_output(argv, 0, text, golden):
            problems.append(f"recorded output of {' '.join(argv)!r} fails its own check")

    # one digit of the second data row's last cell, changed in place
    line_start = csv_text.index("\n", csv_text.index("\n") + 1) + 1
    pos = csv_text.index("\n", line_start) - 1
    digit = csv_text[pos]
    perturbed_csv = csv_text[:pos] + str((int(digit) + 1) % 10) + csv_text[pos + 1:]
    if not golden_differences(csv_text, perturbed_csv, "sweep"):
        problems.append("a CSV with one digit changed matches the recording")
    if not check_output(csv_key.split(), 0, perturbed_csv, golden):
        problems.append("a CSV with one digit changed is not counted as a failure")

    report = json.loads(json_text)
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    if not check_output(json_key.split(), 0, json.dumps(report), golden):
        problems.append("a JSON report with one value flipped is not counted as a failure")
    return problems
