"""Command line interface: parses arguments and writes files.

Subcommands:
  sweep      concurrence of every stage along a T, p or eps grid (CSV)
  reproduce  compare pipeline values against the published benchmarks (JSON)
  verify     run the brute-force-vs-analytic check suite on a grid (JSON)
  hom        two-photon interference dip versus the overlap p (CSV)

The computations live in the library (`protocol.stage_concurrences`,
`reference.report`, `reference.verify`, `fock_oracle.hom_coincidence`).
Each `cmd_*` validates its arguments, calls the library and maps the result
to (exit status, output text), raising ValueError on invalid input; `main`
alone writes the text to --out or stdout.  `sweep` hands its whole grid to
one `stage_concurrences` call.
Output is deterministic: identical invocations produce byte-identical files.
Reals are rendered with 10 significant digits; CSV is UTF-8 with LF line
endings and a single header row.  Exit codes: 0 success / within tolerance,
1 tolerance failure, 2 usage error: an invalid flag or config file, any input
the library rejects, or an unwritable --out.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import fock_oracle, protocol, reference
from .params import CouplingConfig

SWEEP_HEADER = ("variable", "stage_I", "stage_II", "stage_III_eps", "stage_III_limit")
HOM_HEADER = ("p", "coincidence", "visibility")


def fmt(value) -> str:
    """Render a real with 10 significant digits (nan stays 'nan')."""
    return format(float(value), ".10g")


def _json_ready(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))  # 10 significant digits keep JSON output stable
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(item) for item in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_sweep(args) -> tuple[int, str]:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not args.min < args.max:
        raise ValueError("--min must be smaller than --max")
    if not (0.0 <= args.min and args.max <= 1.0):
        raise ValueError(f"sweep range [{args.min}, {args.max}] must lie inside [0, 1]")
    CouplingConfig(args.T, args.p)  # the fixed values are checked even when swept
    protocol.eps_to_filter(args.eps, args.T)

    grid = np.linspace(args.min, args.max, args.steps)
    columns = protocol.stage_concurrences(grid if args.variable == "T" else args.T,
                                          grid if args.variable == "p" else args.p,
                                          grid if args.variable == "eps" else args.eps)
    return 0, _csv_text(SWEEP_HEADER, zip(grid, *columns))


def cmd_reproduce(args) -> tuple[int, str]:
    report = reference.report(args.table, args.T, args.aa, args.ab)
    return (0 if report["all_within_tolerance"] else 1), _json_text(report)


def cmd_verify(args) -> tuple[int, str]:
    report = reference.verify(args.grid, args.tolerance)
    return (0 if report["passed"] else 1), _json_text(report)


def cmd_hom(args) -> tuple[int, str]:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if args.T in (0.0, 1.0):  # the visibility would be rounding noise
        raise ValueError("no two-photon interference at T = 0 or T = 1")
    baseline = fock_oracle.hom_coincidence(args.T, 0.0)
    rows = []
    for p in np.linspace(0.0, 1.0, args.steps):
        p = float(p)
        coincidence = fock_oracle.hom_coincidence(args.T, p)
        visibility = (baseline - coincidence) / baseline
        rows.append((p, coincidence, visibility))
    return 0, _csv_text(HOM_HEADER, rows)


# ----------------------------------------------------------------------
# configuration file and argument parsing
# ----------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Read raw defaults from an INI file ([defaults] section) or a TOML file."""
    file = Path(path)
    if not file.is_file():
        raise ValueError(f"config file not found: {path}")
    if file.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # tomllib ships with Python 3.11+
            raise ValueError("TOML config requires Python 3.11+; use INI instead") from exc
        raw = tomllib.loads(file.read_text(encoding="utf-8"))
        return raw["defaults"] if isinstance(raw.get("defaults"), dict) else raw
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: T and p are distinct flags
    parser.read_string(file.read_text(encoding="utf-8"))
    if not parser.has_section("defaults"):
        raise ValueError("INI config must contain a [defaults] section")
    return dict(parser.items("defaults"))


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The full parser with `config` values as defaults, each converted with
    the type of the flag it names and checked against that flag's choices.
    A string (every INI value) is parsed like the flag's argument; any other
    TOML value must already be of the flag's type, and an integer also fits
    a float flag."""
    parser = argparse.ArgumentParser(
        prog="entloc",
        description="Entanglement localization protocol: sweeps, benchmarks, verification.",
    )
    parser.add_argument("--config", help="INI/TOML file with default parameter values")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="concurrence of each stage along a parameter grid (CSV)")
    sweep.add_argument("--variable", choices=("T", "p", "eps"), default="T",
                       help="swept parameter (default: T)")
    sweep.add_argument("--min", type=float, default=0.0, help="grid start (default: 0)")
    sweep.add_argument("--max", type=float, default=1.0, help="grid end (default: 1)")
    sweep.add_argument("--steps", type=int, default=101, help="grid points (default: 101)")
    sweep.add_argument("--T", type=float, default=0.4,
                       help="fixed transmittivity when not swept (default: 0.4)")
    sweep.add_argument("--p", type=float, default=0.0,
                       help="fixed overlap when not swept (default: 0)")
    sweep.add_argument("--eps", type=float, default=0.15,
                       help="fixed filtering strength when not swept (default: 0.15)")

    reproduce = sub.add_parser(
        "reproduce", help="compare the pipeline against the published benchmarks (JSON)"
    )
    reproduce.add_argument(
        "--table",
        default="distinguishable",
        choices=("formulas", "distinguishable", "indistinguishable", "I", "II", "III"),
        help="benchmark set: closed-form stage table (formulas/I), or the published "
             "distinguishable (II) / indistinguishable (III) regime values",
    )
    reproduce.add_argument("--T", type=float, default=0.5,
                           help="transmittivity for --table formulas (default: 0.5)")
    reproduce.add_argument("--aa", type=float, default=None,
                           help="override the benchmark V attenuation on arm A")
    reproduce.add_argument("--ab", type=float, default=None,
                           help="override the benchmark V attenuation on arm B")

    verify = sub.add_parser("verify", help="run the brute-force-vs-analytic check suite (JSON)")
    verify.add_argument("--grid", type=int, default=10,
                        help="number of transmittivity grid points (default: 10)")
    verify.add_argument("--tolerance", type=float, default=1e-9,
                        help="tolerance for the analytic comparisons (default: 1e-9)")

    hom = sub.add_parser("hom", help="two-photon interference dip versus overlap (CSV)")
    hom.add_argument("--T", type=float, default=0.5,
                     help="interferometer transmittivity (default: 0.5)")
    hom.add_argument("--steps", type=int, default=101,
                     help="overlap grid points (default: 101)")

    commands = ((sweep, cmd_sweep, "CSV"), (reproduce, cmd_reproduce, "JSON"),
                (verify, cmd_verify, "JSON"), (hom, cmd_hom, "CSV"))
    for sp, func, kind in commands:
        sp.add_argument("--out", default="-", help=f"output {kind} path, '-' for stdout")
        sp.set_defaults(func=func)
    flags = {a.dest: a for sp, _, _ in commands for a in sp._actions if a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        flag = flags[key]
        flag_type = flag.type or str
        invalid = f"config key {key!r}: invalid {flag_type.__name__} value: {value!r}"
        if not (isinstance(value, str) or type(value) is flag_type
                or flag_type is float and type(value) is int):
            raise ValueError(invalid)  # a TOML list, table, boolean, or float for an int flag
        try:
            defaults[key] = flag_type(value)
        except ValueError:
            raise ValueError(invalid) from None
        if flag.choices is not None and defaults[key] not in flag.choices:
            raise ValueError(f"config key {key!r}: invalid choice: {defaults[key]!r} "
                             f"(choose from {', '.join(map(repr, flag.choices))})")
    for sp, _, _ in commands:
        dests = {action.dest for action in sp._actions}
        sp.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    preliminary, _ = pre.parse_known_args(argv)
    try:
        defaults = {} if preliminary.config is None else load_config(preliminary.config)
        # built per call, not cached: `args.func` must be the `cmd_*` function this module
        # holds at call time, which a tracer that wraps module functions (perfbench's) replaces
        args = build_parser(defaults).parse_args(argv)
        status, text = args.func(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {args.out}: {exc}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
