"""Command line interface: parses arguments and writes files.

Subcommands:
  sweep      concurrence of every stage along a T, p or eps grid (CSV)
  reproduce  compare pipeline values against the published benchmarks (JSON)
  verify     run the brute-force-vs-analytic check suite on a grid (JSON)
  hom        two-photon interference dip versus the overlap p (CSV)

The computations live in the library (`protocol.stage_concurrences`,
`reference.report`, `reference.verify`, `protocol.hom_closed_form`).
Each `cmd_*` validates its arguments, calls the library and maps the result
to (exit status, output text), raising ValueError on invalid input; `main`
alone writes the text to --out or stdout.  `sweep` hands its whole grid to
one `stage_concurrences` call as three lists (T, p, eps): the swept one from
`_linspace`, a fixed value once per point.  Every call is parsed by one shared
parser, and a call with --config once more, with the config's defaults; `main`
looks up the subcommand's `cmd_*` at call time.  `reference`, numpy, `json` and
`configparser` are imported only by the commands that use them, so `hom` (one
`hom_closed_form` call per p), a p = 0 `sweep` and a usage error run without numpy.
Output is deterministic: identical invocations produce byte-identical files.
Reals are rendered with 10 significant digits; CSV is UTF-8 with LF line
endings and a single header row.  Exit codes: 0 success / within tolerance,
1 tolerance failure, 2 usage error: an invalid flag or config file, any input
the library rejects, or an unwritable --out.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import protocol
from .params import CouplingConfig

SWEEP_HEADER = ("variable", "stage_I", "stage_II", "stage_III_eps", "stage_III_limit")
HOM_HEADER = ("p", "coincidence", "visibility")


def fmt(value) -> str:
    """Render a real with 10 significant digits (nan stays 'nan')."""
    return format(float(value), ".10g")


def _linspace(lo: float, hi: float, steps: int) -> list:
    """`np.linspace(lo, hi, steps).tolist()` for `steps` >= 2, in numpy's arithmetic:
    i * step + lo, the last point hi; a step that rounds to 0 takes
    i / (steps - 1) * (hi - lo) + lo instead, as numpy does."""
    div, delta = steps - 1, hi - lo
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(steps)]
    else:
        points = [i * step + lo for i in range(steps)]
    points[-1] = hi
    return points


def _json_ready(obj):
    if hasattr(obj, "dtype"):  # a numpy scalar, as its Python value
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(fmt(obj))  # 10 significant digits keep JSON output stable
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(item) for item in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_text(header, rows) -> str:
    # one format call per row; for a Python float, "{:.10g}" gives the text of `fmt`
    template = ",".join(["{:.10g}"] * len(header))
    return "\n".join([",".join(header), *(template.format(*row) for row in rows)]) + "\n"


def _json_text(payload: dict) -> str:
    import json

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

    grid = _linspace(args.min, args.max, args.steps)
    fixed = {"T": args.T, "p": args.p, "eps": args.eps}
    columns = protocol.stage_concurrences(*(grid if name == args.variable else [value] * args.steps
                                            for name, value in fixed.items()))
    return 0, _csv_text(SWEEP_HEADER, zip(grid, *columns))


def cmd_reproduce(args) -> tuple[int, str]:
    from . import reference

    report = reference.report(args.table, args.T, args.aa, args.ab)
    return (0 if report["all_within_tolerance"] else 1), _json_text(report)


def cmd_verify(args) -> tuple[int, str]:
    from . import reference

    report = reference.verify(args.grid, args.tolerance)
    return (0 if report["passed"] else 1), _json_text(report)


def cmd_hom(args) -> tuple[int, str]:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    rows = [(p, *protocol.hom_closed_form(args.T, p)) for p in _linspace(0.0, 1.0, args.steps)]
    return 0, _csv_text(HOM_HEADER, rows)


# ----------------------------------------------------------------------
# configuration file and argument parsing
# ----------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Read raw defaults from an INI file ([defaults] section) or a TOML file;
    a file that cannot be read or parsed raises ValueError."""
    import configparser
    from pathlib import Path

    file = Path(path)
    if not file.is_file():
        raise ValueError(f"config file not found: {path}")
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if file.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # tomllib ships with Python 3.11+
            raise ValueError("TOML config requires Python 3.11+; use INI instead") from exc
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"invalid TOML config: {path}: {exc}") from exc
        return raw["defaults"] if isinstance(raw.get("defaults"), dict) else raw
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: T and p are distinct flags
    try:
        parser.read_string(text, source=path)
        if not parser.has_section("defaults"):
            raise ValueError("INI config must contain a [defaults] section")
        return dict(parser.items("defaults"))  # items() interpolates, which can fail too
    except configparser.Error as exc:
        raise ValueError("invalid INI config: " + " ".join(str(exc).split())) from exc


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
    config_help = "INI/TOML file with default parameter values"
    parser.add_argument("--config", help=config_help)
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

    commands = ((sweep, "CSV"), (reproduce, "JSON"), (verify, "JSON"), (hom, "CSV"))
    for sp, kind in commands:
        sp.add_argument("--out", default="-", help=f"output {kind} path, '-' for stdout")
        # also after the subcommand; SUPPRESS keeps a value given before it
        sp.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
    flags = {a.dest: a for sp, _ in commands for a in sp._actions
             if a.dest not in ("help", "config")}  # a config file cannot set `config`
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
    for sp, _ in commands:
        dests = {action.dest for action in sp._actions}
        sp.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    return parser


@cache  # the first parser of every call; only `main` uses it, unmodified
def _default_parser() -> argparse.ArgumentParser:
    return build_parser({})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    args = _default_parser().parse_args(argv)
    try:
        if args.config is not None:  # parse again, with the config's defaults
            args = build_parser(load_config(args.config)).parse_args(argv)
        # looked up at call time: a tracer that wraps module functions (perfbench's) replaces it
        status, text = globals()[f"cmd_{args.command}"](args)
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
