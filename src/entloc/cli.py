"""Command line interface.

Subcommands:
  sweep      concurrence of every stage along a T, p or eps grid (CSV)
  reproduce  compare pipeline values against the published benchmarks (JSON)
  verify     run the brute-force-vs-analytic check suite on a grid (JSON)
  hom        two-photon interference dip versus the overlap p (CSV)

Each `cmd_*` maps parsed arguments to (exit status, output text) and raises
ValueError on invalid input; `main` alone writes the text to --out or stdout.
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

from . import fock_oracle, measures, protocol, reference, states
from .params import CouplingConfig, FilterConfig, Stage

SWEEP_HEADER = ("variable", "stage_I", "stage_II", "stage_III_eps", "stage_III_limit")
HOM_HEADER = ("p", "coincidence", "visibility")

# Tolerances fixed by the invariants each check enforces (the --tolerance
# flag applies to the brute-force-vs-analytic comparisons only).
UNITARITY_TOL = 1e-12
COMPLETENESS_TOL = 1e-12
CONTINUITY_TOL = 1e-8
DEGENERATE_MARGIN = 1e-12

CONFIG_KEY_TYPES = {
    "T": float,
    "p": float,
    "eps": float,
    "aa": float,
    "ab": float,
    "min": float,
    "max": float,
    "tolerance": float,
    "steps": int,
    "grid": int,
    "variable": str,
    "table": str,
    "out": str,
}


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
# sweep
# ----------------------------------------------------------------------

def _sweep_row(transmittivity: float, overlap: float, eps: float) -> tuple:
    cfg = CouplingConfig(transmittivity, overlap)
    stage1 = protocol.stage1_couple(cfg)
    stage2 = protocol.stage2_measure(cfg, "H")
    try:
        filters = protocol.eps_to_filter(eps, transmittivity)
        stage3 = protocol.stage3_filter(stage2, filters)
        filtered = measures.concurrence(stage3.state)
    except ValueError:
        filtered = float("nan")  # schedule undefined or fully blocking here
    return (
        measures.concurrence(stage1.state),
        measures.concurrence(stage2.state),
        filtered,
        protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None),
    )


def cmd_sweep(args) -> tuple[int, str]:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not args.min < args.max:
        raise ValueError("--min must be smaller than --max")
    if not (0.0 <= args.min and args.max <= 1.0):
        raise ValueError(f"sweep range [{args.min}, {args.max}] must lie inside [0, 1]")
    fixed = CouplingConfig(args.T, args.p)

    rows = []
    for value in np.linspace(args.min, args.max, args.steps):
        value = float(value)
        t = value if args.variable == "T" else fixed.transmittivity
        p = value if args.variable == "p" else fixed.overlap
        eps = value if args.variable == "eps" else args.eps
        rows.append((value, *_sweep_row(t, p, eps)))
    return 0, _csv_text(SWEEP_HEADER, rows)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

TABLE_ALIASES = {"I": "formulas", "II": "distinguishable", "III": "indistinguishable"}


def _report_row(key, stage, quantity, parameters, outcome, computed, reference_value,
                tolerance, note=None) -> dict:
    """One compared quantity with the state measures of the stage it belongs to."""
    computed = float(computed)
    reference_value = float(reference_value)
    abs_error = abs(computed - reference_value)
    row = {
        "key": key,
        "stage": stage,
        "quantity": quantity,
        "parameters": parameters,
        "concurrence": measures.concurrence(outcome.state),
        "probability": outcome.probability,
        "chsh": measures.chsh_max(outcome.state),
        "computed": computed,
        "reference_value": reference_value,
        "tolerance": tolerance,
        "abs_error": abs_error,
        "within_tolerance": abs_error <= tolerance,
    }
    if note is not None:
        row["note"] = note
    return row


def _benchmark_report(table: str, att_a: float | None, att_b: float | None) -> dict:
    data = reference.load_reference_values()["tables"][table]
    cfg = CouplingConfig(**data["coupling"])
    filters = FilterConfig(
        att_a=data["filters"]["att_a"] if att_a is None else att_a,
        att_b=data["filters"]["att_b"] if att_b is None else att_b,
    )
    outcomes = {
        "I": protocol.stage1_couple(cfg),
        "II": protocol.stage2_measure(cfg, "H"),
    }
    outcomes["III"] = protocol.stage3_filter(outcomes["II"], filters)
    pass_rate = outcomes["III"].probability / outcomes["II"].probability

    rows = []
    for entry in data["rows"]:
        outcome = outcomes[entry["stage"]]
        convention = entry["convention"]
        if convention == "pipeline":
            if entry["quantity"] == "concurrence":
                computed = measures.concurrence(outcome.state)
            else:
                computed = outcome.probability
        elif convention == "schedule_formula_eps1":
            computed = protocol.probability_closed_form(Stage.FILTRATION, cfg, eps=1.0)
        elif convention == "filter_pass_rate":
            computed = pass_rate
        elif convention == "asymptotic_formula":
            computed = protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None)
        else:
            raise ValueError(f"unknown comparison convention {convention!r}")

        parameters = {"transmittivity": cfg.transmittivity, "overlap": cfg.overlap}
        if entry["stage"] == "III":
            parameters.update(att_a=filters.att_a, att_b=filters.att_b)
        rows.append(
            _report_row(
                entry["key"], entry["stage"], entry["quantity"], parameters, outcome,
                computed, entry["reference"], entry["tolerance"], entry["note"],
            )
        )
    return {
        "table": table,
        "source": data["source"],
        "coupling": {"transmittivity": cfg.transmittivity, "overlap": cfg.overlap},
        "filters": {"att_a": filters.att_a, "att_b": filters.att_b},
        "rows": rows,
        "all_within_tolerance": all(row["within_tolerance"] for row in rows),
    }


def _formula_report(transmittivity: float) -> dict:
    """Constructive pipeline versus the closed-form stage table at one T."""
    cfg = CouplingConfig(transmittivity, 0.0)
    stage1 = protocol.stage1_couple(cfg)
    stage2 = protocol.stage2_measure(cfg, "H")
    parameters = {"transmittivity": cfg.transmittivity, "overlap": 0.0}
    rows = []
    for key, stage, outcome in (("I", Stage.COUPLING, stage1), ("II", Stage.MEASUREMENT, stage2)):
        rows.append(
            _report_row(
                f"C_{key}", key, "concurrence", parameters, outcome,
                measures.concurrence(outcome.state),
                protocol.concurrence_closed_form(stage, cfg), 1e-10,
            )
        )
        rows.append(
            _report_row(
                f"P_{key}", key, "probability", parameters, outcome,
                outcome.probability, protocol.probability_closed_form(stage, cfg), 1e-12,
            )
        )
    if transmittivity > 0.0:
        eps = 1e-6
        stage3 = protocol.stage3_filter(stage2, protocol.eps_to_filter(eps, transmittivity))
        rows.append(
            _report_row(
                "C_III_limit", "III", "concurrence", {**parameters, "eps": eps}, stage3,
                measures.concurrence(stage3.state),
                protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None), 1e-5,
                "filtration limit approached constructively at eps = 1e-6",
            )
        )
    return {
        "table": "formulas",
        "source": "closed-form stage table versus the constructive pipeline",
        "coupling": {"transmittivity": cfg.transmittivity, "overlap": 0.0},
        "rows": rows,
        "all_within_tolerance": all(r["within_tolerance"] for r in rows),
    }


def cmd_reproduce(args) -> tuple[int, str]:
    table = TABLE_ALIASES.get(args.table, args.table)
    if table == "formulas":
        report = _formula_report(args.T)
    elif table in reference.table_names():
        report = _benchmark_report(table, args.aa, args.ab)
    else:
        raise ValueError(f"unknown table {args.table!r}")
    return (0 if report["all_within_tolerance"] else 1), _json_text(report)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

class _Check:
    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.worst = 0.0
        self.worst_at: dict = {}
        self.failures: list[dict] = []

    def record(self, value: float, **where) -> None:
        if value > self.worst:
            self.worst = value
            self.worst_at = dict(where)
        if value > self.tolerance:
            self.failures.append({**where, "value": value})

    def summary(self) -> dict:
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "worst": self.worst,
            "worst_at": self.worst_at,
            "failures": self.failures,
            "passed": self.worst <= self.tolerance,
        }


def _random_two_photon_vector(rng) -> fock_oracle.FockVector:
    amps = {}
    for a_pol in (0, 1):
        for lo in range(fock_oracle.N_MODES):
            for hi in range(lo, fock_oracle.N_MODES):
                amps[(a_pol, lo, hi)] = complex(rng.standard_normal(), rng.standard_normal())
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return fock_oracle.FockVector({k: v / norm for k, v in amps.items()})


def run_verify(grid_density: int, tolerance: float) -> dict:
    """Brute-force-vs-analytic invariant suite over a T (and p) grid."""
    ts = [float(t) for t in np.linspace(0.0, 1.0, grid_density)]
    skipped = [t for t in ts if t < DEGENERATE_MARGIN or t > 1.0 - DEGENERATE_MARGIN]
    interior = [t for t in ts if t not in skipped]

    checks = [
        _Check(name, tolerance if tol is None else tol)
        for name, tol in (
            ("stage1_state_vs_analytic", None),
            ("stage2_state_vs_analytic", None),
            ("probability_vs_analytic", None),
            ("stage2_concurrence_vs_closed_form", None),
            ("beamsplitter_unitarity", UNITARITY_TOL),
            ("branch_completeness", COMPLETENESS_TOL),
            ("overlap_continuity", CONTINUITY_TOL),
            ("filtered_pipeline_consistency", None),
        )
    ]
    (stage1_check, stage2_check, prob_check, conc_check,
     unitarity_check, completeness_check, continuity_check, consistency_check) = checks

    for t in interior:
        cfg = CouplingConfig(t, 0.0)
        analytic1 = states.werner(cfg.werner_weight)
        analytic2 = states.post_measurement_state(cfg.werner_weight, "H")
        prob1 = t * t + (1.0 - t) ** 2
        oracle1 = fock_oracle.simulate(cfg, fock_oracle.TRACE_OUT)
        oracle2 = fock_oracle.simulate(cfg, fock_oracle.PROJECT_H)

        stage1_check.record(1.0 - measures.fidelity(oracle1.state, analytic1), transmittivity=t)
        stage2_check.record(1.0 - measures.fidelity(oracle2.state, analytic2), transmittivity=t)
        prob_check.record(abs(oracle1.probability - prob1), transmittivity=t, stage="I")
        prob_check.record(abs(oracle2.probability - prob1 / 2.0), transmittivity=t, stage="II")

        # filtering the simulated state must match filtering the analytic one
        filters = protocol.eps_to_filter(0.15, t)
        filtered_oracle = protocol.stage3_filter(oracle2, filters)
        filtered_analytic = protocol.stage3_filter(
            protocol.stage2_measure(cfg, "H"), filters
        )
        consistency_check.record(
            1.0 - measures.fidelity(filtered_oracle.state, filtered_analytic.state),
            transmittivity=t,
        )

        high = fock_oracle.simulate(CouplingConfig(t, 1e-9), fock_oracle.PROJECT_H)
        continuity_check.record(
            float(np.max(np.abs(high.state - oracle2.state))), transmittivity=t
        )

        for p in (0.25, 0.5, 0.75, 1.0):
            pcfg = CouplingConfig(t, p)
            simulated = fock_oracle.simulate(pcfg, fock_oracle.PROJECT_H)
            closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, pcfg)
            conc_check.record(
                abs(measures.concurrence(simulated.state) - closed),
                transmittivity=t,
                overlap=p,
            )
            completeness_check.record(
                abs(sum(fock_oracle.branch_probabilities(pcfg).values()) - 1.0),
                transmittivity=t,
                overlap=p,
            )

    rng = np.random.default_rng(20260810)
    for t in interior:
        vec = _random_two_photon_vector(rng)
        propagated = fock_oracle.apply_beamsplitter(vec, t)
        unitarity_check.record(
            abs(propagated.norm_squared() - vec.norm_squared()), transmittivity=t
        )

    return {
        "grid_density": grid_density,
        "tolerance": tolerance,
        "skipped_transmittivities": skipped,
        "checks": [check.summary() for check in checks],
        "max_fidelity_deficit": max(stage1_check.worst, stage2_check.worst),
        "max_probability_mismatch": prob_check.worst,
        "max_concurrence_mismatch": conc_check.worst,
        "passed": all(check.worst <= check.tolerance for check in checks),
    }


def cmd_verify(args) -> tuple[int, str]:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    if args.tolerance <= 0:
        raise ValueError("--tolerance must be positive")
    report = run_verify(args.grid, args.tolerance)
    return (0 if report["passed"] else 1), _json_text(report)


# ----------------------------------------------------------------------
# hom
# ----------------------------------------------------------------------

def cmd_hom(args) -> tuple[int, str]:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
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
    """Read defaults from an INI file ([defaults] section) or a TOML file."""
    file = Path(path)
    if not file.is_file():
        raise ValueError(f"config file not found: {path}")
    if file.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # tomllib ships with Python 3.11+
            raise ValueError("TOML config requires Python 3.11+; use INI instead") from exc
        raw = tomllib.loads(file.read_text(encoding="utf-8"))
        if "defaults" in raw and isinstance(raw["defaults"], dict):
            raw = raw["defaults"]
    else:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case: T and p are distinct flags
        parser.read_string(file.read_text(encoding="utf-8"))
        if not parser.has_section("defaults"):
            raise ValueError("INI config must contain a [defaults] section")
        raw = dict(parser.items("defaults"))
    config = {}
    for key, value in raw.items():
        if key not in CONFIG_KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        config[key] = CONFIG_KEY_TYPES[key](value)
    return config


def build_parser(defaults: dict) -> argparse.ArgumentParser:
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

    for sp, func, kind in ((sweep, cmd_sweep, "CSV"), (reproduce, cmd_reproduce, "JSON"),
                           (verify, cmd_verify, "JSON"), (hom, cmd_hom, "CSV")):
        sp.add_argument("--out", default="-", help=f"output {kind} path, '-' for stdout")
        sp.set_defaults(func=func)
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
