"""Published reference constants, the `reproduce` reports and the `verify` suite.

All regression constants live in one versioned data file
(`data/reference_values.json`) together with their source descriptions,
tolerances and comparison conventions, so every benchmarked number can be
audited in one place.  `report` compares the pipeline against one table of
that file (or against the closed-form stage table), and `verify` runs the
brute-force oracle against the analytic pipeline on a transmittivity grid.
Both return plain dicts, ready to be serialized.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from . import fock_oracle, measures, protocol
from .params import CouplingConfig, FilterConfig, Stage

TABLE_ALIASES = {"I": "formulas", "II": "distinguishable", "III": "indistinguishable"}


@lru_cache(maxsize=1)
def load_reference_values() -> dict:
    """Parsed contents of the reference data file (cached)."""
    path = resources.files("entloc").joinpath("data/reference_values.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

FORMULA_EPS = 1e-6  # filtering strength of the formulas table's stage III row


def _formula_rows(cfg: CouplingConfig) -> list:
    """The closed-form stage table at one T (p = 0), as rows of a published table; `report`
    drops the C_III_limit row where its eps = 1e-6 filters block the stage II state."""
    rows = []
    for stage in ("I", "II"):
        rows.append({"key": f"C_{stage}", "stage": stage, "quantity": "concurrence",
                     "reference": protocol.concurrence_closed_form(stage, cfg),
                     "tolerance": 1e-10, "convention": "pipeline"})
        rows.append({"key": f"P_{stage}", "stage": stage, "quantity": "probability",
                     "reference": protocol.probability_closed_form(stage, cfg),
                     "tolerance": 1e-12, "convention": "pipeline"})
    rows.append({
        "key": "C_III_limit", "stage": "III", "quantity": "concurrence",
        "reference": protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None),
        "tolerance": 1e-5, "convention": "pipeline",
        "note": "filtration limit approached constructively at eps = 1e-6",
    })
    return rows


def report(table: str, transmittivity: float, att_a: float | None = None,
           att_b: float | None = None) -> dict:
    """The `reproduce` report of one table.

    `table` is "formulas" (the closed-form stage table at `transmittivity`,
    p = 0) or the name of a published table in the reference data file, whose
    filter attenuations `att_a`/`att_b` override when given; "I", "II" and
    "III" are aliases.  Every row carries the concurrence, probability and
    CHSH value of its stage.  Raises ValueError for an unknown table, and for
    attenuations given with the formulas table, which has no filters to override.
    """
    name = TABLE_ALIASES.get(table, table)
    if name == "formulas":
        if att_a is not None or att_b is not None:
            raise ValueError("filter attenuations (aa/ab) apply to the published tables, "
                             "not to the formulas table")
        cfg = CouplingConfig(transmittivity, 0.0)
        source = "closed-form stage table versus the constructive pipeline"
        entries = _formula_rows(cfg)
        filters = protocol.eps_to_filter(FORMULA_EPS, transmittivity)
        stage3_parameters = {"eps": FORMULA_EPS}
    elif name in load_reference_values()["tables"]:
        data = load_reference_values()["tables"][name]
        cfg = CouplingConfig(**data["coupling"])
        source, entries = data["source"], data["rows"]
        filters = FilterConfig(
            att_a=data["filters"]["att_a"] if att_a is None else att_a,
            att_b=data["filters"]["att_b"] if att_b is None else att_b,
        )
        stage3_parameters = {"att_a": filters.att_a, "att_b": filters.att_b}
    else:
        raise ValueError(f"unknown table {table!r}")
    coupling = {"transmittivity": cfg.transmittivity, "overlap": cfg.overlap}
    result = {"table": name, "source": source, "coupling": coupling}
    if name != "formulas":
        result["filters"] = stage3_parameters

    outcomes = dict(zip(("I", "II"), protocol.coupled_stages(cfg)))
    if any(entry["stage"] == "III" for entry in entries):
        try:
            outcomes["III"] = protocol.stage3_filter(outcomes["II"], filters)
        except protocol.FilterBlockedError:  # the formulas table then drops C_III_limit
            if name != "formulas":
                raise
            entries = [entry for entry in entries if entry["stage"] != "III"]
    measured = {stage: {"concurrence": measures.concurrence(outcome.state),
                        "probability": outcome.probability,
                        "chsh": measures.chsh_max(outcome.state)}
                for stage, outcome in outcomes.items()}

    rows = []
    for entry in entries:
        stage, convention = entry["stage"], entry["convention"]
        if convention == "pipeline":
            computed = measured[stage][entry["quantity"]]
        elif convention == "schedule_formula_eps1":
            computed = protocol.probability_closed_form(Stage.FILTRATION, cfg, eps=1.0)
        elif convention == "filter_pass_rate":
            computed = outcomes["III"].probability / outcomes["II"].probability
        elif convention == "asymptotic_formula":
            computed = protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None)
        else:
            raise ValueError(f"unknown comparison convention {convention!r}")
        computed, reference_value = float(computed), float(entry["reference"])
        abs_error = abs(computed - reference_value)
        rows.append({
            "key": entry["key"], "stage": stage, "quantity": entry["quantity"],
            "parameters": {**coupling, **(stage3_parameters if stage == "III" else {})},
            **measured[stage],
            "computed": computed, "reference_value": reference_value,
            "tolerance": entry["tolerance"], "abs_error": abs_error,
            "within_tolerance": abs_error <= entry["tolerance"],
        })
        if entry.get("note") is not None:
            rows[-1]["note"] = entry["note"]
    result["rows"] = rows
    result["all_within_tolerance"] = all(row["within_tolerance"] for row in rows)
    return result


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _summary(name: str, tolerance: float, records: list) -> dict:
    """Worst value (the first maximum wins) and failures of (value, where) records, as floats."""
    records = [(float(value), where) for value, where in records]
    worst, worst_at = 0.0, {}
    for value, where in records:
        if value > worst:
            worst, worst_at = value, dict(where)
    return {
        "name": name,
        "tolerance": tolerance,
        "worst": worst,
        "worst_at": worst_at,
        "failures": [{**where, "value": value} for value, where in records if value > tolerance],
        "passed": worst <= tolerance,
    }


def verify(grid: int, tolerance: float) -> dict:
    """Brute-force-vs-analytic invariant suite over a T (and p) grid.

    `tolerance` applies to the brute-force-vs-analytic comparisons; the
    unitarity, completeness and continuity checks use fixed tolerances set by
    the invariants they enforce.  T within 1e-12 of 0 or 1 is skipped.  A
    grid below 2 or a tolerance outside (0, inf) raises ValueError.  Each
    interior T gives a row of six p values; blocks of whole rows, at most
    `protocol.GRID_BLOCK` points, take one oracle propagation (the source of
    both the stage states and the branch totals), one
    `fock_oracle.reduce_to_ab` call for their stage I and stage II states, one
    `protocol.coupled_stages` call for the analytic (p = 0) states and
    probabilities of their T, one stacked `concurrence` call, one
    `protocol.filter_states` pass over the oracle and analytic stage II states,
    and one stacked `fidelity` call over the three state comparisons of each
    T.  The dense random states of `beamsplitter_unitarity`, one per interior
    T, are drawn in turn from one generator, a block's at a time, and take one
    `apply_beamsplitter` call per block, so no call holds more than a block;
    `norm_squared` folds each point's two norms in key order, so every residual
    keeps the bits of a grid of one.  The closed-form stage II concurrence is
    evaluated one point at a time, in plain floats.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    ts = [float(t) for t in np.linspace(0.0, 1.0, grid)]
    skipped = [t for t in ts if t < 1e-12 or t > 1.0 - 1e-12]
    interior = [t for t in ts if t not in skipped]
    tolerances = {
        "stage1_state_vs_analytic": tolerance,
        "stage2_state_vs_analytic": tolerance,
        "probability_vs_analytic": tolerance,
        "stage2_concurrence_vs_closed_form": tolerance,
        "beamsplitter_unitarity": 1e-12,
        "branch_completeness": 1e-12,
        "overlap_continuity": 1e-8,
        "filtered_pipeline_consistency": tolerance,
    }
    records = {name: [] for name in tolerances}
    # each interior T's state comparisons, 1 - fidelity: oracle against analytic state at
    # stage I and stage II, and the two stage II states filtered with eps_to_filter(0.15, T)
    fidelity_checks = ("stage1_state_vs_analytic", "stage2_state_vs_analytic",
                       "filtered_pipeline_consistency")

    closed_ps = (0.25, 0.5, 0.75, 1.0)
    overlaps = (0.0, 1e-9) + closed_ps  # each interior T's row of the oracle grid
    rows = max(1, protocol.GRID_BLOCK // len(overlaps))  # whole T rows per oracle block
    rng = np.random.default_rng(20260810)  # one dense random state per interior T, in turn
    for start in range(0, len(interior), rows):
        block = interior[start:start + rows]
        ts = np.array(block)
        vecs = fock_oracle.random_states(rng, len(block))
        drifts = abs(fock_oracle.norm_squared(fock_oracle.apply_beamsplitter(vecs, ts))
                     - fock_oracle.norm_squared(vecs))
        records["beamsplitter_unitarity"] += [(drift, {"transmittivity": t})
                                              for t, drift in zip(block, drifts.tolist())]
        points = CouplingConfig(np.repeat(block, len(overlaps)), np.tile(overlaps, len(block)))
        propagated = fock_oracle.propagate(points)  # one propagation for the whole block
        coupled, measured = fock_oracle.reduce_to_ab(propagated)
        totals = sum(fock_oracle.pattern_probabilities(propagated).values()).reshape(len(block), -1)
        stage2 = measured.state.reshape(len(block), -1, 4, 4)
        concurrences = measures.concurrence(stage2[:, 2:])  # the closed_ps columns
        analytic = protocol.coupled_stages(CouplingConfig(ts))  # the closed form at p = 0
        first = slice(None, None, len(overlaps))  # each T's p = 0 point of the oracle grid
        # compared[route, row, check]: each T's fidelity_checks states on the oracle (0) and
        # the analytic (1) route, for one stacked stage III filter and one stacked fidelity
        compared = np.empty((2, len(block), len(fidelity_checks), 4, 4), dtype=complex)
        for check, (oracle, expected) in enumerate(zip((coupled, measured), analytic)):
            compared[0, :, check], compared[1, :, check] = oracle.state[first], expected.state
        # filtering the simulated stage II state must match filtering the analytic one
        compared[:, :, 2], _ = protocol.filter_states(compared[:, :, 1],
                                                      protocol.eps_to_filter(0.15, ts))
        oracle_probabilities = [coupled.probability[first], measured.probability[first]]
        continuity = np.abs(stage2[:, 1] - stage2[:, 0]).max(axis=(-2, -1)).tolist()

        for row, t in enumerate(block):
            at = {"transmittivity": t}
            records["probability_vs_analytic"] += [
                (abs(found[row] - expected.probability[row]), {**at, "stage": stage})
                for found, expected, stage in zip(oracle_probabilities, analytic, ("I", "II"))]
            records["overlap_continuity"].append((continuity[row], at))

            for p, concurrence, total in zip(closed_ps, concurrences[row], totals[row, 2:]):
                where = {**at, "overlap": p}
                closed = protocol._measurement_closed_form(t, p)
                records["stage2_concurrence_vs_closed_form"].append(
                    (abs(concurrence - closed), where))
                records["branch_completeness"].append((abs(total - 1.0), where))

        deficits = 1.0 - measures.fidelity(compared[0], compared[1])
        for t, row_deficits in zip(block, deficits.tolist()):
            for name, deficit in zip(fidelity_checks, row_deficits):
                records[name].append((deficit, {"transmittivity": t}))

    checks = [_summary(name, tolerances[name], values) for name, values in records.items()]
    worst = {check["name"]: check["worst"] for check in checks}
    return {
        "grid_density": grid,
        "tolerance": tolerance,
        "skipped_transmittivities": skipped,
        "checks": checks,
        "max_fidelity_deficit": max(worst["stage1_state_vs_analytic"],
                                    worst["stage2_state_vs_analytic"]),
        "max_probability_mismatch": worst["probability_vs_analytic"],
        "max_concurrence_mismatch": worst["stage2_concurrence_vs_closed_form"],
        "passed": all(check["passed"] for check in checks),
    }
