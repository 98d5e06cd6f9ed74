import json

import numpy as np
import pytest

from entloc import fock_oracle, measures, protocol, reference
from entloc.params import CouplingConfig, FilterConfig

CHECK_NAMES = [
    "stage1_state_vs_analytic",
    "stage2_state_vs_analytic",
    "probability_vs_analytic",
    "stage2_concurrence_vs_closed_form",
    "beamsplitter_unitarity",
    "branch_completeness",
    "overlap_continuity",
    "filtered_pipeline_consistency",
]


class TestReport:
    def test_rejects_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table 'IV'"):
            reference.report("IV", 0.5)

    @pytest.mark.parametrize("att_a, att_b", [(0.3, None), (None, 0.3), (0.0, 0.0)])
    def test_rejects_attenuations_for_the_formulas_table(self, att_a, att_b):
        for table in ("formulas", "I"):
            with pytest.raises(ValueError, match="apply to the published tables"):
                reference.report(table, 0.5, att_a, att_b)

    @pytest.mark.parametrize("table, att_a, att_b", [
        ("formulas", None, None),
        ("distinguishable", None, None),
        ("indistinguishable", None, None),
        ("distinguishable", 0.5, 0.2),
    ])
    def test_every_row_carries_its_own_stage_measures(self, table, att_a, att_b):
        result = reference.report(table, 0.5, att_a, att_b)
        cfg = CouplingConfig(**result["coupling"])
        if table == "formulas":
            filters = protocol.eps_to_filter(1e-6, cfg.transmittivity)
            conventions = {}  # every formulas row compares the pipeline value
        else:
            filters = FilterConfig(**result["filters"])
            rows = reference.load_reference_values()["tables"][table]["rows"]
            conventions = {row["key"]: row["convention"] for row in rows}
        if att_a is not None:
            assert result["filters"] == {"att_a": att_a, "att_b": att_b}
        stage2 = protocol.stage2_measure(cfg, "H")
        outcomes = {
            "I": protocol.stage1_couple(cfg),
            "II": stage2,
            "III": protocol.stage3_filter(stage2, filters),
        }
        for row in result["rows"]:
            outcome = outcomes[row["stage"]]
            assert row["concurrence"] == measures.concurrence(outcome.state)
            assert row["chsh"] == measures.chsh_max(outcome.state)
            assert row["probability"] == outcome.probability
            if conventions.get(row["key"], "pipeline") == "pipeline":
                assert row["computed"] == row[row["quantity"]]


class TestVerify:
    @pytest.mark.parametrize("grid, tolerance, message", [
        (0, 1e-9, "grid must be at least 2"),
        (1, 1e-9, "grid must be at least 2"),
        (3, 0.0, "tolerance must be positive"),
        (3, float("nan"), "tolerance must be positive"),
        (3, float("inf"), "tolerance must be positive"),
    ])
    def test_rejects_a_grid_or_tolerance_that_checks_nothing(self, grid, tolerance, message):
        with pytest.raises(ValueError, match=message):
            reference.verify(grid, tolerance)

    def test_no_interior_point_checks_nothing(self):
        # grid 2 holds only the skipped corners T = 0 and T = 1
        result = reference.verify(2, 1e-9)
        assert result["skipped_transmittivities"] == [0.0, 1.0]
        assert [check["name"] for check in result["checks"]] == CHECK_NAMES
        for check in result["checks"]:
            assert check["worst"] == 0.0
            assert check["worst_at"] == {}
            assert check["failures"] == []
            assert check["passed"] is True
        assert result["passed"] is True

    def test_unreachable_tolerance_lists_failures(self):
        result = reference.verify(4, 1e-18)
        assert result["passed"] is False
        failed = [check for check in result["checks"] if not check["passed"]]
        assert failed
        for check in failed:
            assert check["failures"]
            for failure in check["failures"]:
                assert failure["value"] > check["tolerance"]
                assert failure["transmittivity"] in (1 / 3, 2 / 3)
            assert check["worst"] == max(failure["value"] for failure in check["failures"])
            # the first maximum wins
            first = next(f for f in check["failures"] if f["value"] == check["worst"])
            assert check["worst_at"] == {k: v for k, v in first.items() if k != "value"}

    @pytest.mark.parametrize("grid", [3, 4])
    def test_report_is_plain_json(self, grid):
        result = reference.verify(grid, 1e-18)
        assert json.loads(json.dumps(result)) == result
        assert type(result["passed"]) is bool
        for check in result["checks"]:
            assert type(check["passed"]) is bool
            assert type(check["worst"]) is float
            assert all(type(failure["value"]) is float for failure in check["failures"])

    def test_no_interior_point_calls_no_oracle(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("oracle called")
        for name in ("propagate", "coupled_branches", "branch_probabilities"):
            monkeypatch.setattr(fock_oracle, name, refuse)
        assert reference.verify(2, 1e-9)["passed"] is True

    @pytest.mark.parametrize("grid, tolerance", [(10, 1e-9), (25, 1e-13)])
    @pytest.mark.parametrize("block, rows", [(6, 1), (13, 2)])
    def test_blocks_of_whole_rows_give_the_one_block_report(self, monkeypatch, grid, tolerance,
                                                            block, rows):
        expected = reference.verify(grid, tolerance)
        calls = []
        propagate = fock_oracle.propagate
        monkeypatch.setattr(fock_oracle, "propagate",
                            lambda cfg: calls.append(cfg.transmittivity.size) or propagate(cfg))
        monkeypatch.setattr(protocol, "GRID_BLOCK", block)
        result = reference.verify(grid, tolerance)
        assert result.keys() == expected.keys()
        for key in expected:
            assert result[key] == expected[key], key
        interior = grid - 2  # every T row holds 6 overlaps
        assert calls == [6 * min(rows, interior - start) for start in range(0, interior, rows)]

    @pytest.mark.parametrize("grid", [3, 17, 50])  # 50: two oracle blocks of 42 and 6 rows
    def test_fidelity_records_equal_the_per_point_route(self, grid):
        # a tolerance below every nonzero deficit lists every record but the exact zeros
        result = reference.verify(grid, 1e-300)
        checks = {check["name"]: check for check in result["checks"]}
        names = ("stage1_state_vs_analytic", "stage2_state_vs_analytic",
                 "filtered_pipeline_consistency")
        expected = {name: [] for name in names}
        for t in [float(t) for t in np.linspace(0.0, 1.0, grid)][1:-1]:
            cfg = CouplingConfig(t, 0.0)
            analytic1, analytic2 = protocol.stage1_couple(cfg), protocol.stage2_measure(cfg, "H")
            oracle1, oracle2 = fock_oracle.simulate(cfg), fock_oracle.simulate(cfg, "H")
            filters = protocol.eps_to_filter(0.15, t)
            pairs = [(oracle1, analytic1), (oracle2, analytic2),
                     (protocol.stage3_filter(oracle2, filters),
                      protocol.stage3_filter(analytic2, filters))]
            for name, (oracle, analytic) in zip(names, pairs):
                expected[name].append((t, 1.0 - measures.fidelity(oracle.state, analytic.state)))
        for name, records in expected.items():
            assert [(failure["transmittivity"], failure["value"].hex())
                    for failure in checks[name]["failures"]] == [
                (t, value.hex()) for t, value in records if value > 1e-300]
            worst = max(value for _, value in records)
            assert checks[name]["worst"].hex() == worst.hex()
            if worst > 0.0:
                first = next(t for t, value in records if value == worst)
                assert checks[name]["worst_at"] == {"transmittivity": first}
