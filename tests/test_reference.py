import pytest

from entloc import measures, protocol, reference
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
