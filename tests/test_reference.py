import pytest

from entloc import reference

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
