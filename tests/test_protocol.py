import numpy as np
import pytest

from entloc import fock_oracle, measures, protocol, states
from entloc.params import CouplingConfig, FilterConfig, Stage, StageOutcome

SQRT2 = np.sqrt(2.0)


class TestConfigs:
    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(1.2)
        with pytest.raises(ValueError):
            CouplingConfig(0.5, -0.1)
        with pytest.raises(ValueError):
            CouplingConfig(float("nan"))

    def test_grid_coupling_validation(self):
        grid = CouplingConfig(np.array([0.0, 0.4, 1.0]), np.array([0.5, 1.0, 1e-9]))
        np.testing.assert_array_equal(grid.reflectivity, [1.0, 0.6, 0.0])
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\], got 1.5"):
            CouplingConfig(np.array([0.4, 0.4]), np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="transmittivity must lie in"):
            CouplingConfig(np.array([0.4, float("nan")]), np.array([0.5, 0.5]))

    def test_empty_grid_is_rejected(self):
        empty = np.array([])
        with pytest.raises(ValueError, match="transmittivity must hold at least one point"):
            CouplingConfig(empty, empty)
        with pytest.raises(ValueError, match="overlap must hold at least one point"):
            CouplingConfig(np.array([0.4]), empty)
        with pytest.raises(ValueError, match="transmittivity must hold at least one point"):
            fock_oracle.beamsplitter_matrix(empty)

    def test_derived_quantities(self):
        cfg = CouplingConfig(0.4)
        assert abs(cfg.reflectivity - 0.6) < 1e-15
        assert abs(cfg.werner_weight - 4.0 / 13.0) < 1e-15

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(-0.1, 0.5)
        with pytest.raises(ValueError):
            FilterConfig(0.5, 1.5)

    @pytest.mark.parametrize("probability, stored", [
        (-5e-10, 0.0), (0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (1.0 + 5e-10, 1.0),
    ])
    def test_outcome_probability_clamped_into_unit_interval(self, probability, stored):
        outcome = StageOutcome(state=states.werner(0.5), probability=probability,
                               stage=Stage.COUPLING)
        assert outcome.probability == stored

    @pytest.mark.parametrize("probability", [-2e-9, 1.0 + 2e-9, float("nan")])
    def test_outcome_probability_outside_rounding_window_raises(self, probability):
        with pytest.raises(ValueError, match="probability must lie in"):
            StageOutcome(state=states.werner(0.5), probability=probability, stage=Stage.COUPLING)


class TestStage1:
    def test_benchmark_point_is_separable(self):
        outcome = protocol.stage1_couple(CouplingConfig(0.4))
        assert measures.concurrence(outcome.state) == 0.0
        assert abs(outcome.probability - 0.52) < 1e-12
        assert outcome.stage is Stage.COUPLING

    def test_fully_transmitting_beamsplitter(self):
        outcome = protocol.stage1_couple(CouplingConfig(1.0))
        assert measures.fidelity(outcome.state, states.singlet_density()) >= 1.0 - 1e-12
        assert abs(outcome.probability - 1.0) < 1e-12
        assert abs(measures.concurrence(outcome.state) - 1.0) < 1e-12

    def test_entangled_above_threshold(self):
        # closed form (2T^2 - R^2) / (2 (R^2 + T^2)) at T = 0.45 gives
        # 0.1025 / 1.01; cross-checked through the Wootters functional
        outcome = protocol.stage1_couple(CouplingConfig(0.45))
        value = measures.concurrence(outcome.state)
        assert abs(value - 0.1025 / 1.01) < 1e-12
        closed = protocol.concurrence_closed_form(Stage.COUPLING, CouplingConfig(0.45))
        assert abs(value - closed) < 1e-12

    def test_indistinguishable_case_uses_simulation(self):
        outcome = protocol.stage1_couple(CouplingConfig(0.3, 0.85))
        assert measures.concurrence(outcome.state) == 0.0
        assert abs(outcome.probability - 0.4015) < 1e-10

    def test_closed_form_agrees_on_grid(self):
        for t in np.arange(0.0, 1.0001, 0.01):
            cfg = CouplingConfig(float(t))
            constructed = measures.concurrence(protocol.stage1_couple(cfg).state)
            assert abs(constructed - protocol.concurrence_closed_form(Stage.COUPLING, cfg)) < 1e-10


class TestStage2:
    def test_benchmark_point(self):
        outcome = protocol.stage2_measure(CouplingConfig(0.4), "H")
        assert abs(measures.concurrence(outcome.state) - 4.0 / 13.0) < 1e-12
        assert abs(outcome.probability - 0.26) < 1e-12
        assert outcome.stage is Stage.MEASUREMENT

    def test_fully_reflecting_beamsplitter(self):
        outcome = protocol.stage2_measure(CouplingConfig(0.0), "H")
        np.testing.assert_allclose(outcome.state, np.diag([0.0, 0.0, 0.5, 0.5]), atol=1e-12)
        assert measures.concurrence(outcome.state) == 0.0

    def test_partially_indistinguishable_point(self):
        outcome = protocol.stage2_measure(CouplingConfig(0.3, 0.85), "H")
        assert abs(measures.concurrence(outcome.state) - 0.2204234122) < 1e-9

    def test_outcome_symmetry(self):
        for t in np.linspace(0.05, 0.95, 10):
            for p in (0.0, 0.4, 0.85):
                cfg = CouplingConfig(float(t), p)
                c_h = measures.concurrence(protocol.stage2_measure(cfg, "H").state)
                c_v = measures.concurrence(protocol.stage2_measure(cfg, "V").state)
                assert abs(c_h - c_v) < 1e-10
                p_h = protocol.stage2_measure(cfg, "H").probability
                p_v = protocol.stage2_measure(cfg, "V").probability
                assert abs(p_h - p_v) < 1e-10

    def test_localization_never_hurts(self):
        for t in np.linspace(0.01, 0.99, 50):
            cfg = CouplingConfig(float(t))
            c1 = measures.concurrence(protocol.stage1_couple(cfg).state)
            c2 = measures.concurrence(protocol.stage2_measure(cfg, "H").state)
            assert c2 >= c1 - 1e-12

    def test_interference_kills_entanglement_at_balanced_coupling(self):
        # at T = 1/2, p = 1 the measured pair carries no coherence at all
        outcome = protocol.stage2_measure(CouplingConfig(0.5, 1.0), "H")
        assert measures.concurrence(outcome.state) < 1e-12

    def test_closed_form_agrees_on_grid(self):
        for t in np.arange(0.0, 1.0001, 0.01):
            cfg = CouplingConfig(float(t))
            constructed = measures.concurrence(protocol.stage2_measure(cfg, "H").state)
            closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)
            assert abs(constructed - closed) < 1e-10

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            protocol.stage2_measure(CouplingConfig(0.4), "D")


class TestStage3:
    def test_identity_filter_is_a_no_op(self):
        prev = protocol.stage2_measure(CouplingConfig(0.4), "H")
        outcome = protocol.stage3_filter(prev, FilterConfig(1.0, 1.0))
        np.testing.assert_allclose(outcome.state, prev.state, atol=1e-12)
        assert abs(outcome.probability - prev.probability) < 1e-12
        assert outcome.stage is Stage.FILTRATION

    def test_benchmark_filtering(self):
        prev = protocol.stage2_measure(CouplingConfig(0.4), "H")
        outcome = protocol.stage3_filter(prev, FilterConfig(0.33, 1.0))
        assert abs(measures.concurrence(outcome.state) - 0.4081394420) < 1e-9
        assert abs(outcome.probability - 0.1126) < 1e-10

    def test_requires_measured_input(self):
        stage1 = protocol.stage1_couple(CouplingConfig(0.4))
        with pytest.raises(ValueError, match="stage II"):
            protocol.stage3_filter(stage1, FilterConfig(0.5, 0.5))

    def test_fully_blocked_raises(self):
        prev = protocol.stage2_measure(CouplingConfig(0.0), "H")  # diag(0, 0, .5, .5)
        with pytest.raises(ValueError, match="blocked"):
            protocol.stage3_filter(prev, FilterConfig(0.0, 1.0))

    def test_schedule(self):
        filters = protocol.eps_to_filter(1.0, 0.4)
        assert abs(filters.att_a - 4.0 / 13.0) < 1e-15
        assert filters.att_b == 1.0
        with pytest.raises(ValueError):
            protocol.eps_to_filter(0.0, 0.4)
        with pytest.raises(ValueError):
            protocol.eps_to_filter(1.2, 0.4)

    def test_filtration_limit(self):
        prev = protocol.stage2_measure(CouplingConfig(0.4), "H")
        limit = 0.4 / np.sqrt(0.52)
        outcome = protocol.stage3_filter(prev, protocol.eps_to_filter(1e-6, 0.4))
        assert abs(measures.concurrence(outcome.state) - limit) < 1e-6

    def test_filtration_monotone_as_eps_decreases(self):
        prev = protocol.stage2_measure(CouplingConfig(0.4), "H")
        values = []
        for eps in np.geomspace(1.0, 1e-6, 100):
            outcome = protocol.stage3_filter(prev, protocol.eps_to_filter(float(eps), 0.4))
            values.append(measures.concurrence(outcome.state))
        diffs = np.diff(values)  # eps decreases along the sweep
        assert np.all(diffs >= -1e-12)

    def test_filtering_of_indistinguishable_benchmark(self):
        prev = protocol.stage2_measure(CouplingConfig(0.3, 0.85), "H")
        outcome = protocol.stage3_filter(prev, FilterConfig(0.12, 0.30))
        assert abs(measures.concurrence(outcome.state) - 0.4703555847) < 1e-9
        pass_rate = outcome.probability / prev.probability
        assert abs(pass_rate - 0.0889165629) < 1e-9


class TestStageConcurrences:
    def test_matches_closed_forms_at_p0(self):
        for t in np.linspace(0.05, 1.0, 20):
            cfg = CouplingConfig(float(t))
            q = cfg.werner_weight
            for eps in (0.01, 0.15, 0.5, 1.0):
                stage1, stage2, filtered, limit = protocol.stage_concurrences(float(t), 0.0, eps)
                assert abs(stage1 - protocol.concurrence_closed_form(Stage.COUPLING, cfg)) < 1e-12
                assert abs(stage2 - protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)) < 1e-12
                # the constructive filtered form (README), not the published one
                assert abs(filtered - np.sqrt(q) / (1.0 + (1.0 - q) * eps / 2.0)) < 1e-12
                assert abs(limit - protocol.concurrence_closed_form(Stage.FILTRATION, cfg)) < 1e-12

    def test_grid_equals_its_points(self):
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        for p in (0.0, 0.5):
            columns = protocol.stage_concurrences(ts, p, 0.15)
            for index in np.ndindex(ts.shape):
                point = protocol.stage_concurrences(float(ts[index]), p, 0.15)
                assert all(type(value) is float for value in point)
                got = [float(column[index]) for column in columns]
                assert np.array_equal(got, point, equal_nan=True)

    def test_a_grid_larger_than_a_block_is_measured_block_by_block(self, monkeypatch):
        ts, ps = np.linspace(0.0, 1.0, 11)[:, None], np.array([0.0, 0.5])
        whole = protocol.stage_concurrences(ts, ps, 0.15)
        sizes = []
        concurrence = measures.concurrence

        def counted(rho):
            sizes.append(len(rho))
            return concurrence(rho)

        monkeypatch.setattr(measures, "concurrence", counted)
        monkeypatch.setattr(protocol, "GRID_BLOCK", 4)
        blocked = protocol.stage_concurrences(ts, ps, 0.15)
        # 22 points in blocks of 4, 4, 4, 4, 4 and 2, with two stage states per point and a
        # stage III state where the filters pass: they block both T = 0 points of the first block
        assert sizes == [10, 12, 12, 12, 12, 6]
        for got, expected in zip(blocked, whole):
            assert got.shape == (11, 2) and got.tobytes() == expected.tobytes()

    def test_an_overlap_sweep_from_zero_in_blocks_equals_one_block(self, monkeypatch):
        ps = np.concatenate([np.zeros(2), np.linspace(0.0, 1.0, 11)])[:, None]
        ts = np.array([0.3, 0.5])
        whole = protocol.stage_concurrences(ts, ps, 0.15)
        calls = []
        apply_beamsplitter = fock_oracle.apply_beamsplitter

        def counted(state, transmittivity):
            calls.append(np.size(transmittivity))
            return apply_beamsplitter(state, transmittivity)

        monkeypatch.setattr(fock_oracle, "apply_beamsplitter", counted)
        monkeypatch.setattr(protocol, "GRID_BLOCK", 4)
        blocked = protocol.stage_concurrences(ts, ps, 0.15)
        # 26 points, p-major, in blocks of 4: the first holds only p = 0 and makes no call, the
        # second mixes two p = 0 and two p > 0 points; a block propagates its p > 0 points
        # once, with one apply_beamsplitter call per environment polarization
        assert calls == [2, 2] + [4, 4] * 4 + [2, 2]
        for got, expected in zip(blocked, whole):
            assert got.shape == (13, 2) and got.tobytes() == expected.tobytes()

    def test_blocked_filter_is_nan(self):
        assert np.isnan(protocol.stage_concurrences(0.0, 0.0, 0.15)[2])

    @pytest.mark.parametrize("eps", [0.0, 5.0])
    def test_invalid_eps_raises(self, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            protocol.stage_concurrences(0.4, 0.0, eps)


class TestClosedForms:
    def test_coupling_concurrence(self):
        assert protocol.concurrence_closed_form(Stage.COUPLING, CouplingConfig(0.4)) == 0.0
        value = protocol.concurrence_closed_form(Stage.COUPLING, CouplingConfig(0.45))
        assert abs(value - 0.1025 / 1.01) < 1e-15

    def test_measurement_concurrence(self):
        assert abs(protocol.concurrence_closed_form(Stage.MEASUREMENT, CouplingConfig(0.5)) - 0.5) < 1e-15
        value = protocol.concurrence_closed_form(Stage.MEASUREMENT, CouplingConfig(0.3, 0.85))
        assert abs(value - 0.2204234122) < 1e-9

    def test_filtration_concurrence(self):
        # published finite-eps form; value frozen from its verbatim evaluation
        value = protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.4), eps=0.15)
        assert abs(value - 0.4746097936) < 1e-9
        limit = protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.4))
        assert abs(limit - 0.4 / np.sqrt(0.52)) < 1e-15

    def test_filtration_asymptotic_indistinguishable(self):
        value = protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.3, 0.85))
        assert abs(value - 0.6246972361) < 1e-9
        # degenerate point where numerator and denominator both vanish
        assert protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.5, 1.0)) == 0.0

    def test_undefined_combinations_raise(self):
        with pytest.raises(ValueError):
            protocol.concurrence_closed_form(Stage.COUPLING, CouplingConfig(0.4, 0.5))
        with pytest.raises(ValueError):
            protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.3, 0.85), eps=0.5)
        with pytest.raises(ValueError):
            protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(0.0), eps=0.5)
        with pytest.raises(ValueError):
            protocol.concurrence_closed_form(Stage.MEASUREMENT, CouplingConfig(0.4), eps=0.3)

    def test_probabilities(self):
        assert abs(protocol.probability_closed_form(Stage.COUPLING, CouplingConfig(0.4)) - 0.52) < 1e-15
        assert abs(protocol.probability_closed_form(Stage.MEASUREMENT, CouplingConfig(0.4)) - 0.26) < 1e-15
        value = protocol.probability_closed_form(Stage.FILTRATION, CouplingConfig(0.4), eps=1.0)
        assert abs(value - 0.17) < 1e-12

    def test_probability_errors(self):
        with pytest.raises(ValueError):
            protocol.probability_closed_form(Stage.COUPLING, CouplingConfig(0.4, 0.5))
        with pytest.raises(ValueError):
            protocol.probability_closed_form(Stage.FILTRATION, CouplingConfig(0.4))
        with pytest.raises(ValueError):
            protocol.probability_closed_form(Stage.MEASUREMENT, CouplingConfig(0.4), eps=0.2)

    def test_probabilities_match_pipeline_on_grid(self):
        for t in np.arange(0.0, 1.0001, 0.01):
            cfg = CouplingConfig(float(t))
            p1 = protocol.stage1_couple(cfg).probability
            p2 = protocol.stage2_measure(cfg, "H").probability
            assert abs(p1 - protocol.probability_closed_form(Stage.COUPLING, cfg)) < 1e-12
            assert abs(p2 - protocol.probability_closed_form(Stage.MEASUREMENT, cfg)) < 1e-12


class TestThresholds:
    def test_separability_threshold_value(self):
        assert abs(protocol.separability_threshold() - (SQRT2 - 1.0)) < 1e-15

    def test_concurrence_crosses_at_threshold(self):
        threshold = SQRT2 - 1.0
        below = protocol.stage1_couple(CouplingConfig(threshold - 1e-4))
        above = protocol.stage1_couple(CouplingConfig(threshold + 1e-4))
        assert measures.concurrence(below.state) == 0.0
        assert measures.concurrence(above.state) > 0.0

    def test_bisection_locates_threshold(self):
        located = protocol.locate_separability_threshold(tol=1e-8)
        assert abs(located - (SQRT2 - 1.0)) < 1e-6

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8, float("inf")])
    def test_bisection_rejects_a_tolerance_it_cannot_reach(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            protocol.locate_separability_threshold(tol)

    def test_bisection_below_float_spacing_stops_at_adjacent_floats(self):
        located = protocol.locate_separability_threshold(1e-17)
        assert abs(located - (SQRT2 - 1.0)) < 1e-15

    def test_disappearance_threshold(self):
        assert protocol.disappearance_threshold(0.3) == protocol.ALWAYS_SEPARABLE
        assert abs(protocol.disappearance_threshold(0.5) - 0.5) < 1e-12
        assert protocol.disappearance_threshold(0.6) == protocol.NEVER_DISAPPEARS
        with pytest.raises(ValueError, match="degenerate"):
            protocol.disappearance_threshold(0.0)
        with pytest.raises(ValueError, match="degenerate"):
            protocol.disappearance_threshold(1.0)

    def test_disappearance_threshold_constructively(self):
        # at T = 0.5 the coupled pair loses its entanglement above p = 0.5
        below = protocol.stage1_couple(CouplingConfig(0.5, 0.45))
        above = protocol.stage1_couple(CouplingConfig(0.5, 0.55))
        assert measures.concurrence(below.state) > 0.0
        assert measures.concurrence(above.state) == 0.0
        # and within 1e-6 on either side of the threshold away from T = 0.5
        for t in (0.45, 0.55):
            threshold = protocol.disappearance_threshold(t)
            below = protocol.stage1_couple(CouplingConfig(t, threshold - 1e-6))
            above = protocol.stage1_couple(CouplingConfig(t, threshold + 1e-6))
            assert measures.concurrence(below.state) > 0.0
            assert measures.concurrence(above.state) == 0.0

    def test_stage2_zero_crossing(self):
        assert abs(protocol.stage2_concurrence_zero(0.3) - 0.3 / 0.7) < 1e-12
        assert abs(protocol.stage2_concurrence_zero(0.25) - 1.0 / 3.0) < 1e-12
        with pytest.raises(ValueError, match="outside"):
            protocol.stage2_concurrence_zero(0.5)
        with pytest.raises(ValueError):
            protocol.stage2_concurrence_zero(0.0)

    def test_stage2_zero_crossing_constructively(self):
        p_star = protocol.stage2_concurrence_zero(0.3)
        outcome = protocol.stage2_measure(CouplingConfig(0.3, p_star), "H")
        assert measures.concurrence(outcome.state) < 1e-9


class TestBranchBookkeeping:
    def test_stage1_branches_sum_to_one(self):
        for t in np.linspace(0.05, 0.95, 7):
            for p in (0.0, 0.5, 1.0):
                branches = fock_oracle.branch_probabilities(CouplingConfig(float(t), p))
                assert abs(sum(branches.values()) - 1.0) < 1e-12
