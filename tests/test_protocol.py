import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import (counting, exact_stage_concurrences, functions_of, grid_closed_form,
                      grid_concurrences, matrix_route_columns, oracle_stages, random_density,
                      random_pure_density, reduced_sizes, x_concurrence)

from entloc import cli, fock_oracle, measures, protocol, qmat, states
from entloc.params import CouplingConfig, FilterConfig, Stage, StageOutcome

SQRT2 = np.sqrt(2.0)
MEASURES = functions_of(measures)


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
        for overlaps in (np.array([0.0, 0.0]), np.array([0.0, 0.5]), np.array([0.5, 0.7])):
            with pytest.raises(ValueError, match="needs a grid of transmittivities"):
                CouplingConfig(0.4, overlaps)

    def test_a_point_is_a_float_and_negative_zero_reads_as_zero(self):
        for cfg in (CouplingConfig(-0.0, -0.0), CouplingConfig(np.float64(-0.0), np.array(-0.0))):
            for value in (cfg.transmittivity, cfg.overlap):
                assert type(value) is float and math.copysign(1.0, value) == 1.0
        grid = CouplingConfig(np.array([-0.0, 0.5]), np.array([0.5, 0.5]))
        assert grid.transmittivity.tobytes() == np.array([-0.0, 0.5]).tobytes()  # kept as given

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

    def test_grid_outcome_probabilities_are_clamped_entry_by_entry(self):
        stack = np.array([states.werner(0.5)] * 5)
        outcome = StageOutcome(stack, np.array([-5e-10, 0.0, 0.25, 1.0, 1.0 + 5e-10]),
                               Stage.COUPLING)
        assert outcome.probability.tolist() == [0.0, 0.0, 0.25, 1.0, 1.0]

    @pytest.mark.parametrize("probability", [-2e-9, 1.0 + 2e-9, float("nan")])
    def test_grid_outcome_names_its_first_bad_probability_like_a_point(self, probability):
        with pytest.raises(ValueError) as point:
            StageOutcome(states.werner(0.5), probability, Stage.COUPLING)
        with pytest.raises(ValueError) as grid:
            StageOutcome(np.array([states.werner(0.5)] * 3), np.array([0.5, probability, -1.0]),
                         Stage.COUPLING)
        message = f"probability must lie in [0, 1], got {probability}"
        assert str(grid.value) == str(point.value) == message

    def test_grid_werner_weight_equals_its_points(self, rng):
        ts = np.concatenate([[0.0, 0.1, 0.4, 0.5, 1.0], rng.random(20000)])
        for t, q in zip(ts.tolist(), CouplingConfig(ts).werner_weight.tolist()):
            assert q.hex() == CouplingConfig(t).werner_weight.hex()


class TestStage1:
    def test_benchmark_point_is_separable(self):
        outcome = protocol.coupled_stages(CouplingConfig(0.4))[0]
        assert measures.concurrence(outcome.state) == 0.0
        assert abs(outcome.probability - 0.52) < 1e-12
        assert outcome.stage is Stage.COUPLING

    def test_fully_transmitting_beamsplitter(self):
        outcome = protocol.coupled_stages(CouplingConfig(1.0))[0]
        assert measures.fidelity(outcome.state, states.singlet_density()) >= 1.0 - 1e-12
        assert abs(outcome.probability - 1.0) < 1e-12
        assert abs(measures.concurrence(outcome.state) - 1.0) < 1e-12

    def test_entangled_above_threshold(self):
        # closed form (2T^2 - R^2) / (2 (R^2 + T^2)) at T = 0.45 gives
        # 0.1025 / 1.01; cross-checked through the Wootters functional
        outcome = protocol.coupled_stages(CouplingConfig(0.45))[0]
        value = measures.concurrence(outcome.state)
        assert abs(value - 0.1025 / 1.01) < 1e-12
        closed = protocol.concurrence_closed_form(Stage.COUPLING, CouplingConfig(0.45))
        assert abs(value - closed) < 1e-12

    def test_indistinguishable_case_uses_simulation(self):
        outcome = protocol.coupled_stages(CouplingConfig(0.3, 0.85))[0]
        assert measures.concurrence(outcome.state) == 0.0
        assert abs(outcome.probability - 0.4015) < 1e-10

    def test_closed_form_agrees_on_grid(self):
        for t in np.arange(0.0, 1.0001, 0.01):
            cfg = CouplingConfig(float(t))
            constructed = measures.concurrence(protocol.coupled_stages(cfg)[0].state)
            assert abs(constructed - protocol.concurrence_closed_form(Stage.COUPLING, cfg)) < 1e-10


class TestStage2:
    def test_benchmark_point(self):
        outcome = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        assert abs(measures.concurrence(outcome.state) - 4.0 / 13.0) < 1e-12
        assert abs(outcome.probability - 0.26) < 1e-12
        assert outcome.stage is Stage.MEASUREMENT

    def test_fully_reflecting_beamsplitter(self):
        outcome = protocol.coupled_stages(CouplingConfig(0.0), "H")[1]
        np.testing.assert_allclose(outcome.state, np.diag([0.0, 0.0, 0.5, 0.5]), atol=1e-12)
        assert measures.concurrence(outcome.state) == 0.0

    def test_partially_indistinguishable_point(self):
        outcome = protocol.coupled_stages(CouplingConfig(0.3, 0.85), "H")[1]
        assert abs(measures.concurrence(outcome.state) - 0.2204234122) < 1e-9

    def test_outcome_symmetry(self):
        for t in np.linspace(0.05, 0.95, 10):
            for p in (0.0, 0.4, 0.85):
                cfg = CouplingConfig(float(t), p)
                c_h = measures.concurrence(protocol.coupled_stages(cfg, "H")[1].state)
                c_v = measures.concurrence(protocol.coupled_stages(cfg, "V")[1].state)
                assert abs(c_h - c_v) < 1e-10
                p_h = protocol.coupled_stages(cfg, "H")[1].probability
                p_v = protocol.coupled_stages(cfg, "V")[1].probability
                assert abs(p_h - p_v) < 1e-10

    def test_localization_never_hurts(self):
        for t in np.linspace(0.01, 0.99, 50):
            cfg = CouplingConfig(float(t))
            c1, c2 = (measures.concurrence(stage.state) for stage in protocol.coupled_stages(cfg))
            assert c2 >= c1 - 1e-12

    def test_interference_kills_entanglement_at_balanced_coupling(self):
        # at T = 1/2, p = 1 the measured pair carries no coherence at all
        outcome = protocol.coupled_stages(CouplingConfig(0.5, 1.0), "H")[1]
        assert measures.concurrence(outcome.state) < 1e-12

    def test_closed_form_agrees_on_grid(self):
        for t in np.arange(0.0, 1.0001, 0.01):
            cfg = CouplingConfig(float(t))
            constructed = measures.concurrence(protocol.coupled_stages(cfg, "H")[1].state)
            closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)
            assert abs(constructed - closed) < 1e-10

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            protocol.coupled_stages(CouplingConfig(0.4), "D")


class TestStage3:
    def test_identity_filter_is_a_no_op(self):
        prev = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        outcome = protocol.stage3_filter(prev, FilterConfig(1.0, 1.0))
        np.testing.assert_allclose(outcome.state, prev.state, atol=1e-12)
        assert abs(outcome.probability - prev.probability) < 1e-12
        assert outcome.stage is Stage.FILTRATION

    def test_benchmark_filtering(self):
        prev = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        outcome = protocol.stage3_filter(prev, FilterConfig(0.33, 1.0))
        assert abs(measures.concurrence(outcome.state) - 0.4081394420) < 1e-9
        assert abs(outcome.probability - 0.1126) < 1e-10

    def test_requires_measured_input(self):
        stage1 = protocol.coupled_stages(CouplingConfig(0.4))[0]
        with pytest.raises(ValueError, match="stage II"):
            protocol.stage3_filter(stage1, FilterConfig(0.5, 0.5))

    def test_fully_blocked_raises(self):
        prev = protocol.coupled_stages(CouplingConfig(0.0), "H")[1]  # diag(0, 0, .5, .5)
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

    def test_schedule_on_a_grid_equals_its_points(self, rng):
        ts = np.concatenate([[0.0, 0.4, 1.0], rng.random(500)])
        for eps in (rng.random(ts.size) * 0.999 + 0.001, 0.15):
            grid = protocol.eps_to_filter(eps, ts)
            for i, t in enumerate(ts.tolist()):
                alone = protocol.eps_to_filter(np.broadcast_to(eps, ts.shape)[i].item(), t)
                assert float(grid.att_a[i]).hex() == alone.att_a.hex()
                assert float(np.broadcast_to(grid.att_b, ts.shape)[i]).hex() == alone.att_b.hex()

    @pytest.mark.parametrize("eps", [0.0, 5.0, float("nan")])
    def test_grid_schedule_names_its_first_bad_eps_like_a_point(self, eps):
        with pytest.raises(ValueError) as point:
            protocol.eps_to_filter(eps, 0.4)
        with pytest.raises(ValueError) as grid:
            protocol.eps_to_filter(np.array([0.15, eps, -1.0]), np.full(3, 0.4))
        assert str(grid.value) == str(point.value) == f"eps must lie in (0, 1], got {eps}"

    def test_filtration_limit(self):
        prev = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        limit = 0.4 / np.sqrt(0.52)
        outcome = protocol.stage3_filter(prev, protocol.eps_to_filter(1e-6, 0.4))
        assert abs(measures.concurrence(outcome.state) - limit) < 1e-6

    def test_filtration_monotone_as_eps_decreases(self):
        prev = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        values = []
        for eps in np.geomspace(1.0, 1e-6, 100):
            outcome = protocol.stage3_filter(prev, protocol.eps_to_filter(float(eps), 0.4))
            values.append(measures.concurrence(outcome.state))
        diffs = np.diff(values)  # eps decreases along the sweep
        assert np.all(diffs >= -1e-12)

    def test_filtering_of_indistinguishable_benchmark(self):
        prev = protocol.coupled_stages(CouplingConfig(0.3, 0.85), "H")[1]
        outcome = protocol.stage3_filter(prev, FilterConfig(0.12, 0.30))
        assert abs(measures.concurrence(outcome.state) - 0.4703555847) < 1e-9
        pass_rate = outcome.probability / prev.probability
        assert abs(pass_rate - 0.0889165629) < 1e-9


def kraus_matrix(att_a: float, att_b: float) -> np.ndarray:
    """The Kraus element of the two-arm V filter as a dense complex 4x4 matrix."""
    return np.diag([1.0, np.sqrt(att_b), np.sqrt(att_a), np.sqrt(att_a * att_b)]).astype(complex)


def reference_stage3_filter(prev, filters):
    """Reference filter of one state: a one-matrix Kraus element and a scalar pass rate."""
    kraus = kraus_matrix(filters.att_a, filters.att_b)
    filtered = kraus @ prev.state @ kraus
    pass_rate = float(np.real(np.trace(filtered)))
    return filtered / pass_rate, prev.probability * pass_rate


class TestFilterStates:
    """A stack of stage II states is filtered in one pass, each state with the bits
    `stage3_filter` gives it alone, which are those of the one-matrix reference."""

    @staticmethod
    def assert_each_filtered_alone(prevs, filters):
        att_a = np.array([f.att_a for f in filters])
        att_b = np.array([f.att_b for f in filters])
        stacked, pass_rates = protocol.filter_states(
            np.array([prev.state for prev in prevs]), FilterConfig(att_a, att_b))
        assert stacked.shape == (len(prevs), 4, 4) and pass_rates.shape == (len(prevs),)
        for prev, f, state, pass_rate in zip(prevs, filters, stacked, pass_rates.tolist()):
            alone = protocol.stage3_filter(prev, f)
            expected_state, expected_probability = reference_stage3_filter(prev, f)
            assert state.tobytes() == alone.state.tobytes() == expected_state.tobytes()
            assert (prev.probability * pass_rate).hex() == alone.probability.hex()
            assert alone.probability.hex() == expected_probability.hex()

    def test_pipeline_states(self):
        prevs, filters = [], []
        for t in np.linspace(0.01, 0.99, 50).tolist():
            for p in (0.0, 0.3, 1.0):
                found = [protocol.coupled_stages(CouplingConfig(t, p), "H")[1],
                         oracle_stages(t, p, "V")[1]]
                if p == 0.0:  # the oracle route at p = 0
                    found.append(oracle_stages(t, p, "H")[1])
                for eps in (1e-6, 0.15, 1.0):
                    prevs += found
                    filters += [protocol.eps_to_filter(eps, t)] * len(found)
        self.assert_each_filtered_alone(prevs, filters)

    def test_random_states(self, rng):
        prevs = [StageOutcome(make(rng, 4), float(rng.random()), Stage.MEASUREMENT)
                 for make in (random_density, random_pure_density) for _ in range(200)]
        filters = [FilterConfig(float(rng.random()), float(rng.random())) for _ in prevs]
        self.assert_each_filtered_alone(prevs, filters)

    def test_one_filter_for_a_stack_and_a_stack_of_one(self):
        prev = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        filters = FilterConfig(0.33, 1.0)
        alone = protocol.stage3_filter(prev, filters)
        for stack in (prev.state[None], np.array([prev.state] * 3).reshape(3, 1, 4, 4)):
            states, pass_rates = protocol.filter_states(stack, filters)
            assert states.shape == stack.shape and pass_rates.shape == stack.shape[:-2]
            for state in states.reshape(-1, 4, 4):
                assert state.tobytes() == alone.state.tobytes()
        state, pass_rate = protocol.filter_states(prev.state, filters)
        assert state.shape == (4, 4) and np.ndim(pass_rate) == 0

    def test_closed_and_open_filters(self, rng):
        # an attenuation of 0 zeroes whole rows and columns: their zeros are +0.0, as in K rho K
        prevs, filters = [], []
        for a, b in itertools.product((0.0, 1.0, None), repeat=2):
            for make in (random_density, random_pure_density):
                for _ in range(20):
                    prevs.append(StageOutcome(make(rng, 4), float(rng.random()), Stage.MEASUREMENT))
                    filters.append(FilterConfig(float(rng.random()) if a is None else a,
                                                float(rng.random()) if b is None else b))
        self.assert_each_filtered_alone(prevs, filters)

    def test_one_blocked_state_blocks_the_stack(self):
        blocked = protocol.coupled_stages(CouplingConfig(0.0), "H")[1]  # diag(0, 0, .5, .5)
        passed = protocol.coupled_stages(CouplingConfig(0.4), "H")[1]
        stack = np.array([passed.state, blocked.state, passed.state])
        message = r"^filters fully blocked the state \(zero pass rate\)$"
        with pytest.raises(ValueError, match=message) as raised:
            protocol.filter_states(stack, FilterConfig(np.array([0.5, 0.0, 0.5]), 1.0))
        assert type(raised.value) is protocol.FilterBlockedError

    def test_a_stack_raises_exactly_when_one_of_its_states_raises_alone(self):
        # T = 0 states block when A_A = 0; tiny T at tiny eps straddles the 1e-15 threshold
        ts = np.array([0.0, 1e-9, 1e-8, 1e-7, 1e-6, 0.4, 1.0, 0.0]).reshape(2, 4)
        stack = np.array([[protocol.coupled_stages(CouplingConfig(t), "H")[1].state for t in row]
                          for row in ts.tolist()])
        message = r"^filters fully blocked the state \(zero pass rate\)$"
        for eps in (1e-12, 1e-3, 1.0):
            filters = [protocol.eps_to_filter(eps, t) for t in ts.ravel().tolist()]
            att_a = np.array([f.att_a for f in filters]).reshape(ts.shape)
            att_b = np.array([f.att_b for f in filters]).reshape(ts.shape)
            blocked = np.zeros(ts.shape, dtype=bool)
            for index in np.ndindex(ts.shape):
                try:
                    protocol.filter_states(stack[index], FilterConfig(att_a[index], att_b[index]))
                except protocol.FilterBlockedError as alone:
                    assert str(alone) == "filters fully blocked the state (zero pass rate)"
                    blocked[index] = True
            assert blocked.any() and not blocked.all()
            with pytest.raises(protocol.FilterBlockedError, match=message) as raised:
                protocol.filter_states(stack, FilterConfig(att_a, att_b))
            assert type(raised.value) is protocol.FilterBlockedError
            passed = ~blocked  # the states that pass alone pass together
            states, _ = protocol.filter_states(stack[passed], FilterConfig(att_a[passed],
                                                                           att_b[passed]))
            assert states.shape == (np.count_nonzero(passed), 4, 4)


class TestCoupledStages:
    TS = (0.0, 0.2, 0.37, 0.5, 0.81, 1.0)

    @pytest.mark.parametrize("outcome", ["H", "V"])
    @pytest.mark.parametrize("overlaps", [(1e-9, 0.5, 1.0), (0.0,), (0.25, 1.0), None])
    def test_grid_equals_its_points(self, outcome, overlaps):
        # p = 0 takes the closed form, p > 0 the oracle; None is verify's analytic route, an
        # array of T at the float p = 0
        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, overlaps or (0.0,)))
        grid_cfg = CouplingConfig(ts) if overlaps is None else CouplingConfig(ts, ps)
        stage1, stage2 = protocol.coupled_stages(grid_cfg, outcome)
        assert (stage1.stage, stage2.stage) == (Stage.COUPLING, Stage.MEASUREMENT)
        for i, (t, p) in enumerate(zip(ts.tolist(), ps.tolist())):
            cfg = CouplingConfig(t, p)
            for grid, alone in zip((stage1, stage2), protocol.coupled_stages(cfg, outcome)):
                assert type(alone.probability) is float
                assert grid.state[i].tobytes() == alone.state.tobytes()
                assert float(grid.probability[i]).hex() == alone.probability.hex()

    def test_a_grid_takes_one_route(self):
        ts = np.array(self.TS)
        for ps in (np.array([0.0, 1e-9, 0.5, 1.0, 0.0, 0.3]), np.array([0.5, 0, 0, 0, 0, 0])):
            with pytest.raises(ValueError, match="must be 0 everywhere .* or nowhere"):
                protocol.coupled_stages(CouplingConfig(ts, ps))

    @pytest.mark.parametrize("outcome", ["H", "V"])
    def test_each_route_gives_its_own_outcomes(self, outcome):
        # p = 0: the closed-form states; p > 0: the oracle's outcomes, for a point or a grid
        cfg = CouplingConfig(0.37)
        stage1, stage2 = protocol.coupled_stages(cfg, outcome)
        assert stage1.state.tobytes() == states.werner(cfg.werner_weight).tobytes()
        expected = states.post_measurement_state(cfg.werner_weight, outcome)
        assert stage2.state.tobytes() == expected.tobytes()
        for cfg in (CouplingConfig(0.37, 0.5),
                    CouplingConfig(np.array([0.37, 0.81]), np.array([0.5, 1.0]))):
            oracle = fock_oracle.reduce_to_ab(fock_oracle.propagate(cfg), outcome)
            for found, expected in zip(protocol.coupled_stages(cfg, outcome), oracle):
                assert found.state.tobytes() == expected.state.tobytes()
                assert (np.asarray(found.probability).tobytes()
                        == np.asarray(expected.probability).tobytes())


def sweep_point(t: float, p: float, eps: float) -> tuple:
    """The four `stage_concurrences` values of one point, a grid of one."""
    return tuple(column[0] for column in protocol.stage_concurrences([t], [p], [eps]))


class TestStageConcurrences:
    def test_matches_closed_forms_at_p0(self):
        for t in np.linspace(0.05, 1.0, 20):
            cfg = CouplingConfig(float(t))
            q = cfg.werner_weight
            for eps in (0.01, 0.15, 0.5, 1.0):
                stage1, stage2, filtered, limit = sweep_point(float(t), 0.0, eps)
                assert abs(stage1 - protocol.concurrence_closed_form(Stage.COUPLING, cfg)) < 1e-12
                assert abs(stage2 - protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)) < 1e-12
                # the constructive filtered form (README), not the published one
                assert abs(filtered - np.sqrt(q) / (1.0 + (1.0 - q) * eps / 2.0)) < 1e-12
                assert abs(limit - protocol.concurrence_closed_form(Stage.FILTRATION, cfg)) < 1e-12

    def test_grid_equals_its_points(self):
        ts = np.linspace(0.0, 1.0, 6).tolist()
        for p in (0.0, 0.5):
            columns = protocol.stage_concurrences(ts, [p] * len(ts), [0.15] * len(ts))
            assert all(type(column) is list for column in columns)
            for index, t in enumerate(ts):
                point = sweep_point(t, p, 0.15)
                assert all(type(value) is float for value in point)
                got = [column[index] for column in columns]
                assert np.array_equal(got, point, equal_nan=True)

    def test_the_limit_column_equals_the_closed_form_point_by_point(self, monkeypatch):
        counts = {"configs": 0, "closed_forms": 0}

        class CountedConfig(CouplingConfig):
            def __post_init__(self):
                counts["configs"] += 1
                super().__post_init__()

        def counted_closed_form(*args):
            counts["closed_forms"] += 1
            return closed_form(*args)

        closed_form = protocol.concurrence_closed_form
        monkeypatch.setattr(protocol, "CouplingConfig", CountedConfig)
        monkeypatch.setattr(protocol, "concurrence_closed_form", counted_closed_form)
        for p in (0.0, 0.3, 1.0):
            found = []
            for steps in (2, 101):
                ts = np.linspace(0.0, 1.0, steps).tolist()
                columns = protocol.stage_concurrences(ts, [p] * steps, [0.15] * steps)
                found.append(dict(counts))
                counts.update(configs=0, closed_forms=0)
                assert [value.hex() for value in columns[3]] == [
                    closed_form(Stage.FILTRATION, CouplingConfig(t, p)).hex() for t in ts]
            # no config per point (one per p > 0 block, and its lift to the oracle's grid)
            # and no closed-form call
            assert found[0] == found[1] == {"configs": 2 * int(p > 0.0), "closed_forms": 0}

    def test_a_grid_larger_than_a_block_is_measured_block_by_block(self, monkeypatch):
        ts, ps = np.linspace(0.0, 1.0, 11)[:, None], np.array([0.0, 0.5])
        whole = grid_concurrences(ts, ps, 0.15)
        sizes = reduced_sizes(monkeypatch)
        monkeypatch.setattr(protocol, "GRID_BLOCK", 4)
        calls = counting(monkeypatch, {protocol: ["distinguishable_concurrences", "filter_states"],
                                       measures: MEASURES})
        blocked = grid_concurrences(ts, ps, 0.15)
        # 22 points in blocks of 4, 4, 4, 4, 4 and 2, half of them at p = 0.5: one oracle
        # reduction of each block's p > 0 points, whose entries are measured in plain floats
        # like the 11 p = 0 points, with no filter_states pass and no measures function
        assert sizes == [2, 2, 2, 2, 2, 1]
        assert calls == {"distinguishable_concurrences": 11, "filter_states": 0,
                         **dict.fromkeys(MEASURES, 0)}
        for got, expected in zip(blocked, whole):
            assert got.shape == (11, 2) and got.tobytes() == expected.tobytes()

    def test_an_overlap_sweep_from_zero_in_blocks_equals_one_block(self, monkeypatch):
        ps = np.concatenate([np.zeros(2), np.linspace(0.0, 1.0, 11)])[:, None]
        ts = np.array([0.3, 0.5])
        whole = grid_concurrences(ts, ps, 0.15)
        calls = []
        apply_beamsplitter = fock_oracle.apply_beamsplitter

        def counted(state, transmittivity):
            calls.append(np.size(transmittivity))
            return apply_beamsplitter(state, transmittivity)

        monkeypatch.setattr(fock_oracle, "apply_beamsplitter", counted)
        monkeypatch.setattr(protocol, "GRID_BLOCK", 4)
        blocked = grid_concurrences(ts, ps, 0.15)
        # 26 points, p-major, in blocks of 4: the first holds only p = 0 and makes no call, the
        # second mixes two p = 0 and two p > 0 points; a block propagates its p > 0 points
        # once, with one apply_beamsplitter call per environment polarization
        assert calls == [2, 2] + [4, 4] * 4 + [2, 2]
        for got, expected in zip(blocked, whole):
            assert got.shape == (13, 2) and got.tobytes() == expected.tobytes()

    def test_blocked_filter_is_nan(self):
        assert np.isnan(sweep_point(0.0, 0.0, 0.15)[2])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("eps", [0.0, 5.0, math.nan, -1e-300])
    def test_invalid_eps_raises(self, eps, p):
        # the message of eps_to_filter, also where a p > 0 block checks its eps in floats
        with pytest.raises(ValueError) as expected:
            protocol.eps_to_filter(eps, 0.4)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\]") as raised:
            protocol.stage_concurrences([0.4, 0.4], [p, p], [0.15, eps])
        assert str(raised.value) == str(expected.value)

    def test_a_p_gt_0_sweep_checks_its_oracle_stacks_once_per_block(self, monkeypatch):
        checked = []
        validate = qmat.validate_density_matrix

        def counted(rho, *args, **kwargs):
            checked.append(np.asarray(rho)[..., 0, 0].size)
            return validate(rho, *args, **kwargs)

        monkeypatch.setattr(qmat, "validate_density_matrix", counted)
        calls = counting(monkeypatch, {fock_oracle: ["reduce_to_ab"], protocol: ["filter_states"],
                                       measures: MEASURES})
        columns = protocol.stage_concurrences(np.linspace(0.0, 1.0, 600).tolist(), [0.5] * 600,
                                              [0.15] * 600)
        # three blocks, each with one oracle reduction that checks the stage I and II states
        # of its points as one stack; every state, and the stage III states of the 599 points
        # the filters pass (not T = 0), then gets the plain-float checks as it is measured
        assert np.count_nonzero(np.isnan(columns[2])) == 1
        assert checked == [2 * 256, 2 * 256, 2 * 88]
        assert calls == {"reduce_to_ab": 3, "filter_states": 0, **dict.fromkeys(MEASURES, 0)}

    def test_lists_of_two_lengths_raise(self):
        with pytest.raises(ValueError, match=r"one length, got \[2, 3\]"):
            protocol.stage_concurrences([0.1, 0.2], [0.0, 0.0], [0.1, 0.2, 0.3])

    def test_a_float_is_not_a_grid(self):
        with pytest.raises(TypeError):
            protocol.stage_concurrences(0.4, 0.0, 0.15)

    def test_an_empty_grid_gives_empty_columns(self):
        assert protocol.stage_concurrences([], [], []) == ([], [], [], [])


def x_matrix(hh, hv, vh, vv, coherence):
    """The 4x4 X state of `protocol._x_concurrence`'s entries, with the singlet's +i coherence."""
    rho = np.diag(np.array([hh, hv, vh, vv], dtype=complex))
    rho[1, 2], rho[2, 1] = 1j * coherence, -1j * coherence
    return rho


class TestDistinguishableConcurrences:
    """The plain-float p = 0 point against the 4x4 matrix route, bit for bit."""

    def test_bits_equal_the_matrix_route(self, rng):
        threshold = math.sqrt(2.0) - 1.0  # the stage I zero crossing at p = 0
        special = np.repeat([0.0, 1.0, 0.5, 1e-300, 1e-160], 400)
        ts = np.concatenate([rng.random(12000), 10.0 ** rng.uniform(-320, 0, 2000),
                             threshold + rng.uniform(-1e-9, 1e-9, 2000), special,
                             rng.uniform(1e-7, 1.0, 2000), np.ones(1000)])
        eps = 10.0 ** rng.uniform(-17, 0, ts.size)
        near = slice(ts.size - 3000, ts.size)  # pass rates about eps q, q = T^2/(T^2 + R^2)
        q = ts[near] ** 2 / (ts[near] ** 2 + (1.0 - ts[near]) ** 2)
        eps[near] = np.minimum(1e-15 / q * rng.uniform(0.9, 1.1, q.size), 1.0)
        expected = matrix_route_columns(ts, 0.0, eps)
        points = [protocol.distinguishable_concurrences(t, e)
                  for t, e in zip(ts.tolist(), eps.tolist())]
        for got, want in zip(zip(*points), expected):
            assert [value.hex() for value in got] == [value.hex() for value in want.tolist()]
        for got, want in zip(protocol.stage_concurrences(ts.tolist(), [0.0] * ts.size,
                                                         eps.tolist()), expected):
            assert [value.hex() for value in got] == [value.hex() for value in want.tolist()]
        blocked = np.isnan(expected[2][near])
        assert ts.size >= 20000 and blocked.sum() > 100 and (~blocked).sum() > 100
        crossing = slice(14000, 16000)
        assert (expected[0][crossing] == 0.0).any() and (expected[0][crossing] > 0.0).any()

    def test_negative_zero_t_gives_the_values_of_zero(self):
        for eps in (0.5, 1.0):
            found = protocol.distinguishable_concurrences(-0.0, eps)
            assert [value.hex() for value in found] == [
                value.hex() for value in protocol.distinguishable_concurrences(0.0, eps)]
            assert math.copysign(1.0, found[3]) == 1.0  # the stage III limit

    def test_blocked_filters_give_nan(self):
        assert math.isnan(protocol.distinguishable_concurrences(0.0, 0.15)[2])
        with pytest.raises(protocol.FilterBlockedError,
                           match=r"^filters fully blocked the state \(zero pass rate\)$"):
            protocol.filter_x_state(0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.15)  # stage II at T = 0

    @pytest.mark.parametrize("t, eps", [(1.5, 0.15), (-0.1, 0.15), (math.nan, 0.15),
                                        (0.4, 0.0), (0.4, 5.0), (0.4, math.nan)])
    def test_invalid_inputs_raise_the_messages_of_the_matrix_route(self, t, eps):
        with pytest.raises(ValueError) as expected:
            protocol.eps_to_filter(eps, CouplingConfig(t).transmittivity)
        with pytest.raises(ValueError) as raised:
            protocol.distinguishable_concurrences(t, eps)
        assert str(raised.value) == str(expected.value)

    def test_x_states_measure_like_the_matrix_route(self, rng):
        for _ in range(2000):
            diagonal = rng.random(4) * 10.0 ** rng.uniform(-12, 0, 4)
            diagonal /= diagonal.sum()
            coherence = math.sqrt(diagonal[1] * diagonal[2]) * rng.uniform(0.0, 1.0)
            entries = (*diagonal.tolist(), coherence)
            expected = x_concurrence(x_matrix(*entries))
            assert protocol._x_concurrence(*entries).hex() == expected.hex()

    @pytest.mark.parametrize("entries", [
        (0.2, 0.2, 0.25, 0.25, 0.1),  # trace 0.9
        (0.6, 0.6, -0.1, -0.1, 0.0),  # negative diagonal
        (0.0, 0.5, 0.5, 0.0, 0.6),  # coherence beyond sqrt(hv vh)
        (-2e-10, 0.5, 0.5 + 2e-10, 0.0, 0.0),  # just below EIGVAL_FLOOR
    ], ids=["trace", "diagonal", "coherence", "floor"])
    def test_invalid_states_raise_the_messages_of_the_matrix_route(self, entries):
        with pytest.raises(ValueError) as expected:
            qmat.validate_density_matrix(x_matrix(*entries))
        with pytest.raises(ValueError) as raised:
            protocol._x_concurrence(*entries)
        assert str(raised.value) == str(expected.value)


def stage2_pass_factor(ts, ps):
    """The factor f of the stage III pass rate, about eps f, of the normalised H-outcome
    stage II state under the `eps_to_filter` schedule: f = d_HV + q d_VH (the eps^2 term
    dropped), from the stage II diagonal of `exact_stage_concurrences`."""
    rs = 1.0 - ts
    q = ts * ts / (ts * ts + rs * rs)
    hv, vh = ts * ts / 4.0, (ts * ts + rs * rs) / 4.0 - ps * ts * rs / 2.0
    return (hv + q * vh) / (hv + vh + rs * rs / 4.0)


def non_x_reduction(monkeypatch, stage: int, entry: tuple):
    """Make `fock_oracle.reduce_to_ab` mix each state of one stage (0: I, 1: II) with a
    tenth of the pure state (|i> + |j>)/sqrt(2) of `entry` (i, j): still a density matrix,
    with a nonzero (i, j) entry."""
    reduce_to_ab = fock_oracle.reduce_to_ab
    vector = np.zeros(4, dtype=complex)
    vector[list(entry)] = 1.0 / SQRT2

    def mixed(branches, outcome="H"):
        found = list(reduce_to_ab(branches, outcome))
        states = qmat.validate_density_matrix(
            0.9 * found[stage].state + 0.1 * np.outer(vector, vector.conj()), dim=4, stack=True)
        found[stage] = StageOutcome(states, found[stage].probability, found[stage].stage)
        return tuple(found)

    monkeypatch.setattr(fock_oracle, "reduce_to_ab", mixed)


class TestOverlappingConcurrences:
    """The p > 0 points of a sweep, measured in plain floats from the entries of the
    oracle's stacks, against the 4x4 matrix route, bit for bit."""

    def test_bits_equal_the_matrix_route(self, rng):
        segments = [  # (T, p, eps), each a 1-D array
            (rng.random(8000), rng.random(8000), 10.0 ** rng.uniform(-17, 0, 8000)),
            (np.zeros(400), rng.random(400), 10.0 ** rng.uniform(-17, 0, 400)),  # blocked
            (rng.random(2000), np.full(2000, 1e-9), 10.0 ** rng.uniform(-17, 0, 2000)),
            (rng.random(2000), np.ones(2000), 10.0 ** rng.uniform(-17, 0, 2000)),
            (0.5 + rng.uniform(-1e-4, 1e-4, 1000), np.ones(1000), rng.uniform(1e-3, 1.0, 1000)),
        ]
        near = (rng.uniform(1e-7, 1.0, 3000), rng.random(3000))  # the 1e-15 block threshold
        factor = stage2_pass_factor(*near)
        segments.append((*near, np.minimum(1e-15 / factor * rng.uniform(0.9, 1.1, 3000), 1.0)))
        for t in rng.random(15):  # p sweeps from p = 0: blocks that mix both routes
            ps = np.linspace(0.0, 1.0, 301)
            segments.append((np.full(ps.size, t), ps, np.full(ps.size, rng.uniform(1e-6, 1.0))))
        ts, ps, eps = (np.concatenate(axis) for axis in zip(*segments))
        overlapping = ps > 0.0
        expected = [np.empty(ts.size) for _ in range(4)]
        for mask in (~overlapping, overlapping):
            for start in range(0, ts.size, 2000):  # chunks bound the reference oracle's memory
                chunk = np.flatnonzero(mask[start:start + 2000]) + start
                if chunk.size:
                    for column, values in zip(expected, matrix_route_columns(
                            ts[chunk], ps[chunk], eps[chunk])):
                        column[chunk] = values
        got = protocol.stage_concurrences(ts.tolist(), ps.tolist(), eps.tolist())
        for got_column, want in zip(got, expected):
            assert [value.hex() for value in got_column] == [value.hex() for value in want.tolist()]
        blocked = np.isnan(expected[2])
        assert np.count_nonzero(overlapping) >= 20000 and ts.size > 40 * protocol.GRID_BLOCK
        assert blocked[8000:8400].all()
        threshold = blocked[ts.size - 15 * 301 - 3000:ts.size - 15 * 301]
        assert threshold.sum() > 100 and (~threshold).sum() > 100
        assert (~overlapping[ts.size - 15 * 301:]).sum() == 15

    @pytest.mark.parametrize("stage", [0, 1], ids=["stage-I", "stage-II"])
    @pytest.mark.parametrize("entry", [(0, 3), (0, 1), (1, 3)], ids=["HH-VV", "HH-HV", "HV-VV"])
    def test_a_state_that_is_not_an_x_state_raises(self, monkeypatch, stage, entry):
        non_x_reduction(monkeypatch, stage, entry)
        with pytest.raises(ValueError, match="^not an X state: "):
            protocol.stage_concurrences(np.linspace(0.1, 0.9, 5).tolist(), [0.5] * 5, [0.15] * 5)
        with pytest.raises(ValueError, match="^not an X state: "):
            protocol.stage_concurrences([0.4, 0.4], [0.0, 0.5], [0.15, 0.15])


EXACT_BOUND = 1e-15  # absolute; the largest error seen is 5.4e-16 (7.0e-16 over five more seeds)


def exact_reference_grid(rng):
    """Seeded (T, p, eps) points: random points, both concurrence zero crossings, T in
    {0, 1/2, 1}, p in {0, 1} and eps from 1e-12 to 1."""
    n = 600
    ts, ps = rng.random(n), rng.random(n)
    ps[::4], ps[1::4] = 0.0, 1.0
    eps = 10.0 ** rng.uniform(-12, 0, n)
    # the stage I zero (1 + 2p) T^2 + 2 (1 - p) T = 1 and the stage II zero T = p (1 - T)
    zero_ps = np.repeat(np.concatenate([[0.0, 1.0], rng.random(18)]), 2)
    zeros = np.concatenate([(zero_ps - 1.0 + np.sqrt(zero_ps * zero_ps + 2.0)) / (1.0 + 2.0 * zero_ps),
                            zero_ps / (1.0 + zero_ps)])
    offsets = rng.choice([-1.0, 1.0], zeros.size) * 10.0 ** rng.uniform(-9, -3, zeros.size)
    near = np.clip(zeros + offsets, 0.0, 1.0)
    corners = np.array(np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.3, 1.0], [1e-12, 1e-6, 0.15, 1.0]))
    corners = corners.reshape(3, -1)
    return (np.concatenate([ts, near, corners[0]]),
            np.concatenate([ps, np.tile(zero_ps, 2), corners[1]]),
            np.concatenate([eps, 10.0 ** rng.uniform(-12, 0, near.size), corners[2]]))


def exact_limit(transmittivity: float, overlap: float) -> Decimal:
    """The stage III filtration limit |T - p (1 - T)| / sqrt(1 - 2 (1 + p) T (1 - T)) of the
    float T and p to 60 digits, 0 at T = 1/2, p = 1, where both vanish: the root of its
    square, which is taken in exact rational arithmetic, so nothing cancels and no value
    exceeds 1."""
    t, p = Fraction(transmittivity), Fraction(overlap)
    numerator = t - p * (1 - t)
    if not numerator:
        return Decimal(0)
    square = numerator * numerator / (1 - 2 * (1 + p) * t * (1 - t))
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


class TestExactReference:
    """The sweep's four columns against a 60-digit evaluation of the model."""

    def test_columns_within_the_bound(self, rng):
        ts, ps, eps = exact_reference_grid(rng)
        columns = protocol.stage_concurrences(ts.tolist(), ps.tolist(), eps.tolist())
        exact = [exact_stage_concurrences(*point) for point in zip(ts.tolist(), ps.tolist(),
                                                                   eps.tolist())]
        for got, want in zip(columns[:3], zip(*exact)):
            # nan where the pass rate is at most 1e-15 (see below), which it is where it is 0
            assert all(np.isnan(g) for g, value in zip(got, want) if value.is_nan())
            errors = [abs(value - Decimal(g)) for g, value in zip(got, want) if not np.isnan(g)]
            assert float(max(errors)) <= EXACT_BOUND

    def test_the_limit_column_within_the_bound_and_rounded_at_ten_digits(self, rng):
        ts, ps, _ = exact_reference_grid(rng)
        # p = 1 near T = 1/2, where the verbatim radicand cancels, and p = 1 - 10^-k there
        near = 0.5 + np.concatenate([-np.geomspace(1e-16, 1e-2, 60), np.geomspace(1e-16, 1e-2, 60)])
        near_ts = np.concatenate([near, [0.5, 0.49999999999999994, 0.3, 0.7]])
        overlaps = np.concatenate([1.0 - 10.0 ** -np.arange(1.0, 17.0), [1.0]])
        grid_ts, grid_ps = (axis.ravel() for axis in np.meshgrid(near_ts, overlaps))
        ts, ps = np.concatenate([ts, grid_ts]).tolist(), np.concatenate([ps, grid_ps]).tolist()
        got = protocol.stage_concurrences(ts, ps, [0.15] * len(ts))[3]
        exact = [exact_limit(t, p) for t, p in zip(ts, ps)]
        assert max(exact) <= 1 and exact_limit(0.5, 1.0) == 0  # (1/2, 1) is in the grid
        assert max(got) <= 1.0
        assert float(max(abs(value - Decimal(g)) for g, value in zip(got, exact))) <= EXACT_BOUND
        with localcontext() as ctx:
            ctx.prec = 10
            wrong = [(t, p) for t, p, g, value in zip(ts, ps, got, exact)
                     if Decimal(cli.fmt(g)) != +value]
        assert not wrong

    def test_nan_exactly_where_the_float_pass_rate_is_at_most_1e_15(self, rng):
        ts, ps, eps = exact_reference_grid(rng)
        ts = np.concatenate([ts, np.geomspace(1e-9, 1e-3, 40)])  # pass rates about eps T^2
        ps = np.concatenate([ps, np.tile([0.0, 0.5], 20)])
        eps = np.concatenate([eps, np.tile([1e-12, 1e-6, 1e-3, 1.0], 10)])
        stage2 = np.empty((ts.size, 4, 4), dtype=complex)
        for route in (ps == 0.0, ps != 0.0):  # a grid takes one route: the closed form or the oracle
            stage2[route] = protocol.coupled_stages(CouplingConfig(ts[route], ps[route]))[1].state
        filters = protocol.eps_to_filter(eps, ts)
        kraus = np.array([kraus_matrix(a, b) for a, b in zip(filters.att_a.tolist(),
                                                               filters.att_b.tolist())])
        rates = np.trace(kraus @ stage2 @ kraus, axis1=-2, axis2=-1).real
        blocked = np.isnan(protocol.stage_concurrences(ts.tolist(), ps.tolist(), eps.tolist())[2])
        assert blocked.tolist() == (rates <= 1e-15).tolist()
        assert blocked.any() and not blocked.all()
        exact_rates = np.array([float(exact_stage_concurrences(*point)[3])
                                for point in zip(ts.tolist(), ps.tolist(), eps.tolist())])
        np.testing.assert_allclose(rates, exact_rates, rtol=1e-12, atol=0.0)


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
            p1, p2 = (stage.probability for stage in protocol.coupled_stages(cfg))
            assert abs(p1 - protocol.probability_closed_form(Stage.COUPLING, cfg)) < 1e-12
            assert abs(p2 - protocol.probability_closed_form(Stage.MEASUREMENT, cfg)) < 1e-12


def verbatim_closed_form(stage, t, p, eps=None):
    """The published concurrence of one point in Python float arithmetic, for bit comparisons."""
    r = 1.0 - t
    if stage is Stage.COUPLING:
        return max(0.0, (2.0 * t * t - r * r) / (2.0 * (r * r + t * t)))
    if stage is Stage.MEASUREMENT:
        if p == 0.0:
            return t * t / (t * t + r * r)
        return t * abs(t - p * (1.0 - t)) / (1.0 - (2.0 + p) * t * (1.0 - t))
    if eps is not None:
        return t / ((1.0 + eps * r * r / (2.0 * t * t)) * math.sqrt(t * t + r * r))
    if p == 0.0:
        return t / math.sqrt(t * t + r * r)
    numerator = abs(t - p * (1.0 - t))
    return 0.0 if numerator == 0.0 else numerator / math.sqrt(1.0 - 2.0 * (1.0 + p) * t * (1.0 - t))


def clamped_closed_form(stage, t, p):
    """`verbatim_closed_form`, but the filtration limit at p > 0 in its equal form
    |(2T - 1) + (1 - p)(1 - T)| / sqrt((2T - 1)^2 + 2 (1 - p) T (1 - T)), clamped at 1,
    with a numerator below 1e-3 rounded once from exact arithmetic."""
    if stage is not Stage.FILTRATION or p == 0.0:
        return verbatim_closed_form(stage, t, p)
    d = 2.0 * t - 1.0
    numerator = abs(d + (1.0 - p) * (1.0 - t))
    if numerator < 1e-3:
        numerator = abs(float(Fraction(t) - Fraction(p) * (1 - Fraction(t))))
    return 0.0 if numerator == 0.0 else min(
        numerator / math.sqrt(d * d + 2.0 * (1.0 - p) * t * (1.0 - t)), 1.0)


def closed_form_message(stage, t, p, eps=None):
    """The ValueError message of one point, or None if it has a value."""
    try:
        protocol.concurrence_closed_form(stage, CouplingConfig(t, p), eps)
    except ValueError as exc:
        return str(exc)
    return None


class TestClosedFormPoints:
    """Each point gives a float with the bits of the numpy grid form (`grid_closed_form`)
    and of Python's float arithmetic; a grid config raises."""

    @staticmethod
    def grid(rng, n=400):
        ts = np.concatenate([[0.0, 0.5, 1.0, 0.5, 0.0, 1.0], rng.random(n)])
        ps = rng.random(ts.size)
        ps[::3], ps[1::7] = 0.0, 1.0  # p = 0 and p > 0 points mixed, p = 1 among them
        ps[:6] = (0.0, 1.0, 1.0, 0.0, 1.0, 0.0)  # T = 1/2, p = 1 is the 0/0 point
        return ts, ps

    @staticmethod
    def values(stage, ts, ps, eps=None) -> list:
        """`concurrence_closed_form` at each point of the broadcast grid, each a float."""
        points = zip(*(axis.ravel().tolist() for axis in np.broadcast_arrays(ts, ps)))
        found = [protocol.concurrence_closed_form(stage, CouplingConfig(t, p), eps)
                 for t, p in points]
        assert all(type(value) is float for value in found)
        return found

    def assert_points(self, stage, ts, ps):
        points = zip(*(axis.tolist() for axis in np.broadcast_arrays(ts, ps)))
        for value, want, (t, p) in zip(self.values(stage, ts, ps),
                                       grid_closed_form(stage, ts, ps).tolist(), points):
            assert value.hex() == want.hex() == clamped_closed_form(stage, t, p).hex()

    def test_stage_II_and_the_filtration_limit(self, rng):
        ts, ps = self.grid(rng)
        for stage in (Stage.MEASUREMENT, Stage.FILTRATION):
            self.assert_points(stage, ts, ps)
            self.assert_points(stage, ts, 0.0)

    def test_stage_I_at_p0(self, rng):
        ts, _ = self.grid(rng)
        self.assert_points(Stage.COUPLING, ts, 0.0)

    def test_bits_equal_the_grid_form(self, rng, monkeypatch):
        # random points at p = 0, p = 1e-9, random p and p = 1; p = 1 within 1e-8 and within
        # 1e-4 of T = 1/2, where the verbatim limit cancels; T = 1/2 at p = 1, the 0/0 point
        segments = [(rng.random(4000), rng.choice([0.0, 1e-9, 1.0], 4000)),
                    (rng.random(4000), rng.random(4000)),
                    (rng.random(3000), np.full(3000, 1e-9)),
                    (0.5 + rng.uniform(-1e-8, 1e-8, 3000), np.ones(3000)),
                    (0.5 + rng.uniform(-1e-4, 1e-4, 3000), np.ones(3000)),
                    (10.0 ** rng.uniform(-320, 0, 3000), np.zeros(3000)),
                    (np.array([0.5, 0.5, 0.0, 1.0]), np.array([1.0, 0.0, 1.0, 1.0]))]
        ts, ps = (np.concatenate(axis) for axis in zip(*segments))
        assert ts.size >= 20000 and np.count_nonzero((ts == 0.5) & (ps == 1.0)) == 1
        for stage in (Stage.MEASUREMENT, Stage.FILTRATION):
            got = self.values(stage, ts, ps)
            assert [value.hex() for value in got] == [
                value.hex() for value in grid_closed_form(stage, ts, ps).tolist()]
        distinguishable = ts[ps == 0.0]
        got = self.values(Stage.COUPLING, distinguishable, 0.0)
        want = grid_closed_form(Stage.COUPLING, distinguishable, 0.0)
        assert [value.hex() for value in got] == [value.hex() for value in want.tolist()]
        # the finite-eps form down to T = 1e-320, where 2 T^2 rounds to 0: the value is 0
        positive = distinguishable[distinguishable > 0.0]
        eps = 10.0 ** rng.uniform(-12, 0, positive.size)
        got = [protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(t), e)
               for t, e in zip(positive.tolist(), eps.tolist())]
        want = grid_closed_form(Stage.FILTRATION, positive, 0.0, eps)
        assert [value.hex() for value in got] == [value.hex() for value in want.tolist()]
        assert positive.min() < 1e-319 and np.count_nonzero(np.array(got) == 0.0) > 100
        # each point's attenuations, as a sweep hands them to filter_x_state, against
        # eps_to_filter of the point and of the grid
        found = []
        filter_x_state = protocol.filter_x_state

        def recorded(*entries_and_attenuations):
            found.append(entries_and_attenuations[-2:])
            return filter_x_state(*entries_and_attenuations)

        monkeypatch.setattr(protocol, "filter_x_state", recorded)
        eps = 10.0 ** rng.uniform(-17, 0, ts.size)
        for route in (ps == 0.0, ps != 0.0):  # each route measures its points in order
            protocol.stage_concurrences(ts[route].tolist(), ps[route].tolist(), eps[route].tolist())
        ordered = np.concatenate([np.flatnonzero(ps == 0.0), np.flatnonzero(ps != 0.0)])
        grid = protocol.eps_to_filter(eps[ordered], ts[ordered])
        assert len(found) == ts.size
        for (att_a, att_b), a, b, t, e in zip(found, grid.att_a.tolist(), grid.att_b.tolist(),
                                               ts[ordered].tolist(), eps[ordered].tolist()):
            point = protocol.eps_to_filter(e, t)
            assert att_a.hex() == point.att_a.hex() == a.hex()
            assert att_b.hex() == point.att_b.hex() == b.hex()

    def test_finite_eps_at_points(self, rng):
        ts = np.concatenate([[1.0, 0.5], rng.random(200)]).tolist()
        eps = np.concatenate([[1e-12, 1.0], 10.0 ** rng.uniform(-12, 0, 200)]).tolist()
        for t, e in zip(ts, eps):
            got = protocol.concurrence_closed_form(Stage.FILTRATION, CouplingConfig(t), e)
            assert type(got) is float
            assert got.hex() == verbatim_closed_form(Stage.FILTRATION, t, 0.0, e).hex()
        # the ratio overflows, or 2 T^2 rounds to 0, where a float division would raise
        for t in (1e-150, 1e-160, 1e-162, 1e-200, 1e-320, 5e-324):
            assert protocol.concurrence_closed_form(
                Stage.FILTRATION, CouplingConfig(t), eps=0.5) == 0.0

    def test_the_limit_keeps_its_equal_form_bits_where_the_verbatim_radicand_is_positive(self):
        # clamped at 1 where the verbatim value rounds above it
        ts = np.concatenate([np.linspace(0.0, 1.0, 1001), 0.5 + np.geomspace(1e-16, 1e-2, 60),
                             0.5 - np.geomspace(1e-16, 1e-2, 60)])[:, None]
        ps = np.linspace(0.0, 1.0, 51)
        got = self.values(Stage.FILTRATION, ts, ps)
        points = zip(*(axis.ravel().tolist() for axis in np.broadcast_arrays(ts, ps)))
        kept = clamped = 0
        for value, (t, p) in zip(got, points):
            assert value.hex() == clamped_closed_form(Stage.FILTRATION, t, p).hex()
            if 1.0 - 2.0 * (1.0 + p) * t * (1.0 - t) > 0.0 or abs(t - p * (1.0 - t)) == 0.0:
                kept += 1
                clamped += verbatim_closed_form(Stage.FILTRATION, t, p) > 1.0
            else:  # the cancelled verbatim radicand of p = 1 near T = 1/2: |2T - 1| / |2T - 1|
                assert p == 1.0 and abs(t - 0.5) < 1e-7 and value == 1.0
        assert 0 < kept < len(got) and clamped > 0

    def test_the_limit_is_at_most_1(self):
        # at p = 1 the verbatim limit rounds above 1 at about 28,000 of these points
        ts = np.linspace(0.0, 1.0, 100001)
        got = self.values(Stage.FILTRATION, ts, 1.0)
        assert max(got) <= 1.0
        verbatim = [verbatim_closed_form(Stage.FILTRATION, t, 1.0) for t in ts.tolist()]
        assert np.count_nonzero(np.array(verbatim) > 1.0) > 10000
        for value, t in zip(got, ts.tolist()):
            assert value.hex() == clamped_closed_form(Stage.FILTRATION, t, 1.0).hex()

    def test_balanced_full_overlap_keeps_its_zero(self):
        values = self.values(Stage.FILTRATION, np.array([0.3, 0.5, 0.7]), 1.0)
        assert values[1] == 0.0 and np.all(np.isfinite(values))

    @pytest.mark.parametrize("stage, t, p, eps, message", [
        (Stage.COUPLING, 0.4, 0.5, None, "stage I has no closed-form concurrence for overlap > 0; "
                                         "use the simulation (see also disappearance_threshold)"),
        (Stage.COUPLING, 0.4, 0.0, 0.3, "eps does not apply to stage I"),
        (Stage.MEASUREMENT, 0.4, 0.0, 0.3, "eps does not apply to stage II"),
        (Stage.FILTRATION, 0.3, 0.85, 0.5, "no published finite-eps concurrence for overlap > 0"),
        (Stage.FILTRATION, 0.0, 0.0, 0.5, "the published finite-eps form is undefined at T = 0"),
        (Stage.FILTRATION, 0.4, 0.0, 0.0, "eps must lie in (0, 1], got 0.0"),
        (Stage.FILTRATION, 0.4, 0.0, 1.5, "eps must lie in (0, 1], got 1.5"),
        (Stage.FILTRATION, 0.4, 0.0, 2, "eps must lie in (0, 1], got 2"),
        (Stage.FILTRATION, 0.4, 0.0, float("nan"), "eps must lie in (0, 1], got nan"),
        (Stage.FILTRATION, 0.0, 0.0, -1e-300, "eps must lie in (0, 1], got -1e-300"),
    ])
    def test_point_messages(self, stage, t, p, eps, message):
        assert closed_form_message(stage, t, p, eps) == message

    @pytest.mark.parametrize("stage, eps", [(Stage.COUPLING, None), (Stage.MEASUREMENT, None),
                                            (Stage.FILTRATION, None), (Stage.FILTRATION, 0.15)])
    @pytest.mark.parametrize("ps", [0.0, np.array([0.0, 0.2, 0.0])], ids=["p-float", "p-grid"])
    def test_a_grid_config_raises(self, stage, eps, ps):
        cfg = CouplingConfig(np.array([0.3, 0.5, 0.7]), ps)
        with pytest.raises(ValueError, match="^the closed forms take a point config, not a grid"):
            protocol.concurrence_closed_form(stage, cfg, eps)


HOM_TS = [k / 206 for k in range(1, 206)]  # 205 interior transmittivities
HOM_PS = np.linspace(0.0, 1.0, 101).tolist()  # the overlaps of `hom --steps 101`


def exact_dip(t: float, p: float) -> tuple:
    """The coincidence and visibility of the floats T, R = fl(1 - T) and p, in exact
    rational arithmetic: T^2 + R^2 - 2pTR and 2pTR / (T^2 + R^2)."""
    t, r, p = Fraction(t), Fraction(1.0 - t), Fraction(p)
    base, mix = t * t + r * r, 2 * p * t * r
    return base - mix, mix / base


def ten_digits(value: Fraction) -> Decimal:
    """`value` rounded to 10 significant digits, half to even, from a 60-digit quotient."""
    with localcontext() as ctx:
        ctx.prec = 60
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        ctx.prec = 10
        return +quotient


class TestHomClosedForm:
    """`protocol.hom_closed_form` against exact arithmetic and against the oracle's
    `hom_coincidence`, the `hom` CSV it writes, and `overlap_from_coincidence`."""

    def test_correctly_rounded_at_ten_digits(self):
        edges = [1e-9, 1e-12, 1e-5, 0.99999, 1.0 - 1e-9, 1.0 - 1e-12, 1e-300]
        points = [(t, p) for t in HOM_TS + edges for p in HOM_PS]
        assert len(points) >= 20_000
        wrong = [(t, p) for t, p in points
                 for got, want in zip(protocol.hom_closed_form(t, p), exact_dip(t, p))
                 if Decimal(format(got, ".10g")) != ten_digits(want)]
        assert not wrong

    def test_the_oracle_gives_the_coincidence(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid(HOM_TS, HOM_PS))
        oracle = fock_oracle.hom_coincidence(ts, ps)  # the whole grid in one call
        worst = max(abs(found - protocol.hom_closed_form(t, p)[0])
                    for t, p, found in zip(ts.tolist(), ps.tolist(), oracle.tolist()))
        assert worst <= 1e-15

    def test_hom_writes_the_oracle_route_bytes(self, capsys):
        # every T of the form 0.ddd in [0.1, 0.9]: the values a benchmark session draws
        assert HOM_PS[0] == 0.0  # the visibility's base
        for t in (f"{k / 1000:.3f}" for k in range(100, 901)):
            assert cli.main(["hom", "--T", t, "--steps", "101", "--out", "-"]) == 0
            coincidences = fock_oracle.hom_coincidence(np.full(len(HOM_PS), float(t)),
                                                       np.array(HOM_PS)).tolist()
            base = coincidences[0]
            rows = [(p, c, (base - c) / base) for p, c in zip(HOM_PS, coincidences)]
            expected = "".join(",".join(format(v, ".10g") for v in row) + "\n" for row in rows)
            assert capsys.readouterr().out == "p,coincidence,visibility\n" + expected, t

    def test_overlap_inversion(self):
        assert abs(protocol.overlap_from_coincidence(0.075) - 0.85) < 1e-9
        coincidence = fock_oracle.hom_coincidence(0.3, 0.6)
        assert abs(protocol.overlap_from_coincidence(coincidence, 0.3) - 0.6) < 1e-9

    def test_inversion_errors(self):
        with pytest.raises(ValueError):
            protocol.overlap_from_coincidence(0.1, transmittivity=1.0)
        with pytest.raises(ValueError, match="physical range"):
            protocol.overlap_from_coincidence(0.9, transmittivity=0.5)

    @pytest.mark.parametrize("t", [0.0, -0.0, 1.0])
    def test_no_interference_at_t_0_or_1(self, t):
        message = "^no two-photon interference at T = 0 or T = 1$"
        with pytest.raises(ValueError, match=message):
            protocol.hom_closed_form(t, 0.5)
        with pytest.raises(ValueError, match=message):
            protocol.overlap_from_coincidence(0.5, t)

    @pytest.mark.parametrize("t", [1.5, -0.1, math.nan])
    def test_transmittivity_outside_the_unit_interval(self, t):
        message = rf"^transmittivity must lie in \[0, 1\], got {t}$"
        with pytest.raises(ValueError, match=message):
            protocol.hom_closed_form(t, 0.5)
        with pytest.raises(ValueError, match=message):
            protocol.overlap_from_coincidence(0.5, t)

    def test_overlap_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^overlap must lie in \[0, 1\], got 1.5$"):
            protocol.hom_closed_form(0.5, 1.5)


class TestThresholds:
    def test_separability_threshold_value(self):
        assert abs(protocol.separability_threshold() - (SQRT2 - 1.0)) < 1e-15

    def test_concurrence_crosses_at_threshold(self):
        threshold = SQRT2 - 1.0
        below = protocol.coupled_stages(CouplingConfig(threshold - 1e-4))[0]
        above = protocol.coupled_stages(CouplingConfig(threshold + 1e-4))[0]
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
        below = protocol.coupled_stages(CouplingConfig(0.5, 0.45))[0]
        above = protocol.coupled_stages(CouplingConfig(0.5, 0.55))[0]
        assert measures.concurrence(below.state) > 0.0
        assert measures.concurrence(above.state) == 0.0
        # and within 1e-6 on either side of the threshold away from T = 0.5
        for t in (0.45, 0.55):
            threshold = protocol.disappearance_threshold(t)
            below = protocol.coupled_stages(CouplingConfig(t, threshold - 1e-6))[0]
            above = protocol.coupled_stages(CouplingConfig(t, threshold + 1e-6))[0]
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
        outcome = protocol.coupled_stages(CouplingConfig(0.3, p_star), "H")[1]
        assert measures.concurrence(outcome.state) < 1e-9


class TestBranchBookkeeping:
    def test_stage1_branches_sum_to_one(self):
        for t in np.linspace(0.05, 0.95, 7):
            for p in (0.0, 0.5, 1.0):
                cfg = CouplingConfig(float(t), p)
                branches = fock_oracle.pattern_probabilities(fock_oracle.propagate(cfg))
                assert abs(sum(branches.values()) - 1.0) < 1e-12
