import numpy as np
import pytest

from entloc import fock_oracle as fo
from entloc import measures, protocol, states
from entloc.params import CouplingConfig, Stage


ALL_LABELS = [
    (arm, pol, time)
    for arm in (fo.ARM_BOB, fo.ARM_MEAS)
    for pol in (fo.POL_H, fo.POL_V)
    for time in (fo.TIME_SIGNAL, fo.TIME_ORTH)
]


class TestModes:
    def test_eight_distinct_labels(self):
        indices = [fo.mode_index(*label) for label in ALL_LABELS]
        assert sorted(indices) == list(range(fo.N_MODES))  # a bijection onto range(8)

    def test_index_round_trip(self):
        for arm, pol, time in ALL_LABELS:
            index = fo.mode_index(arm, pol, time)
            assert (index // 4, (index % 4) // 2, index % 2) == (arm, pol, time)

    def test_rejects_bad_index(self):
        # a mode index outside range(8) belongs to no arm and cannot be reduced
        with pytest.raises(ValueError):
            fo.reduce_to_ab([{(0, 0, fo.N_MODES): 1.0}])


class TestBuildInput:
    def test_distinguishable_limit(self):
        vec = fo.build_input(CouplingConfig(0.4, 0.0), fo.POL_H)
        times = {k[2] % 2 for k in vec}
        assert times == {fo.TIME_ORTH}
        assert abs(fo.norm_squared(vec) - 1.0) < 1e-12

    def test_indistinguishable_limit(self):
        vec = fo.build_input(CouplingConfig(0.4, 1.0), fo.POL_V)
        times = {k[2] % 2 for k in vec}
        assert times == {fo.TIME_SIGNAL}

    def test_partial_overlap_amplitudes(self):
        vec = fo.build_input(CouplingConfig(0.5, 0.85), fo.POL_H)
        m_b_v = fo.mode_index(fo.ARM_BOB, fo.POL_V, fo.TIME_SIGNAL)
        m_e_sig = fo.mode_index(fo.ARM_MEAS, fo.POL_H, fo.TIME_SIGNAL)
        m_e_orth = fo.mode_index(fo.ARM_MEAS, fo.POL_H, fo.TIME_ORTH)
        amp_sig = vec[(0, m_b_v, m_e_sig)]
        amp_orth = vec[(0, m_b_v, m_e_orth)]
        assert abs(amp_sig - np.sqrt(0.85) / np.sqrt(2.0)) < 1e-12
        assert abs(amp_orth - np.sqrt(0.15) / np.sqrt(2.0)) < 1e-12
        # the V-polarized idle-photon branch carries the -i phase
        m_b_h = fo.mode_index(fo.ARM_BOB, fo.POL_H, fo.TIME_SIGNAL)
        amp_v = vec[(1, m_b_h, m_e_sig)]
        assert abs(amp_v - (-1j) * np.sqrt(0.85) / np.sqrt(2.0)) < 1e-12

    def test_rejects_bad_polarization(self):
        with pytest.raises(ValueError):
            fo.build_input(CouplingConfig(0.4), 2)


class TestBeamsplitter:
    def test_matrix_is_unitary(self):
        for t in (0.0, 0.3, 0.5, 1.0):
            u = fo.beamsplitter_matrix(t)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-14)

    def test_matrix_mixes_arms_only(self):
        # reference: the 2x2 arm block placed on each (pol, time) pair by index
        for t in (0.0, 0.3, 1.0):
            u = fo.beamsplitter_matrix(t)
            block = u[np.ix_([0, 4], [0, 4])]
            expected = np.zeros((8, 8), dtype=complex)
            for pol in (fo.POL_H, fo.POL_V):
                for time in (fo.TIME_SIGNAL, fo.TIME_ORTH):
                    modes = [fo.mode_index(arm, pol, time) for arm in (fo.ARM_BOB, fo.ARM_MEAS)]
                    expected[np.ix_(modes, modes)] = block
            np.testing.assert_array_equal(u, expected)

    def test_full_transmission_is_identity_routing(self):
        vec = fo.build_input(CouplingConfig(0.6, 0.3), fo.POL_H)
        out = fo.apply_beamsplitter(vec, 1.0)
        assert set(out) == set(vec)
        for key, amp in vec.items():
            assert abs(out[key] - amp) < 1e-12

    def test_norm_preserved_on_random_states(self, rng):
        for t in (0.1, 0.35, 0.5, 0.82):
            vec = fo.random_state(rng)
            out = fo.apply_beamsplitter(vec, t)
            assert abs(fo.norm_squared(out) - fo.norm_squared(vec)) < 1e-12

    def test_interference_suppresses_one_each(self):
        # two photons identical in every label: at T = 0.5 the
        # one-photon-per-arm amplitude cancels exactly
        m_b = fo.mode_index(fo.ARM_BOB, fo.POL_H, fo.TIME_SIGNAL)
        m_e = fo.mode_index(fo.ARM_MEAS, fo.POL_H, fo.TIME_SIGNAL)
        out = fo.apply_beamsplitter({(0, m_b, m_e): 1.0}, 0.5)
        prob = fo.norm_squared(fo.postselect_one_each(out))
        assert prob == 0.0


def kron_beamsplitter_matrix(transmittivity):
    t_amp, r_amp = float(np.sqrt(transmittivity)), float(np.sqrt(1.0 - transmittivity))
    return np.kron(np.array([[t_amp, 1.0j * r_amp], [1.0j * r_amp, t_amp]]), np.eye(4))


def reference_apply_beamsplitter(state, transmittivity):
    """Reference propagation: np.kron matrix, two np.nonzero calls per amplitude."""
    u = kron_beamsplitter_matrix(transmittivity)
    monomials = {}
    for (a_pol, m1, m2), amp in state.items():
        coeff = amp / fo.SQRT2 if m1 == m2 else amp
        out1 = np.nonzero(u[:, m1])[0]
        out2 = np.nonzero(u[:, m2])[0]
        for i in out1:
            ci = coeff * u[i, m1]
            for j in out2:
                key = (a_pol, i, j) if i <= j else (a_pol, j, i)
                monomials[key] = monomials.get(key, 0.0) + ci * u[j, m2]
    return {
        key: (value * fo.SQRT2 if key[1] == key[2] else value)
        for key, value in monomials.items()
        if value != 0.0
    }


def reference_random_state(rng):
    """Reference draw: two one-number draws per key, real part first, keys in order."""
    amps = {}
    for a_pol in (fo.POL_H, fo.POL_V):
        for lo in range(fo.N_MODES):
            for hi in range(lo, fo.N_MODES):
                amps[(a_pol, lo, hi)] = complex(rng.standard_normal(), rng.standard_normal())
    norm = np.sqrt(fo.norm_squared(amps))
    return {k: v / norm for k, v in amps.items()}


class TestPropagationIsBitIdentical:
    """`apply_beamsplitter`, its matrix and `random_state` reproduce their references bit for bit."""

    TS = [float(t) for t in np.linspace(0.0, 1.0, 11)]

    @staticmethod
    def assert_same_bits(out, expected):
        assert list(out) == list(expected)  # same keys in the same order
        for key, amp in out.items():
            assert type(amp) is type(expected[key])
            assert np.asarray(amp).tobytes() == np.asarray(expected[key]).tobytes()

    def test_matrix_equals_kron(self):
        for t in self.TS + [0.3, 0.37, 0.8]:
            assert fo.beamsplitter_matrix(t).tobytes() == kron_beamsplitter_matrix(t).tobytes()

    def test_random_states(self, rng):
        for t in self.TS:
            vec = fo.random_state(rng)
            expected = reference_apply_beamsplitter(vec, t)
            self.assert_same_bits(fo.apply_beamsplitter(vec, t), expected)

    def test_random_state_equals_one_number_draws(self):
        for seed in range(200):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                self.assert_same_bits(fo.random_state(rng), reference_random_state(reference_rng))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_pipeline_inputs(self):
        for t in self.TS:
            for p in (0.0, 0.5, 1.0):
                for env_pol in (fo.POL_H, fo.POL_V):
                    vec = fo.build_input(CouplingConfig(t, p), env_pol)
                    self.assert_same_bits(fo.apply_beamsplitter(vec, t),
                                          reference_apply_beamsplitter(vec, t))


class TestPostselection:
    def test_full_transmission(self):
        vec = fo.apply_beamsplitter(fo.build_input(CouplingConfig(1.0), fo.POL_H), 1.0)
        prob = fo.norm_squared(fo.postselect_one_each(vec))
        assert abs(prob - 1.0) < 1e-12

    def test_distinguishable_probability(self):
        total = 0.0
        for env_pol in (fo.POL_H, fo.POL_V):
            vec = fo.apply_beamsplitter(fo.build_input(CouplingConfig(0.4), env_pol), 0.4)
            prob = fo.norm_squared(fo.postselect_one_each(vec))
            total += 0.5 * prob
        assert abs(total - 0.52) < 1e-12

    def test_branch_probabilities(self):
        # both-to-one-arm branches carry TR each at p = 0, TR (1 + p/2) in
        # general; everything sums to 1
        for t, p in ((0.4, 0.0), (0.3, 0.85), (0.5, 1.0), (0.75, 0.4)):
            branches = fo.branch_probabilities(CouplingConfig(t, p))
            expected_bunched = t * (1 - t) * (1.0 + p / 2.0)
            assert abs(branches["both_bob"] - expected_bunched) < 1e-12
            assert abs(branches["both_meas"] - expected_bunched) < 1e-12
            assert abs(sum(branches.values()) - 1.0) < 1e-12


class TestReduceToAb:
    def test_matches_analytic_coupling_state(self):
        for t in (0.1, 0.4, 0.41421356, 0.7, 0.95):
            cfg = CouplingConfig(t, 0.0)
            outcome = fo.simulate(cfg, None)
            assert outcome.stage is Stage.COUPLING
            analytic = states.werner(cfg.werner_weight)
            assert measures.fidelity(outcome.state, analytic) >= 1.0 - 1e-9
            assert abs(outcome.probability - (t * t + (1 - t) ** 2)) < 1e-10

    def test_matches_analytic_measured_state(self):
        for t in (0.1, 0.4, 0.7):
            cfg = CouplingConfig(t, 0.0)
            outcome = fo.simulate(cfg, "H")
            assert outcome.stage is Stage.MEASUREMENT
            analytic = states.post_measurement_state(cfg.werner_weight, "H")
            assert measures.fidelity(outcome.state, analytic) >= 1.0 - 1e-9
            assert abs(outcome.probability - (t * t + (1 - t) ** 2) / 2) < 1e-10
            mirror = fo.simulate(cfg, "V")
            analytic_v = states.post_measurement_state(cfg.werner_weight, "V")
            assert measures.fidelity(mirror.state, analytic_v) >= 1.0 - 1e-9

    def test_phase_convention_is_unobservable(self, monkeypatch):
        def asymmetric_matrix(transmittivity):
            # real entries: sqrt(R) off-diagonal, -sqrt(T) on the MEAS output; a grid of T
            # gives its matrices along a trailing axis, as beamsplitter_matrix does
            if np.ndim(transmittivity):
                return np.stack([asymmetric_matrix(t) for t in transmittivity], axis=-1)
            t_amp, r_amp = float(np.sqrt(transmittivity)), float(np.sqrt(1.0 - transmittivity))
            return np.kron(np.array([[t_amp, r_amp], [r_amp, -t_amp]], dtype=complex), np.eye(4))

        for t in (0.0, 0.37, 0.5, 1.0):
            u = asymmetric_matrix(t)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-14)
        cases = [
            (CouplingConfig(t, p), outcome)
            for t, p in ((0.37, 0.6), (0.5, 1.0), (0.7, 0.2))
            for outcome in (None, "H", "V")
        ]
        symmetric = [fo.simulate(cfg, outcome) for cfg, outcome in cases]
        grid = CouplingConfig(np.array([0.0, 0.37, 0.5, 1.0]), np.array([0.3, 0.6, 1.0, 0.2]))
        symmetric_grid = [fo.simulate(grid, outcome) for outcome in (None, "H", "V")]
        probe = fo.build_input(CouplingConfig(0.37, 0.6), fo.POL_H)
        before = fo.apply_beamsplitter(probe, 0.37)
        grid_probe = fo.build_input(grid, fo.POL_H)
        grid_before = fo.apply_beamsplitter(grid_probe, grid.transmittivity)
        monkeypatch.setattr(fo, "beamsplitter_matrix", asymmetric_matrix)
        assert fo.apply_beamsplitter(probe, 0.37) != before  # the swap took effect
        grid_after = fo.apply_beamsplitter(grid_probe, grid.transmittivity)  # for a grid too
        assert any(np.any(grid_after[key] != value) for key, value in grid_before.items())
        for (cfg, outcome), sym in zip(cases, symmetric):
            asym = fo.simulate(cfg, outcome)
            assert np.max(np.abs(sym.state - asym.state)) < 1e-12
            assert abs(sym.probability - asym.probability) < 1e-12
        for outcome, sym_points in zip((None, "H", "V"), symmetric_grid):
            for sym, asym in zip(sym_points, fo.simulate(grid, outcome)):
                assert np.max(np.abs(sym.state - asym.state)) < 1e-12
                assert abs(sym.probability - asym.probability) < 1e-12

    def test_coupled_state_is_werner_at_partial_overlap(self):
        # a second route for stage I at p > 0: q |psi-><psi-| + (1 - q) I/4 with
        # q = T (T - p R) / (1 - (2 + p) T R), kept with probability 1 - (2 + p) T R;
        # built here because states.werner rejects q < 0
        for t in np.linspace(0.05, 0.95, 19):
            t = float(t)
            for p in (0.25, 0.5, 0.75, 1.0):
                probability = 1.0 - (2.0 + p) * t * (1.0 - t)
                q = t * (t - p * (1.0 - t)) / probability
                expected = q * states.singlet_density() + (1.0 - q) * np.eye(4) / 4.0
                outcome = fo.simulate(CouplingConfig(t, p))
                assert np.max(np.abs(outcome.state - expected)) <= 1e-12
                assert abs(outcome.probability - probability) <= 1e-12

    def test_rejects_unknown_outcome(self):
        cfg = CouplingConfig(0.4, 0.5)
        with pytest.raises(ValueError, match="outcome"):
            fo.simulate(cfg, "D")
        branch = fo.postselect_one_each(fo.apply_beamsplitter(fo.build_input(cfg, fo.POL_H), 0.4))
        with pytest.raises(ValueError, match="outcome"):
            fo.reduce_to_ab([branch], "D")

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError, match="at least one branch"):
            fo.reduce_to_ab([])

    def test_overlap_continuity_at_zero(self):
        for outcome in (None, "H"):
            base = fo.simulate(CouplingConfig(0.4, 0.0), outcome)
            near = fo.simulate(CouplingConfig(0.4, 1e-9), outcome)
            assert np.max(np.abs(base.state - near.state)) < 1e-8
            assert abs(base.probability - near.probability) < 1e-8

    def test_partially_indistinguishable_concurrence(self):
        outcome = fo.simulate(CouplingConfig(0.3, 0.85), "H")
        assert abs(measures.concurrence(outcome.state) - 0.2204234122) < 1e-9
        assert abs(outcome.probability - 0.20075) < 1e-10

    def test_measured_concurrence_matches_closed_form(self):
        for t in (0.15, 0.3, 0.5, 0.65, 0.9):
            for p in (0.25, 0.5, 0.75, 1.0):
                cfg = CouplingConfig(t, p)
                outcome = fo.simulate(cfg, "H")
                closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)
                assert abs(measures.concurrence(outcome.state) - closed) < 1e-8

    def test_coupled_concurrence_respects_disappearance_threshold(self):
        def coupled_concurrence(t, p):
            return measures.concurrence(fo.simulate(CouplingConfig(t, p), None).state)

        for t in (0.45, 0.5, 0.55):
            threshold = protocol.disappearance_threshold(t)
            assert isinstance(threshold, float)
            assert coupled_concurrence(t, threshold - 0.02) > 0.0
            assert coupled_concurrence(t, threshold + 0.02) == 0.0
        assert protocol.disappearance_threshold(0.3) == protocol.ALWAYS_SEPARABLE
        for p in (0.0, 0.5, 1.0):
            assert coupled_concurrence(0.3, p) == 0.0
        assert protocol.disappearance_threshold(0.7) == protocol.NEVER_DISAPPEARS
        for p in (0.0, 0.5, 1.0):
            assert coupled_concurrence(0.7, p) > 0.0

    def test_zero_probability_branch_raises(self):
        # perfectly bunching photons leave an empty post-selected branch
        m_b = fo.mode_index(fo.ARM_BOB, fo.POL_H, fo.TIME_SIGNAL)
        m_e = fo.mode_index(fo.ARM_MEAS, fo.POL_H, fo.TIME_SIGNAL)
        branch = fo.postselect_one_each(fo.apply_beamsplitter({(0, m_b, m_e): 1.0}, 0.5))
        assert fo.norm_squared(branch) == 0.0
        with pytest.raises(ValueError, match="zero probability"):
            fo.reduce_to_ab([branch])

    def test_rejects_unpostselected_branch(self):
        vec = fo.build_input(CouplingConfig(0.4), fo.POL_H)
        coupled = fo.apply_beamsplitter(vec, 0.4)
        with pytest.raises(ValueError, match="post-selected"):
            fo.reduce_to_ab([coupled])

    def test_filtered_pipeline_consistency(self):
        # filtering the simulated measured state equals filtering the
        # analytic one (distinguishable case)
        for t in (0.2, 0.4, 0.8):
            cfg = CouplingConfig(t, 0.0)
            filters = protocol.eps_to_filter(0.15, t)
            from_oracle = protocol.stage3_filter(fo.simulate(cfg, "H"), filters)
            from_analytic = protocol.stage3_filter(protocol.stage2_measure(cfg, "H"), filters)
            assert measures.fidelity(from_oracle.state, from_analytic.state) >= 1.0 - 1e-9
            assert abs(from_oracle.probability - from_analytic.probability) < 1e-10


class TestGrid:
    """A grid config gives each point the bits the point gets alone."""

    TS = (0.0, 0.37, 0.5, 1.0)
    PS = (0.0, 1e-9, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("outcome", [None, "H", "V"])
    def test_grid_equals_its_points(self, outcome):
        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, self.PS))
        points = fo.reduce_to_ab(fo.coupled_branches(CouplingConfig(ts, ps)), outcome)
        assert len(points) == ts.size
        for t, p, point in zip(ts.tolist(), ps.tolist(), points):
            alone = fo.reduce_to_ab(fo.coupled_branches(CouplingConfig(t, p)), outcome)
            assert point.stage is alone.stage
            assert type(point.probability) is float
            assert point.state.tobytes() == alone.state.tobytes()
            assert point.probability.hex() == alone.probability.hex()

    def test_grid_branch_probabilities_equal_its_points(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, self.PS))
        grid = fo.branch_probabilities(CouplingConfig(ts, ps))
        for i, (t, p) in enumerate(zip(ts.tolist(), ps.tolist())):
            alone = fo.branch_probabilities(CouplingConfig(t, p))
            assert list(grid) == list(alone)
            for key, value in alone.items():
                assert float(grid[key][i]).hex() == float(value).hex()
            assert float(sum(grid.values())[i]).hex() == float(sum(alone.values())).hex()

    def test_stacked_concurrence_of_grid_states_equals_its_points(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid(np.linspace(0.05, 0.95, 19), self.PS))
        branches = fo.coupled_branches(CouplingConfig(ts, ps))
        for outcome in (None, "H", "V"):
            states = [point.state for point in fo.reduce_to_ab(branches, outcome)]
            stacked = measures.concurrence(np.array(states))
            for value, state in zip(stacked.tolist(), states):
                assert value.hex() == measures.concurrence(state).hex()

    def test_grid_amplitudes_are_arrays_over_the_points(self):
        grid = CouplingConfig(np.array([0.2, 0.7]), np.array([0.5, 1.0]))
        for branch in fo.coupled_branches(grid):
            assert branch and all(np.shape(amp) == (2,) for amp in branch.values())
        assert fo.beamsplitter_matrix(grid.transmittivity).shape == (fo.N_MODES, fo.N_MODES, 2)


class TestHom:
    def test_perfect_dip(self):
        assert fo.hom_coincidence(0.5, 1.0) == 0.0

    def test_distinguishable_baseline(self):
        assert abs(fo.hom_coincidence(0.5, 0.0) - 0.5) < 1e-12

    def test_partial_overlap(self):
        assert abs(fo.hom_coincidence(0.5, 0.85) - 0.075) < 1e-12

    def test_no_mixing_at_full_transmission(self):
        for p in (0.0, 0.5, 1.0):
            assert abs(fo.hom_coincidence(1.0, p) - 1.0) < 1e-12

    def test_general_transmittivity_closed_form(self, rng):
        # coincidence = (T^2 + R^2) - 2 p T R
        for _ in range(20):
            t = float(rng.uniform(0.05, 0.95))
            p = float(rng.uniform(0.0, 1.0))
            expected = t * t + (1 - t) ** 2 - 2.0 * p * t * (1 - t)
            assert abs(fo.hom_coincidence(t, p) - expected) < 1e-12

    def test_overlap_inversion(self):
        assert abs(fo.overlap_from_coincidence(0.075) - 0.85) < 1e-9
        coincidence = fo.hom_coincidence(0.3, 0.6)
        assert abs(fo.overlap_from_coincidence(coincidence, 0.3) - 0.6) < 1e-9

    def test_inversion_errors(self):
        with pytest.raises(ValueError):
            fo.overlap_from_coincidence(0.1, transmittivity=1.0)
        with pytest.raises(ValueError, match="physical range"):
            fo.overlap_from_coincidence(0.9, transmittivity=0.5)
