import builtins
import math

import numpy as np
import pytest
from conftest import counting, grid_concurrences, one_point, oracle_stages

from entloc import fock_oracle as fo
from entloc import measures, protocol, qmat, reference, states
from entloc.params import CouplingConfig, Stage, StageOutcome


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
        for key in ((0, 0, fo.N_MODES), (0, -1, 4)):
            with pytest.raises(ValueError, match="outside range"):
                fo.reduce_to_ab([{key: np.ones(1)}])


def point_of(state, i):
    """Point i of a grid state, on plain Python `complex` amplitudes."""
    return {key: complex(amps[i]) for key, amps in state.items()}


class TestBuildInput:
    # both temporal bins are keys at every p; a bin of zero weight holds exact zeros
    def test_distinguishable_limit(self):
        vec = fo.build_input(one_point(0.4, 0.0), fo.POL_H)
        assert {k[2] % 2 for k in vec} == {fo.TIME_SIGNAL, fo.TIME_ORTH}
        assert {k[2] % 2 for k, amps in vec.items() if amps.any()} == {fo.TIME_ORTH}
        assert abs(fo.norm_squared(vec)[0] - 1.0) < 1e-12

    def test_indistinguishable_limit(self):
        vec = fo.build_input(one_point(0.4, 1.0), fo.POL_V)
        assert {k[2] % 2 for k, amps in vec.items() if amps.any()} == {fo.TIME_SIGNAL}

    def test_partial_overlap_amplitudes(self):
        vec = fo.build_input(one_point(0.5, 0.85), fo.POL_H)
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
        # every reflected key stays, as an exact zero
        vec = fo.build_input(one_point(0.6, 0.3), fo.POL_H)
        out = fo.apply_beamsplitter(vec, np.array([1.0]))
        assert set(vec) < set(out)
        for key, amps in out.items():
            if key in vec:
                assert abs(amps[0] - vec[key][0]) < 1e-12
            else:
                assert amps.tolist() == [0j]

    def test_norm_preserved_on_random_states(self, rng):
        for t in (0.1, 0.35, 0.5, 0.82):
            vec = fo.random_states(rng, 1)
            out = fo.apply_beamsplitter(vec, np.array([t]))
            assert abs(fo.norm_squared(out)[0] - fo.norm_squared(vec)[0]) < 1e-12

    def test_rejects_amplitudes_off_the_grid(self, rng):
        # a state's amplitudes and the T take one grid; a point is a grid of one
        for state, ts in ((fo.random_states(rng, 2), np.array([0.5])),
                          (point_of(fo.random_states(rng, 1), 0), np.array([0.5]))):
            with pytest.raises(ValueError, match="need transmittivities of that shape"):
                fo.apply_beamsplitter(state, ts)

    def test_interference_suppresses_one_each(self):
        # two photons identical in every label: at T = 0.5 the
        # one-photon-per-arm amplitude cancels exactly
        m_b = fo.mode_index(fo.ARM_BOB, fo.POL_H, fo.TIME_SIGNAL)
        m_e = fo.mode_index(fo.ARM_MEAS, fo.POL_H, fo.TIME_SIGNAL)
        out = fo.apply_beamsplitter({(0, m_b, m_e): np.ones(1)}, np.array([0.5]))
        prob = fo.norm_squared(fo.postselect_one_each(out))
        assert prob.tolist() == [0.0]


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
    norm = np.sqrt(left_fold(amps))
    return {k: v / norm for k, v in amps.items()}


def reference_key_order(keys):
    """The output keys of input `keys` in the order `reference_apply_beamsplitter` reaches
    them at an interior T, where every output key of random amplitudes is nonzero."""
    rng = np.random.default_rng(0)
    return list(reference_apply_beamsplitter(
        {key: complex(*rng.standard_normal(2)) for key in keys}, 0.37))


def left_fold(state):
    total = 0.0
    for amp in state.values():
        total += abs(amp) ** 2
    return total


def reference_unitarity_records(grid):
    """Reference `beamsplitter_unitarity` records of `verify`: one random state per
    interior T, drawn, propagated and measured one point at a time."""
    rng = np.random.default_rng(20260810)
    records = []
    for t in np.linspace(0.0, 1.0, grid).tolist():
        if 1e-12 <= t <= 1.0 - 1e-12:
            vec = reference_random_state(rng)
            drift = abs(left_fold(reference_apply_beamsplitter(vec, t)) - left_fold(vec))
            records.append((drift, {"transmittivity": t}))
    return records


def reference_branch_probabilities(cfg):
    """Reference pattern totals: one propagation per environment input, accumulated in order."""
    totals = {"both_bob": 0.0, "both_meas": 0.0, "one_each": 0.0}
    for env_pol in (fo.POL_H, fo.POL_V):
        vec = fo.apply_beamsplitter(fo.build_input(cfg, env_pol), cfg.transmittivity)
        for (_, m1, m2), amp in vec.items():
            totals[("both_bob", "one_each", "both_meas")[m1 // 4 + m2 // 4]] += 0.5 * abs(amp) ** 2
    return totals


def reference_reduce_to_ab(branches, outcome=None):
    """Reference reduction: one contraction per stage, the MEAS-arm polarization traced out
    (`outcome` None, stage I) or projected on an "H" or "V" detection (stage II)."""
    shape = np.shape(next(iter(branches[0].values()), 0.0))
    rho = np.zeros(shape + (4, 4), dtype=complex)
    for branch in branches:
        psi = np.zeros((2, 4, 4) + shape, dtype=complex)
        for (a_pol, bob, meas), amp in branch.items():
            psi[a_pol, bob % 4, meas % 4] = amp
        psi = psi.reshape((2, 2, 2, 2, 2) + shape)
        if outcome is None:
            rho += np.einsum("abtcu...,ABtcu...->...abAB", psi, psi.conj()).reshape(rho.shape)
        else:
            sel = psi[:, :, :, fo.POL_H if outcome == "H" else fo.POL_V]
            rho += np.einsum("abtu...,ABtu...->...abAB", sel, sel.conj()).reshape(rho.shape)
    rho /= len(branches)
    probability = np.real(np.trace(rho, axis1=-2, axis2=-1))
    states = qmat.validate_density_matrix(rho / probability[..., None, None], dim=4, stack=True)
    return StageOutcome(state=states, probability=probability,
                        stage=Stage.COUPLING if outcome is None else Stage.MEASUREMENT)


class TestPropagationIsBitIdentical:
    """`apply_beamsplitter`, its matrix and `random_states` reproduce their references bit for
    bit, and every state of one input key set has one key order, whatever its T."""

    TS = [float(t) for t in np.linspace(0.0, 1.0, 11)]

    @staticmethod
    def assert_same_bits(out, expected):
        assert list(out) == list(expected)  # same keys in the same order
        for key, amp in out.items():
            assert isinstance(amp, complex)  # a plain complex or a numpy complex scalar
            assert np.asarray(amp).tobytes() == np.asarray(expected[key]).tobytes()

    @staticmethod
    def assert_point_bits(out, i, expected, order):
        """Point i of grid state `out` against a one-point reference that drops exact zeros:
        `out` has the keys `order`, the reference's amplitudes and exact zeros elsewhere."""
        assert list(out) == order
        for key, amps in out.items():
            assert np.asarray(amps[i]).tobytes() == np.asarray(expected.get(key, 0j)).tobytes()

    def test_matrix_equals_kron(self):
        for t in self.TS + [0.3, 0.37, 0.8]:
            assert fo.beamsplitter_matrix(t).tobytes() == kron_beamsplitter_matrix(t).tobytes()

    def test_random_states(self, rng):
        for t in self.TS:
            vec = fo.random_states(rng, 1)
            out = fo.apply_beamsplitter(vec, np.array([t]))
            self.assert_point_bits(out, 0, reference_apply_beamsplitter(point_of(vec, 0), t),
                                   reference_key_order(vec))

    def test_random_state_equals_one_number_draws(self):
        for seed in range(200):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                self.assert_same_bits(point_of(fo.random_states(rng, 1), 0),
                                      reference_random_state(reference_rng))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("count", [1, 2, 9, 99])
    def test_random_states_equal_one_state_at_a_time(self, count):
        for seed in range(20):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            grid = fo.random_states(rng, count)
            assert all(amps.shape == (count,) for amps in grid.values())
            for i in range(count):
                self.assert_same_bits(point_of(grid, i), reference_random_state(reference_rng))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("ts", [TS + [0.3, 0.37, 0.8], [0.0] * 3, [1.0] * 3,
                                    [0.0, 0.2, 0.5, 1.0]])
    def test_grid_of_random_states(self, rng, ts):
        # T = 0 and T = 1 route each mode to one output, and the keys they do not reach stay
        # as exact zeros: every point, alone or in any grid, has one key order, and so the
        # norm of one left fold in that order
        vecs = fo.random_states(rng, len(ts))
        out = fo.apply_beamsplitter(vecs, np.array(ts))
        norms = fo.norm_squared(out)
        order = reference_key_order(vecs)
        for i, t in enumerate(ts):
            expected = reference_apply_beamsplitter(point_of(vecs, i), t)
            self.assert_point_bits(out, i, expected, order)
            alone = fo.apply_beamsplitter({key: amps[i:i + 1] for key, amps in vecs.items()},
                                          np.array([t]))
            self.assert_point_bits(alone, 0, expected, order)
            fold = left_fold({key: expected.get(key, 0j) for key in order})
            assert norms[i].hex() == fo.norm_squared(alone)[0].hex() == fold.hex()

    @pytest.mark.parametrize("grid", [2, 3, 10, 50, 300])  # 300: more interior T than GRID_BLOCK
    def test_verify_unitarity_equals_one_point_at_a_time(self, monkeypatch, grid):
        summaries, sizes = {}, []

        def recording(name, tolerance, records):
            summaries[name] = records
            return summary(name, tolerance, records)

        def sized(state, transmittivity):
            sizes.append(np.size(transmittivity))
            return apply_beamsplitter(state, transmittivity)

        summary, apply_beamsplitter = reference._summary, fo.apply_beamsplitter
        monkeypatch.setattr(reference, "_summary", recording)
        monkeypatch.setattr(fo, "apply_beamsplitter", sized)
        check = next(check for check in reference.verify(grid, 1e-9)["checks"]
                     if check["name"] == "beamsplitter_unitarity")
        assert all(size <= protocol.GRID_BLOCK for size in sizes)  # a bounded memory
        expected = reference_unitarity_records(grid)
        found = summaries["beamsplitter_unitarity"]
        assert [where for _, where in found] == [where for _, where in expected]
        assert [value.hex() for value, _ in found] == [value.hex() for value, _ in expected]
        worst, worst_at = 0.0, {}
        for value, where in expected:
            if value > worst:
                worst, worst_at = value, where
        assert check["worst"].hex() == worst.hex() and check["worst_at"] == worst_at

    def test_plans_are_cached_read_only_and_bounded(self, rng):
        vec = fo.random_states(rng, 1)
        fo.apply_beamsplitter(vec, np.array([0.3]))
        plan = fo._scatter_plan(tuple(vec))
        assert fo._scatter_plan.cache_info().maxsize is not None
        for array in (plan[1],) + plan[2] + plan[3:]:
            assert not array.flags.writeable

    def test_pipeline_inputs(self):
        for t in self.TS:
            for p in (0.0, 0.5, 1.0):
                for env_pol in (fo.POL_H, fo.POL_V):
                    vec = fo.build_input(one_point(t, p), env_pol)
                    out = fo.apply_beamsplitter(vec, np.array([t]))
                    self.assert_point_bits(out, 0, reference_apply_beamsplitter(
                        point_of(vec, 0), t), reference_key_order(vec))


class TestNormSquared:
    def test_left_fold_whatever_the_builtin_sum(self, monkeypatch):
        # squares 1, 1e-16, 1e-16: a left fold rounds each partial sum back to 1, while a
        # correctly rounded sum, like the compensated builtin sum of Python 3.12, does not
        amps = {(0, 0, 4): complex(1.0, 0.0), (0, 1, 5): complex(1e-8, 0.0),
                (1, 2, 6): complex(0.0, -1e-8)}
        fold = 0.0
        for amp in amps.values():
            fold += abs(amp) ** 2
        assert math.fsum(abs(amp) ** 2 for amp in amps.values()).hex() != fold.hex()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", lambda values, start=0: start + math.fsum(values))
            values = fo.norm_squared({key: np.array([amp]) for key, amp in amps.items()})
        assert values.shape == (1,) and values.dtype == float
        assert values[0].hex() == fold.hex()

    def test_left_fold_on_a_grid(self, monkeypatch):
        # squares 1, 1e-16, 1e-16 at the first point, as in the one-point case, and the
        # same squares in the other order at the second, where the fold rounds up
        amps = {(0, 0, 4): np.array([1.0, 1e-8]), (0, 1, 5): np.array([1e-8, 1e-8]),
                (1, 2, 6): np.array([-1e-8j, 1.0])}
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", lambda values, start=0: start + math.fsum(values))
            values = fo.norm_squared(amps)
        assert values.shape == (2,) and values.dtype == float
        assert [value.hex() for value in values.tolist()] == [(1.0).hex(), (1.0 + 2e-16).hex()]

    def test_grid_of_one_is_a_left_fold_not_a_pairwise_sum(self):
        # squares 1, then eight of 1e-16: the left fold rounds each partial sum back to 1,
        # while numpy's pairwise sum, which `sum(axis=0)` runs along the keys of a grid of
        # one, first adds the small squares together
        values = [1.0] + [1e-8, -1e-8j, 1e-8j, -1e-8] * 2
        amps = {(0, lo, 4 + lo): np.array([amp]) for lo, amp in enumerate(values)}
        fold = left_fold(point_of(amps, 0))
        assert np.array([abs(amp) ** 2 for amp in values]).sum().hex() != fold.hex()
        assert fold == 1.0
        found = fo.norm_squared(amps)
        assert found.shape == (1,) and found.dtype == float
        assert found[0].hex() == fold.hex()

    def test_squares_round_as_python_complex_abs_and_pow(self):
        # one key on a grid of 20000 seeded points, so each point's fold is its one square:
        # abs(z) ** 2 (C pow) is not abs(z) * abs(z) at some of them, and where numpy
        # dispatches an AVX-512 complex abs kernel, np.abs(z) is not abs(z) at some
        zs = np.random.default_rng(20261021).standard_normal(40000).view(complex)
        expected = [left_fold({(0, 0, 4): z}) for z in zs.tolist()]
        assert any(abs(z) ** 2 != abs(z) * abs(z) for z in zs.tolist())
        found = fo.norm_squared({(0, 0, 4): zs})
        assert [value.hex() for value in found.tolist()] == [value.hex() for value in expected]

    def test_the_empty_state(self):
        found = fo.norm_squared({})
        assert found.shape == (0,) and found.dtype == float

    def test_grid_gives_each_point_its_one_point_call(self, rng):
        vecs = fo.random_states(rng, 5)
        out = fo.apply_beamsplitter(vecs, np.array([0.0, 0.2, 0.5, 0.9, 1.0]))
        for grid in (vecs, out, fo.postselect_one_each(out)):
            values = fo.norm_squared(grid)
            assert values.shape == (5,)
            for i, value in enumerate(values.tolist()):
                alone = fo.norm_squared({key: amps[i:i + 1] for key, amps in grid.items()})
                assert value.hex() == alone[0].hex() == left_fold(point_of(grid, i)).hex()


class TestPostselection:
    def test_full_transmission(self):
        vec = fo.apply_beamsplitter(fo.build_input(one_point(1.0), fo.POL_H), np.array([1.0]))
        prob = fo.norm_squared(fo.postselect_one_each(vec))
        assert abs(prob[0] - 1.0) < 1e-12

    def test_distinguishable_probability(self):
        total = 0.0
        for env_pol in (fo.POL_H, fo.POL_V):
            vec = fo.apply_beamsplitter(fo.build_input(one_point(0.4), env_pol), np.array([0.4]))
            prob = fo.norm_squared(fo.postselect_one_each(vec))
            total += 0.5 * prob[0]
        assert abs(total - 0.52) < 1e-12

    def test_branch_probabilities(self):
        # both-to-one-arm branches carry TR each at p = 0, TR (1 + p/2) in
        # general; everything sums to 1
        for t, p in ((0.4, 0.0), (0.3, 0.85), (0.5, 1.0), (0.75, 0.4)):
            branches = fo.pattern_probabilities(fo.propagate(one_point(t, p)))
            expected_bunched = t * (1 - t) * (1.0 + p / 2.0)
            assert abs(branches["both_bob"][0] - expected_bunched) < 1e-12
            assert abs(branches["both_meas"][0] - expected_bunched) < 1e-12
            assert abs(sum(branches.values())[0] - 1.0) < 1e-12


class TestReduceToAb:
    def test_matches_analytic_coupling_state(self):
        for t in (0.1, 0.4, 0.41421356, 0.7, 0.95):
            outcome = oracle_stages(t)[0]
            assert outcome.stage is Stage.COUPLING
            analytic = states.werner(CouplingConfig(t).werner_weight)
            assert measures.fidelity(outcome.state, analytic) >= 1.0 - 1e-9
            assert abs(outcome.probability - (t * t + (1 - t) ** 2)) < 1e-10

    def test_matches_analytic_measured_state(self):
        for t in (0.1, 0.4, 0.7):
            cfg = CouplingConfig(t, 0.0)
            outcome = oracle_stages(t, 0.0, "H")[1]
            assert outcome.stage is Stage.MEASUREMENT
            analytic = states.post_measurement_state(cfg.werner_weight, "H")
            assert measures.fidelity(outcome.state, analytic) >= 1.0 - 1e-9
            assert abs(outcome.probability - (t * t + (1 - t) ** 2) / 2) < 1e-10
            mirror = oracle_stages(t, 0.0, "V")[1]
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
        grid = CouplingConfig(np.array([0.0, 0.37, 0.5, 1.0]), np.array([0.3, 0.6, 1.0, 0.2]))
        configs = [one_point(t, p) for t, p in ((0.37, 0.6), (0.5, 1.0), (0.7, 0.2))] + [grid]

        def outcomes():  # stage I and the stage II outcome of H and of V, for each config
            return [stage for cfg in configs for outcome in "HV"
                    for stage in fo.reduce_to_ab(fo.propagate(cfg), outcome)]

        symmetric = outcomes()
        assert symmetric[-1].state.shape == (4, 4, 4)  # the grid's
        probe = fo.build_input(grid, fo.POL_H)
        before = fo.apply_beamsplitter(probe, grid.transmittivity)
        monkeypatch.setattr(fo, "beamsplitter_matrix", asymmetric_matrix)
        after = fo.apply_beamsplitter(probe, grid.transmittivity)  # the swap took effect
        assert any(np.any(after[key] != value) for key, value in before.items())
        for sym, asym in zip(symmetric, outcomes()):
            assert sym.state.shape == asym.state.shape
            assert np.max(np.abs(sym.state - asym.state)) < 1e-12
            assert np.max(np.abs(sym.probability - asym.probability)) < 1e-12

    def test_any_linear_coupling_gives_the_same_states(self, monkeypatch):
        # every U(2) arm block, e^{ia} [[sqrt(T) e^{ib}, sqrt(R) e^{ic}], [-sqrt(R) e^{-ic},
        # sqrt(T) e^{-ib}]] (x) I4: the one-photon-per-arm amplitudes carry u11 u22 = e^{2ia} T
        # and u12 u21 = -e^{2ia} R, the symmetric convention's T and -R up to a global phase
        rng = np.random.default_rng(20261019)
        ts, ps = rng.uniform(0.02, 0.98, 9), np.append(rng.uniform(0.01, 1.0, 6), [1.0] * 3)
        points = [one_point(t, p) for t, p in zip(ts.tolist(), ps.tolist())]

        def run():
            return ([stage for cfg in points + [CouplingConfig(ts, ps)] for outcome in "HV"
                     for stage in fo.reduce_to_ab(fo.propagate(cfg), outcome)],
                    [fo.hom_coincidence(t, p) for t, p in zip(ts.tolist(), ps.tolist())],
                    np.array(grid_concurrences(ts, ps, 0.15)))

        symmetric = run()
        probe = fo.propagate(points[0])
        for _ in range(20):
            a, b, c = rng.uniform(0.0, 2.0 * np.pi, 3)

            def unitary_matrix(transmittivity, a=a, b=b, c=c):
                t = np.asarray(transmittivity, dtype=float)  # a grid's T on a trailing axis
                t_amp, r_amp = np.sqrt(t), np.sqrt(1.0 - t)
                block = np.exp(1j * a) * np.array([
                    [t_amp * np.exp(1j * b), r_amp * np.exp(1j * c)],
                    [-r_amp * np.exp(-1j * c), t_amp * np.exp(-1j * b)]])
                return np.einsum("ij...,kl->ikjl...", block, np.eye(4)).reshape((8, 8) + t.shape)

            np.testing.assert_allclose(unitary_matrix(0.37) @ unitary_matrix(0.37).conj().T,
                                       np.eye(8), atol=1e-14)
            monkeypatch.setattr(fo, "beamsplitter_matrix", unitary_matrix)
            swapped = fo.propagate(points[0])
            assert any(np.any(after[key] != amps) for before, after in zip(probe, swapped)
                       for key, amps in before.items())  # the swap took effect
            outcomes_u, coincidences, concurrences = run()
            for sym, other in zip(symmetric[0], outcomes_u):
                assert np.max(np.abs(sym.state - other.state)) < 1e-14
                assert np.max(np.abs(sym.probability - other.probability)) < 1e-14
            np.testing.assert_allclose(coincidences, symmetric[1], rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(concurrences, symmetric[2], rtol=0.0, atol=1e-14)

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
                outcome = oracle_stages(t, p)[0]
                assert np.max(np.abs(outcome.state - expected)) <= 1e-12
                assert abs(outcome.probability - probability) <= 1e-12

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            fo.reduce_to_ab(fo.propagate(one_point(0.4, 0.5)), "D")
        with pytest.raises(ValueError, match="outcome"):
            protocol.coupled_stages(CouplingConfig(0.4, 0.5), "D")

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError, match="at least one branch"):
            fo.reduce_to_ab([])

    def test_overlap_continuity_at_zero(self):
        stages = [oracle_stages(0.4, p) for p in (0.0, 1e-9)]
        for base, near in zip(*stages):  # stage I, then stage II
            assert np.max(np.abs(base.state - near.state)) < 1e-8
            assert abs(base.probability - near.probability) < 1e-8

    def test_partially_indistinguishable_concurrence(self):
        outcome = oracle_stages(0.3, 0.85, "H")[1]
        assert abs(measures.concurrence(outcome.state) - 0.2204234122) < 1e-9
        assert abs(outcome.probability - 0.20075) < 1e-10

    def test_measured_concurrence_matches_closed_form(self):
        for t in (0.15, 0.3, 0.5, 0.65, 0.9):
            for p in (0.25, 0.5, 0.75, 1.0):
                outcome = oracle_stages(t, p, "H")[1]
                closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, CouplingConfig(t, p))
                assert abs(measures.concurrence(outcome.state) - closed) < 1e-8

    def test_coupled_concurrence_respects_disappearance_threshold(self):
        def coupled_concurrence(t, p):
            return measures.concurrence(oracle_stages(t, p)[0].state)

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
        branch = fo.postselect_one_each(fo.apply_beamsplitter({(0, m_b, m_e): np.ones(1)},
                                                              np.array([0.5])))
        assert fo.norm_squared(branch).tolist() == [0.0]
        with pytest.raises(ValueError, match="zero probability"):
            fo.reduce_to_ab([branch])

    @pytest.mark.parametrize("outcome", ["H", "V"])
    def test_reduces_the_postselected_branches(self, rng, outcome):
        # the photons that left on one arm together carry no stage I or II weight
        overlaps = [0.0, 1e-9, 0.3, 0.5, 1.0]
        grid = CouplingConfig(np.repeat(np.linspace(0.0, 1.0, 11), 5), np.tile(overlaps, 11))
        points = [one_point(t, p) for t, p in zip(rng.random(50), rng.random(50))]
        for cfg in [grid, one_point(0.5, 1.0), one_point(0.4)] + points:
            propagated = fo.propagate(cfg)
            branches = [fo.postselect_one_each(vec) for vec in propagated]
            assert sum(map(len, branches)) < sum(map(len, propagated))  # bunched keys to drop
            for found, expected in zip(fo.reduce_to_ab(propagated, outcome),
                                       fo.reduce_to_ab(branches, outcome)):
                assert found.stage is expected.stage
                assert found.state.tobytes() == expected.state.tobytes()
                assert (np.asarray(found.probability).tobytes()
                        == np.asarray(expected.probability).tobytes())

    def test_filtered_pipeline_consistency(self):
        # filtering the simulated measured state equals filtering the
        # analytic one (distinguishable case)
        for t in (0.2, 0.4, 0.8):
            filters = protocol.eps_to_filter(0.15, t)
            from_oracle = protocol.stage3_filter(oracle_stages(t, 0.0, "H")[1], filters)
            from_analytic = protocol.stage3_filter(
                protocol.coupled_stages(CouplingConfig(t, 0.0), "H")[1], filters)
            assert measures.fidelity(from_oracle.state, from_analytic.state) >= 1.0 - 1e-9
            assert abs(from_oracle.probability - from_analytic.probability) < 1e-10


class TestGrid:
    """A grid config gives each point the bits the point gets alone."""

    TS = (0.0, 0.37, 0.5, 1.0)
    PS = (0.0, 1e-9, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("outcome", ["H", "V"])
    def test_grid_equals_its_points(self, outcome):
        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, self.PS))
        stages = fo.reduce_to_ab(fo.propagate(CouplingConfig(ts, ps)), outcome)
        for grid in stages:
            assert grid.state.shape == (ts.size, 4, 4) and grid.probability.shape == (ts.size,)
            assert grid.probability.dtype == float
        for i, (t, p) in enumerate(zip(ts.tolist(), ps.tolist())):
            for grid, alone in zip(stages, fo.reduce_to_ab(fo.propagate(one_point(t, p)),
                                                           outcome)):
                assert grid.stage is alone.stage
                assert grid.state[i].tobytes() == alone.state.tobytes()
                assert grid.probability[i].hex() == alone.probability[0].hex()

    def test_grid_branch_probabilities_equal_its_points(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, self.PS))
        grid = fo.pattern_probabilities(fo.propagate(CouplingConfig(ts, ps)))
        for i, (t, p) in enumerate(zip(ts.tolist(), ps.tolist())):
            alone = fo.pattern_probabilities(fo.propagate(one_point(t, p)))
            assert list(grid) == list(alone)
            for key, value in alone.items():
                assert grid[key][i].hex() == value[0].hex()
            assert sum(grid.values())[i].hex() == sum(alone.values())[0].hex()

    def test_pattern_totals_equal_the_reference(self):
        # verify takes them and the stage states from one `propagate` call per block
        def same_bits(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        ts, ps = (axis.ravel() for axis in np.meshgrid(self.TS, self.PS))
        points = [one_point(t, p) for t, p in ((0.37, 0.5), (1.0, 0.0))]
        for cfg in [CouplingConfig(ts, ps)] + points:
            totals = fo.pattern_probabilities(fo.propagate(cfg))
            expected = reference_branch_probabilities(cfg)
            assert list(totals) == list(expected)
            for key, value in expected.items():
                assert same_bits(totals[key], value)
            assert same_bits(sum(totals.values()), sum(expected.values()))

    def test_pattern_totals_of_a_whole_block_equal_the_reference(self):
        # a block of verify's size, T = 0 and T = 1 shuffled among interior T
        rng = np.random.default_rng(20261021)
        ts = rng.permutation(np.concatenate([[0.0, 1.0] * 20, rng.random(216)]))
        cfg = CouplingConfig(ts, rng.random(ts.size))
        totals = fo.pattern_probabilities(fo.propagate(cfg))
        expected = reference_branch_probabilities(cfg)
        assert list(totals) == list(expected)
        for key, value in expected.items():
            assert totals[key].tobytes() == value.tobytes()

    def test_stacked_concurrence_of_grid_states_equals_its_points(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid(np.linspace(0.05, 0.95, 19), self.PS))
        propagated = fo.propagate(CouplingConfig(ts, ps))
        for outcome in ("H", "V"):
            for stage in fo.reduce_to_ab(propagated, outcome):
                stacked = measures.concurrence(stage.state)
                for value, state in zip(stacked.tolist(), stage.state):
                    assert value.hex() == measures.concurrence(state).hex()

    def test_grid_amplitudes_are_arrays_over_the_points(self):
        grid = CouplingConfig(np.array([0.2, 0.7]), np.array([0.5, 1.0]))
        for vec in fo.propagate(grid):
            assert vec and all(np.shape(amp) == (2,) for amp in vec.values())
        assert fo.beamsplitter_matrix(grid.transmittivity).shape == (fo.N_MODES, fo.N_MODES, 2)


class TestSingleReduction:
    """One contraction per branch gives the stage I and stage II outcomes of the
    two-contraction reference bit for bit, and every propagation is reduced once."""

    @staticmethod
    def assert_reference_bits(cfg, outcome):
        propagated = fo.propagate(cfg)
        branches = [fo.postselect_one_each(vec) for vec in propagated]
        found = fo.reduce_to_ab(propagated, outcome)
        expected = (reference_reduce_to_ab(branches), reference_reduce_to_ab(branches, outcome))
        for stage, reference_stage in zip(found, expected):
            assert stage.stage is reference_stage.stage
            assert stage.probability.shape == reference_stage.probability.shape
            assert stage.state.tobytes() == reference_stage.state.tobytes()
            assert (np.asarray(stage.probability).tobytes()
                    == np.asarray(reference_stage.probability).tobytes())

    @pytest.mark.parametrize("outcome", ["H", "V"])
    def test_grids_equal_the_two_contractions(self, rng, outcome):
        ts, ps = rng.random(1000), rng.random(1000)
        ps[::5], ps[1::7] = 1.0, 0.0  # p = 1 and p = 0 among random p
        line = np.linspace(0.0, 1.0, 257)
        # verify's oracle rows: the p = 0 and p = 1e-9 columns beside the closed-form ones
        interior = np.linspace(0.0, 1.0, 50)[1:-1]
        overlaps = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0)
        grids = [(ts, ps), (line, np.full(line.size, 0.5)), (line, np.full(line.size, 1.0)),
                 (np.repeat(interior, len(overlaps)), np.tile(overlaps, interior.size))]
        for ts, ps in grids:
            for start in range(0, ts.size, protocol.GRID_BLOCK):
                block = slice(start, start + protocol.GRID_BLOCK)
                self.assert_reference_bits(CouplingConfig(ts[block], ps[block]), outcome)

    @pytest.mark.parametrize("outcome", ["H", "V"])
    def test_points_equal_the_two_contractions(self, rng, outcome):
        edges = [(t, p) for t in (0.0, 0.5, 1.0) for p in (0.0, 1e-9, 1.0)]
        for t, p in edges + list(zip(rng.random(150).tolist(), rng.random(150).tolist())):
            self.assert_reference_bits(one_point(t, p), outcome)

    def test_both_stages_are_checked_in_one_pass(self, monkeypatch):
        propagated = fo.propagate(CouplingConfig(np.linspace(0.0, 1.0, 11), np.full(11, 0.5)))
        calls = counting(monkeypatch, {qmat: ["validate_density_matrix"]})
        fo.reduce_to_ab(propagated, "V")
        assert calls == {"validate_density_matrix": 1}

    @pytest.mark.parametrize("ts, ps, propagations", [
        (np.linspace(0.0, 1.0, 101), np.full(101, 0.5), 1),  # a p > 0 sweep block
        (np.full(101, 0.37), np.linspace(0.0, 1.0, 101), 1),  # a mixed-p sweep block
        (np.linspace(0.0, 1.0, 600), np.tile([0.0, 0.3, 1.0], 200), 3),  # three mixed-p blocks
    ])
    def test_a_sweep_reduces_each_propagation_once(self, monkeypatch, ts, ps, propagations):
        calls = counting(monkeypatch, {fo: ["propagate", "reduce_to_ab"]})
        protocol.stage_concurrences(ts.tolist(), ps.tolist(), [0.15] * ts.size)
        assert calls == {"propagate": propagations, "reduce_to_ab": propagations}

    @pytest.mark.parametrize("grid, blocks", [(10, 1), (50, 2)])
    def test_verify_reduces_each_propagation_once(self, monkeypatch, grid, blocks):
        calls = counting(monkeypatch, {fo: ["propagate", "reduce_to_ab"]})
        assert reference.verify(grid, 1e-9)["passed"]
        assert calls == {"propagate": blocks, "reduce_to_ab": blocks}


class TestStageStructure:
    """Measuring the surrounding photon splits stage I into its two stage II outcomes: they
    are equally likely, and stage I is their mixture."""

    @staticmethod
    def assert_mixture(stage1, h, v):
        assert np.array_equal(h.probability, v.probability)  # P_II(H) == P_II(V), exactly
        assert np.max(np.abs(h.probability + v.probability - stage1.probability)) <= 1e-15
        weight = [np.asarray(outcome.probability)[..., None, None] for outcome in (h, v, stage1)]
        mixture = (weight[0] * h.state + weight[1] * v.state) / weight[2]
        assert np.max(np.abs(mixture - stage1.state)) <= 1e-15

    def test_oracle_grids(self, rng):
        ts, ps = rng.random(5000), rng.random(5000)
        ts[:9], ps[:9] = np.repeat([0.0, 0.5, 1.0], 3), np.tile([0.0, 1e-9, 1.0], 3)
        for start in range(0, ts.size, protocol.GRID_BLOCK):
            block = slice(start, start + protocol.GRID_BLOCK)
            propagated = fo.propagate(CouplingConfig(ts[block], ps[block]))
            (stage1, h), (stage1_v, v) = (fo.reduce_to_ab(propagated, outcome) for outcome in "HV")
            assert stage1.state.tobytes() == stage1_v.state.tobytes()
            self.assert_mixture(stage1, h, v)

    def test_oracle_points(self, rng):
        for t, p in zip(rng.random(100).tolist(), rng.random(100).tolist()):
            (stage1, h), (_, v) = (oracle_stages(t, p, outcome) for outcome in "HV")
            self.assert_mixture(stage1, h, v)

    def test_analytic_states_at_p0(self, rng):
        ts = np.concatenate([[0.0, 0.5, 1.0], rng.random(1000)])
        (stage1, h), (_, v) = (protocol.coupled_stages(CouplingConfig(ts), outcome)
                               for outcome in "HV")
        self.assert_mixture(stage1, h, v)
        for t in ts[:100].tolist():
            (stage1, h), (_, v) = (protocol.coupled_stages(CouplingConfig(t), outcome)
                                   for outcome in "HV")
            self.assert_mixture(stage1, h, v)


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

    def test_grids_equal_their_points(self):
        ts, ps = (axis.ravel() for axis in np.meshgrid([0.0, 0.2, 0.5, 0.77, 1.0],
                                                       [0.0, 1e-9, 0.3, 1.0]))
        for overlap in (ps, 0.0, 0.3, 1.0):
            found = fo.hom_coincidence(ts, overlap)
            assert found.shape == ts.shape and found.dtype == float
            for t, p, value in zip(ts.tolist(), np.broadcast_to(overlap, ts.shape).tolist(),
                                   found.tolist()):
                assert value.hex() == fo.hom_coincidence(t, p).hex()

    def test_a_grid_of_overlaps_needs_a_grid_of_transmittivities(self):
        with pytest.raises(ValueError, match="a grid of overlaps needs a grid of transmittivities"):
            fo.hom_coincidence(0.5, np.array([0.2, 0.4]))
        with pytest.raises(ValueError, match="a grid of transmittivities of its shape"):
            fo.hom_coincidence(np.array([0.5, 0.3]), np.array([0.2, 0.4, 0.6]))

    def test_general_transmittivity_closed_form(self, rng):
        # coincidence = (T^2 + R^2) - 2 p T R
        for _ in range(20):
            t = float(rng.uniform(0.05, 0.95))
            p = float(rng.uniform(0.0, 1.0))
            expected = t * t + (1 - t) ** 2 - 2.0 * p * t * (1 - t)
            assert abs(fo.hom_coincidence(t, p) - expected) < 1e-12
