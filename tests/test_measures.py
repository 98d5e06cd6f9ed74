import math
import re

import numpy as np
import pytest
from conftest import (pipeline_states, random_density, random_pure_density, random_unitary, tensor,
                      x_concurrence)

from entloc import measures, protocol, states
from entloc.params import CouplingConfig, Stage


def random_x_state(rng):
    """Random two-qubit state supported on the diagonal and anti-diagonal."""
    diag = rng.random(4) + 0.05
    diag /= diag.sum()
    z14 = rng.random() * np.sqrt(diag[0] * diag[3]) * np.exp(2j * np.pi * rng.random())
    z23 = rng.random() * np.sqrt(diag[1] * diag[2]) * np.exp(2j * np.pi * rng.random())
    rho = np.diag(diag).astype(complex)
    rho[0, 3], rho[3, 0] = z14, np.conj(z14)
    rho[1, 2], rho[2, 1] = z23, np.conj(z23)
    return rho


def x_state_concurrence(rho):
    """Closed form for X states: independent of the Wootters evaluation."""
    a = abs(rho[0, 3]) - np.sqrt(np.real(rho[1, 1] * rho[2, 2]))
    b = abs(rho[1, 2]) - np.sqrt(np.real(rho[0, 0] * rho[3, 3]))
    return 2.0 * max(0.0, a, b)


class TestConcurrence:
    def test_singlet_is_maximal(self):
        assert abs(measures.concurrence(states.singlet_density()) - 1.0) < 1e-12

    def test_maximally_mixed_is_zero(self):
        assert measures.concurrence(np.eye(4) / 4) == 0.0

    def test_werner_values(self):
        assert abs(measures.concurrence(states.werner(0.8)) - 0.7) < 1e-12
        assert measures.concurrence(states.werner(0.16 / 0.52)) == 0.0

    def test_x_state_closed_form(self, rng):
        for _ in range(100):
            rho = random_x_state(rng)
            expected = x_state_concurrence(rho)
            assert abs(measures.concurrence(rho) - expected) < 1e-12

    def test_local_unitary_invariance(self, rng):
        for _ in range(50):
            rho = random_density(rng, 4)
            u = tensor(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(measures.concurrence(rotated) - measures.concurrence(rho)) < 1e-9

    def test_product_states_are_separable(self, rng):
        for _ in range(50):
            rho = tensor(random_density(rng, 2), random_density(rng, 2))
            assert measures.concurrence(rho) < 1e-9

    def test_range(self, rng):
        for _ in range(50):
            value = measures.concurrence(random_density(rng, 4))
            assert 0.0 <= value <= 1.0 + 1e-10

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            measures.concurrence(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            measures.concurrence(np.eye(2) / 2)  # wrong dimension


class TestConcurrenceOfAStack:
    def test_equals_each_matrix_bit_for_bit(self, rng):
        mats = [random_density(rng, 4) for _ in range(50)] + pipeline_states()
        values = measures.concurrence(np.array(mats))
        assert values.shape == (len(mats),)
        for rho, value in zip(mats, values):
            single = measures.concurrence(rho)
            assert type(single) is float
            assert float(value).hex() == single.hex()

    def test_keeps_leading_axes(self, rng):
        mats = np.array([random_density(rng, 4) for _ in range(6)])
        values = measures.concurrence(mats.reshape(3, 2, 4, 4))
        assert values.tobytes() == measures.concurrence(mats).reshape(3, 2).tobytes()

    def test_raises_the_first_invalid_matrix_message(self):
        with pytest.raises(ValueError) as expected:
            measures.concurrence(np.eye(4))
        with pytest.raises(ValueError) as raised:
            measures.concurrence(np.array([states.werner(0.6), np.eye(4), np.eye(4) / 2]))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("lams, expected", [
        ([-0.0, 0.0, 0.0, 0.0], 0.0),  # -0.0 clamps to +0.0, like max(0.0, -0.0)
        ([np.nan, 0.0, 0.0, 0.0], 0.0),  # like max(0.0, nan)
        ([0.5, 0.25, 0.25, 0.25], 0.0),
        ([0.75, 0.25, 0.0, 0.0], 0.5),
    ])
    def test_clamp_is_max_of_zero_and_value(self, monkeypatch, lams, expected):
        def fake_svd(mats, compute_uv):
            return np.broadcast_to(np.array(lams), mats.shape[:-1]).copy()

        monkeypatch.setattr(np.linalg, "svd", fake_svd)
        single = measures.concurrence(np.eye(4) / 4)
        stacked = measures.concurrence(np.array([np.eye(4) / 4] * 2))
        for value in (single, *stacked):
            assert value == expected and math.copysign(1.0, value) == 1.0


X_ROUTE_BOUND = 4e-15  # X route against Wootters on pipeline states; the largest seen is 1.0e-15


def stage_states(overlap: float, outcome: str) -> list:
    """Stacks of stage I, II and (where the filters pass) III states at 200 T in (0, 1]:
    closed-form states at p = 0, oracle states at p > 0."""
    ts = np.linspace(0.0, 1.0, 201)[1:]
    stage1, stage2 = (found.state for found in
                      protocol.coupled_stages(CouplingConfig(ts, np.full(ts.size, overlap)), outcome))
    found = [stage1, stage2]
    for eps in (1e-6, 0.15, 1.0):
        passed = ts > (1e-4 if eps == 1e-6 else 0.0)  # pass rates about eps T^2 stay above 1e-15
        found.append(protocol.filter_states(stage2[passed],
                                            protocol.eps_to_filter(eps, ts[passed]))[0])
    return found


class TestXConcurrence:
    @pytest.mark.parametrize("outcome", ["H", "V"])
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.85, 1.0])
    def test_equals_the_wootters_concurrence_on_pipeline_states(self, overlap, outcome):
        for stack in stage_states(overlap, outcome):
            x_route, wootters = x_concurrence(stack), measures.concurrence(stack)
            assert x_route.shape == (len(stack),)
            assert np.max(abs(x_route - wootters)) <= X_ROUTE_BOUND

    @pytest.mark.parametrize("overlap", [0.0, 0.1, 0.3, 0.5, 0.85, 1.0])
    def test_equals_the_published_closed_forms(self, overlap):
        # stage I has a closed form at p = 0 only; at p > 0 the oracle needs 0 < T < 1
        ts = np.linspace(0.0, 1.0, 1001) if overlap == 0.0 else np.linspace(0.0, 1.0, 1003)[1:-1]
        cfg = CouplingConfig(ts, np.full_like(ts, overlap))
        stage1, stage2 = (outcome.state for outcome in protocol.coupled_stages(cfg))
        found = {Stage.MEASUREMENT: stage2}
        if overlap == 0.0:
            found[Stage.COUPLING] = stage1
        for stage, stack in found.items():
            closed_form = [protocol.concurrence_closed_form(stage, CouplingConfig(t, overlap))
                           for t in ts.tolist()]
            assert np.max(abs(x_concurrence(stack) - closed_form)) <= 2e-15

    def test_equals_its_closed_form_on_random_x_states(self, rng):
        for _ in range(100):
            rho = random_x_state(rng)
            assert abs(x_concurrence(rho) - x_state_concurrence(rho)) < 1e-15

    def test_one_matrix_gives_a_float(self):
        for rho in (states.singlet_density(), np.eye(4) / 4, states.werner(0.8)):
            value = x_concurrence(rho)
            assert type(value) is float and value == x_concurrence(np.array([rho]))[0]
        assert abs(x_concurrence(states.singlet_density()) - 1.0) < 1e-15

    def test_keeps_leading_axes(self, rng):
        mats = np.array([random_x_state(rng) for _ in range(6)])
        values = x_concurrence(mats.reshape(3, 2, 4, 4))
        assert values.tobytes() == x_concurrence(mats).reshape(3, 2).tobytes()

    @pytest.mark.parametrize("row, col", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_a_non_x_matrix_raises(self, row, col):
        rho = (1.0 - 1e-3) * states.werner(0.6) + 1e-3 * np.eye(4) / 4
        rho[row, col] = rho[col, row] = 1e-3  # still a density matrix
        with pytest.raises(ValueError, match="^not an X state"):
            x_concurrence(rho)
        with pytest.raises(ValueError, match="^not an X state"):
            x_concurrence(np.array([states.werner(0.6), rho]))

    @pytest.mark.parametrize("rho", [
        np.eye(4),  # trace 4
        np.eye(2) / 2,  # wrong dimension
        np.diag([0.6, 0.6, -0.1, -0.1]),  # negative eigenvalue
        np.array([[0.5, 0, 0, 0.1], [0, 0, 0, 0], [0, 0, 0, 0], [0.2, 0, 0, 0.5]]),  # not Hermitian
        np.full((4, 4), np.nan),
        np.ones(4) / 4,
        np.array([states.werner(0.6), np.eye(4), np.eye(4) / 2]),  # the first invalid matrix
    ], ids=["trace", "dimension", "negative", "hermitian", "nan", "vector", "stack"])
    def test_an_invalid_density_matrix_raises_the_concurrence_message(self, rho):
        with pytest.raises(ValueError) as expected:
            measures.concurrence(rho)
        with pytest.raises(ValueError) as raised:
            x_concurrence(rho)
        assert str(raised.value) == str(expected.value)

    def test_clamp_is_max_of_zero_and_value(self):
        # negative values and the zero of the last state give +0.0
        for rho in (states.werner(0.2), np.eye(4) / 4, np.diag([0.5, 0.0, 0.0, 0.5])):
            value = x_concurrence(rho)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestSingleMatrixMeasures:
    @pytest.mark.parametrize("measure", [
        measures.correlation_matrix, measures.chsh_max, measures.purity,
    ], ids=["correlation_matrix", "chsh_max", "purity"])
    def test_reject_a_stack(self, measure):
        # only concurrence and fidelity measure stacks; the others take one matrix
        for stack in (np.array([states.werner(0.6)]), np.array([states.werner(0.6)] * 4)):
            shape = re.escape(str(stack.shape))
            with pytest.raises(ValueError, match=f"expected a matrix, got array of shape {shape}"):
                measure(stack)


class TestFidelity:
    def test_state_with_itself(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            assert abs(measures.fidelity(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_pure_states(self):
        h = np.diag([1.0, 0.0])
        v = np.diag([0.0, 1.0])
        assert measures.fidelity(h, v) < 1e-12

    def test_mixed_against_pure(self):
        h = np.diag([1.0, 0.0])
        assert abs(measures.fidelity(np.eye(2) / 2, h) - 0.5) < 1e-12

    def test_symmetric_and_bounded(self, rng):
        for _ in range(20):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            fab = measures.fidelity(a, b)
            fba = measures.fidelity(b, a)
            assert abs(fab - fba) < 1e-9
            assert 0.0 <= fab <= 1.0

    def test_discriminates_distinct_states(self, rng):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        assert measures.fidelity(a, b) < 1.0 - 1e-6

    def test_pure_state_overlap(self, rng):
        # for pure states the fidelity is |<a|b>|^2; rank deficiency costs a
        # few sqrt(machine eps) in the matrix square root
        for _ in range(10):
            va = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            va /= np.linalg.norm(va)
            vb /= np.linalg.norm(vb)
            expected = abs(np.vdot(va, vb)) ** 2
            got = measures.fidelity(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
            assert abs(got - expected) < 5e-8

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            measures.fidelity(np.eye(2) / 2, np.eye(4) / 4)


def fidelity_pairs(rng):
    """Two stacks (a, b) of states per dimension: random rank-one and full-rank states
    against full-rank ones in 2, 3 and 4 dimensions, and the pipeline's (mostly
    rank-deficient) states against the next one and against themselves."""
    pairs = {}
    for k in range(600):
        dim = 2 + k % 3
        make = random_density if k % 2 else random_pure_density
        pairs.setdefault(dim, []).append((make(rng, dim), random_density(rng, dim)))
    found = pipeline_states()
    pairs[4] += list(zip(found, found[1:] + found[:1])) + list(zip(found, found))
    return {dim: tuple(np.array(side) for side in zip(*pair)) for dim, pair in pairs.items()}


class TestFidelityOfAStack:
    def test_equals_each_pair_bit_for_bit(self, rng):
        # the rounding case these pairs may miss, an array square, is forced in the next test
        for a, b in fidelity_pairs(rng).values():
            values = measures.fidelity(a, b)
            assert values.shape == (len(a),)
            for left, right, value in zip(a, b, values.tolist()):
                single = measures.fidelity(left, right)
                assert type(single) is float
                assert value.hex() == single.hex()

    def test_squares_each_trace_norm_like_the_single_call(self, monkeypatch):
        # eigenvalues whose trace norm squares differently by C pow and by a multiply, on a
        # libm whose pow is not always correctly rounded (the first three of 10,001)
        eigvals = np.linspace(0.25, 1.0, 10001).tolist()
        norms = np.sqrt(eigvals).tolist()
        trap = [e for e, norm in zip(eigvals, norms) if norm ** 2 != norm * norm]
        mixed = np.eye(4) / 4
        for e in trap[:3] + [0.5]:
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda mats: np.broadcast_to(
                np.array([0.0, 0.0, 0.0, e]), mats.shape[:-1]).copy())
            single = measures.fidelity(mixed, mixed)
            assert single.hex() == float(np.sqrt(np.float64(e)) ** 2).hex()
            stacked = measures.fidelity(np.array([mixed] * 2), np.array([mixed] * 2))
            assert [value.hex() for value in stacked.tolist()] == [single.hex()] * 2

    def test_a_stack_of_one(self):
        a, b = states.werner(0.6), states.werner(0.9)
        values = measures.fidelity(np.array([a]), np.array([b]))
        assert values.shape == (1,)
        assert values[0].hex() == measures.fidelity(a, b).hex()

    def test_keeps_leading_axes(self, rng):
        a = np.array([random_density(rng, 4) for _ in range(6)])
        b = np.array([random_density(rng, 4) for _ in range(6)])
        values = measures.fidelity(a.reshape(3, 2, 4, 4), b.reshape(3, 2, 4, 4))
        assert values.tobytes() == measures.fidelity(a, b).reshape(3, 2).tobytes()

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_raises_the_first_invalid_matrix_message(self, side):
        valid = np.array([states.werner(0.6)] * 3)
        # a later invalid matrix, with another message, does not win
        invalid = np.array([states.werner(0.6), np.eye(4), np.eye(4) / 4 + np.diag([1e-3], k=3)])
        with pytest.raises(ValueError) as expected:
            measures.fidelity(np.eye(4), states.werner(0.6))
        with pytest.raises(ValueError) as raised:
            measures.fidelity(*((invalid, valid) if side == "a" else (valid, invalid)))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3, 4, 4), (2, 4, 4)),
        ((3, 4, 4), (4, 4)),
        ((4, 4), (3, 4, 4)),
        ((2, 3, 4, 4), (3, 2, 4, 4)),
        ((3, 2, 2), (3, 4, 4)),
    ])
    def test_rejects_stacks_of_different_shapes(self, shape_a, shape_b):
        def maximally_mixed(shape):
            return np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape)
        message = re.escape(f"dimension mismatch: {shape_a} vs {shape_b}")
        with pytest.raises(ValueError, match=message):
            measures.fidelity(maximally_mixed(shape_a), maximally_mixed(shape_b))


class TestChshMax:
    def test_singlet_reaches_quantum_bound(self):
        assert abs(measures.chsh_max(states.singlet_density()) - 2.0 * np.sqrt(2.0)) < 1e-9

    def test_maximally_mixed(self):
        assert measures.chsh_max(np.eye(4) / 4) < 1e-12

    def test_werner_scaling(self):
        for q in np.linspace(0.0, 1.0, 21):
            expected = 2.0 * np.sqrt(2.0) * q
            assert abs(measures.chsh_max(states.werner(q)) - expected) < 1e-9

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            u = tensor(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(measures.chsh_max(rotated) - measures.chsh_max(rho)) < 1e-9

    def test_violation_requires_entanglement(self, rng):
        # every sampled state above the classical bound must be entangled
        seen_violation = False
        for _ in range(200):
            rho = 0.5 * random_pure_density(rng, 4) + 0.5 * random_density(rng, 4)
            if measures.chsh_max(rho) > 2.0:
                seen_violation = True
                assert measures.concurrence(rho) > 0.0
        assert seen_violation

    def test_range(self, rng):
        bound = 2.0 * np.sqrt(2.0) + 1e-9
        for _ in range(50):
            assert 0.0 <= measures.chsh_max(random_density(rng, 4)) <= bound


class TestPurity:
    def test_pure_state(self, rng):
        assert abs(measures.purity(random_pure_density(rng, 4)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(measures.purity(np.eye(2) / 2) - 0.5) < 1e-15

    def test_werner_closed_form(self):
        # (1 + 3 q^2) / 4
        for q in (0.0, 0.5, 1.0):
            expected = (1.0 + 3.0 * q * q) / 4.0
            assert abs(measures.purity(states.werner(q)) - expected) < 1e-12
