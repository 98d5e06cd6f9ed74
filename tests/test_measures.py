import math
import re

import numpy as np
import pytest
from conftest import pipeline_states, random_density, random_pure_density, random_unitary, tensor

from entloc import measures, states


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


class TestSingleMatrixMeasures:
    @pytest.mark.parametrize("measure", [
        lambda stack: measures.fidelity(stack, stack),
        lambda stack: measures.fidelity(stack, states.werner(0.6)),
        measures.correlation_matrix, measures.chsh_max, measures.purity,
    ], ids=["fidelity", "fidelity-first-argument", "correlation_matrix", "chsh_max", "purity"])
    def test_reject_a_stack(self, measure):
        # only concurrence measures a stack; the others take one matrix
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
