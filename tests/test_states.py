import numpy as np
import pytest
from conftest import partial_trace

from entloc import measures, qmat, states


class TestSinglet:
    def test_amplitudes(self):
        expected = np.array([0.0, 1.0, -1.0j, 0.0]) / np.sqrt(2.0)
        np.testing.assert_array_equal(states.singlet(), expected)

    def test_normalized(self):
        assert abs(np.linalg.norm(states.singlet()) - 1.0) < 1e-12

    def test_marginals_maximally_mixed(self):
        rho = states.singlet_density()
        for keep in ({0}, {1}):
            marginal = partial_trace(rho, [2, 2], keep=keep)
            np.testing.assert_allclose(marginal, np.eye(2) / 2, atol=1e-15)

    def test_returned_density_is_a_copy(self):
        expected = states.pure_density(states.singlet())
        states.singlet_density()[:] = 0.0
        np.testing.assert_array_equal(states.singlet_density(), expected)
        np.testing.assert_array_equal(states.werner(1.0), expected)


class TestDepolarizedQubit:
    def test_matrix(self):
        np.testing.assert_array_equal(states.depolarized_qubit(), np.diag([0.5, 0.5]))

    def test_purity(self):
        assert abs(measures.purity(states.depolarized_qubit()) - 0.5) < 1e-12

    def test_bloch_vector_vanishes(self):
        rho = states.depolarized_qubit()
        for sigma in (measures.SIGMA_X, measures.SIGMA_Y, measures.SIGMA_Z):
            assert abs(np.trace(rho @ sigma)) < 1e-15


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(states.werner(1.0), states.singlet_density(), atol=1e-15)
        np.testing.assert_allclose(states.werner(0.0), np.eye(4) / 4, atol=1e-15)

    def test_separability_boundary(self):
        assert measures.concurrence(states.werner(1.0 / 3.0)) == 0.0
        assert measures.concurrence(states.werner(1.0 / 3.0 + 1e-6)) > 0.0

    def test_concurrence_closed_form_on_grid(self):
        for q in np.linspace(0.0, 1.0, 101):
            expected = max(0.0, (3.0 * q - 1.0) / 2.0)
            assert abs(measures.concurrence(states.werner(q)) - expected) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            states.werner(-0.1)
        with pytest.raises(ValueError):
            states.werner(1.1)


class TestPostMeasurementState:
    def test_endpoints(self):
        np.testing.assert_allclose(
            states.post_measurement_state(1.0), states.singlet_density(), atol=1e-15
        )
        np.testing.assert_allclose(
            states.post_measurement_state(0.0), np.diag([0.0, 0.0, 0.5, 0.5]), atol=1e-15
        )

    def test_mirror_outcome(self):
        np.testing.assert_allclose(
            states.post_measurement_state(0.0, outcome="V"),
            np.diag([0.5, 0.5, 0.0, 0.0]),
            atol=1e-15,
        )

    def test_concurrence_equals_weight(self):
        # matches the stage II closed form with q = T^2/(T^2+R^2); at T = 0.4
        # the weight is 4/13
        q = 0.16 / 0.52
        assert abs(measures.concurrence(states.post_measurement_state(q)) - q) < 1e-12

    def test_concurrence_on_grid(self):
        for q in np.linspace(0.0, 1.0, 101):
            for outcome in ("H", "V"):
                rho = states.post_measurement_state(q, outcome)
                assert abs(measures.concurrence(rho) - q) < 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            states.post_measurement_state(1.5)
        with pytest.raises(ValueError):
            states.post_measurement_state(0.5, outcome="X")


class TestConstructorsAreValidStates:
    def test_all_valid(self):
        qmat.validate_density_matrix(states.singlet_density(), dim=4)
        qmat.validate_density_matrix(states.depolarized_qubit(), dim=2)
        for q in np.linspace(0.0, 1.0, 21):
            qmat.validate_density_matrix(states.werner(q), dim=4)
            qmat.validate_density_matrix(states.post_measurement_state(q), dim=4)
            qmat.validate_density_matrix(states.post_measurement_state(q, "V"), dim=4)

    def test_pure_density_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            states.pure_density([1.0, 1.0])
