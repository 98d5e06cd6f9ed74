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
    """The surrounding photon's completely mixed polarization I/2."""

    def test_purity(self):
        assert abs(measures.purity(np.eye(2, dtype=complex) / 2.0) - 0.5) < 1e-12

    def test_bloch_vector_vanishes(self):
        rho = np.eye(2, dtype=complex) / 2.0
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


class TestWeightArrays:
    """An array of weights gives the stack of the per-weight matrices, bit for bit."""

    WEIGHTS = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, 1.0 - 2.0**-53],
                              np.random.default_rng(7).random(500)])

    @pytest.mark.parametrize("make", [
        pytest.param(states.werner, id="werner"),
        pytest.param(states.post_measurement_state, id="post-measurement-H"),
        pytest.param(lambda q: states.post_measurement_state(q, "V"), id="post-measurement-V"),
    ])
    def test_stack_equals_its_points(self, make):
        stack = make(self.WEIGHTS.reshape(2, -1))
        assert stack.shape == (2, len(self.WEIGHTS) // 2, 4, 4)
        for q, matrix in zip(self.WEIGHTS.tolist(), stack.reshape(-1, 4, 4)):
            assert matrix.tobytes() == make(q).tobytes()

    def test_a_float_weight_has_the_bits_of_scalar_arithmetic(self):
        # a Python float times the complex matrices, as the states were built before one
        # broadcasting expression served a float and an array
        singlet = states.singlet_density()
        noise = {"H": np.diag(np.array([0.0, 0.0, 0.5, 0.5], dtype=complex)),
                 "V": np.diag(np.array([0.5, 0.5, 0.0, 0.0], dtype=complex))}
        for q in self.WEIGHTS.tolist():
            assert states.werner(q).shape == (4, 4)
            assert states.werner(q).tobytes() == (
                q * singlet + (1.0 - q) * np.eye(4, dtype=complex) / 4.0).tobytes()
            for outcome, mixed in noise.items():
                assert states.post_measurement_state(q, outcome).tobytes() == (
                    q * singlet + (1.0 - q) * mixed).tobytes()

    def test_rejects_out_of_range_and_empty_arrays(self):
        for make in (states.werner, states.post_measurement_state):
            with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\], got 1.5$"):
                make(np.array([0.2, 1.5, -1.0]))
            with pytest.raises(ValueError, match="at least one point"):
                make(np.array([]))


class TestConstructorsAreValidStates:
    def test_all_valid(self):
        qmat.validate_density_matrix(states.singlet_density(), dim=4)
        qmat.validate_density_matrix(np.eye(2, dtype=complex) / 2.0, dim=2)
        for q in np.linspace(0.0, 1.0, 21):
            qmat.validate_density_matrix(states.werner(q), dim=4)
            qmat.validate_density_matrix(states.post_measurement_state(q), dim=4)
            qmat.validate_density_matrix(states.post_measurement_state(q, "V"), dim=4)

    def test_pure_density_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            states.pure_density([1.0, 1.0])
