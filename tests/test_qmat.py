import numpy as np
import pytest
from conftest import (herm_eigvals, partial_trace, random_density, random_pure_density,
                      random_unitary, tensor)

from entloc import qmat, states


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        # first factor on the slow index: diag(1,0) (x) diag(0,1) = diag(0,1,0,0)
        result = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(result, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_entangled_pair_with_depolarized_environment(self):
        # hand-computed 8x8 expansion of |psi-><psi-| (x) I/2
        expected = np.zeros((8, 8), dtype=complex)
        expected[2, 2] = expected[3, 3] = 0.25
        expected[4, 4] = expected[5, 5] = 0.25
        expected[2, 4] = expected[3, 5] = 0.25j
        expected[4, 2] = expected[5, 3] = -0.25j
        result = tensor(states.singlet_density(), np.eye(2) / 2)
        np.testing.assert_allclose(result, expected, atol=1e-15)
        assert abs(np.trace(result) - 1.0) < 1e-15

    def test_associativity_is_exact(self, rng):
        # dyadic entries make every float product exact, so the two
        # parenthesizations must agree entrywise with zero tolerance
        def dyadic(shape):
            re = rng.integers(-8, 9, size=shape) / 16.0
            im = rng.integers(-8, 9, size=shape) / 16.0
            return re + 1j * im

        for _ in range(20):
            a, b, c = dyadic((2, 2)), dyadic((3, 2)), dyadic((2, 3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            np.testing.assert_array_equal(left, right)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tensor(np.ones(3), np.eye(2))
        with pytest.raises(ValueError):
            tensor(np.array([[np.nan, 0], [0, 1]]), np.eye(2))
        with pytest.raises(ValueError):
            tensor(np.array([[np.inf, 0], [0, 1]]), np.eye(2))


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        reduced = partial_trace(states.singlet_density(), [2, 2], keep={0})
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-15)

    def test_product_state_factorization(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 3)
            reduced = partial_trace(tensor(rho, sigma), [2, 3], keep={0})
            assert np.linalg.norm(reduced - rho) < 1e-12
            reduced = partial_trace(tensor(rho, sigma), [2, 3], keep={1})
            assert np.linalg.norm(reduced - sigma) < 1e-12

    def test_trace_preserved(self, rng):
        for _ in range(10):
            rho = random_density(rng, 8)
            for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
                reduced = partial_trace(rho, [2, 2, 2], keep=keep)
                assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_coupled_three_qubit_reduction(self):
        # state q P_AB (x) I_E/2 + (1-q) P_AE (x) I_B/2 over subsystems (A, B, E),
        # built with explicit index loops; its A-B reduction is the Werner mixture
        pair = states.singlet_density()
        for q in (0.0, 0.3076923076923077, 0.8, 1.0):
            full = np.zeros((8, 8), dtype=complex)
            for a, b, e in np.ndindex(2, 2, 2):
                for ap, bp, ep in np.ndindex(2, 2, 2):
                    row = 4 * a + 2 * b + e
                    col = 4 * ap + 2 * bp + ep
                    term1 = pair[2 * a + b, 2 * ap + bp] * (0.5 if e == ep else 0.0)
                    term2 = pair[2 * a + e, 2 * ap + ep] * (0.5 if b == bp else 0.0)
                    full[row, col] = q * term1 + (1 - q) * term2
            reduced = partial_trace(full, [2, 2, 2], keep={0, 1})
            np.testing.assert_allclose(reduced, states.werner(q), atol=1e-12)

    def test_keep_order_preserved(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        tau = random_density(rng, 2)
        full = tensor(tensor(rho, sigma), tau)
        reduced = partial_trace(full, [2, 2, 2], keep={0, 2})
        np.testing.assert_allclose(reduced, tensor(rho, tau), atol=1e-12)

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 3], keep={0})  # dimension mismatch
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 2], keep=set())
        with pytest.raises(ValueError):
            partial_trace(rho, [2, 2], keep={2})


class TestHermEigvals:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(herm_eigvals(np.eye(4) / 4), [0.25] * 4, atol=1e-14)

    def test_pure_state_spectrum(self):
        vals = herm_eigvals(states.singlet_density())
        np.testing.assert_allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_werner_spectrum(self):
        # closed form: (1 + 3q)/4 once, (1 - q)/4 three times
        vals = herm_eigvals(states.werner(0.5))
        np.testing.assert_allclose(vals, [0.625, 0.125, 0.125, 0.125], atol=1e-12)

    def test_descending_and_sum_equals_trace(self, rng):
        for _ in range(10):
            gauss = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            herm = (gauss + gauss.conj().T) / 2
            vals = herm_eigvals(herm)
            assert np.all(np.diff(vals) <= 0)
            assert abs(np.sum(vals) - np.real(np.trace(herm))) < 1e-9

    def test_spectrum_invariant_under_unitary(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            rotated = u @ rho @ u.conj().T
            diff = herm_eigvals(rotated) - herm_eigvals(rho)
            assert np.max(np.abs(diff)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(qmat.matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        result = qmat.matrix_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(result, np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_reconstructs(self, rng):
        for _ in range(10):
            rho = random_density(rng, 5)
            root = qmat.matrix_sqrt_psd(rho)
            assert np.linalg.norm(root @ root - rho) < 1e-9
            assert qmat.hermiticity_defect(root) < 1e-12

    def test_clamps_tiny_negative_eigenvalue(self):
        mat = np.diag([1.0, -5e-9])
        root = qmat.matrix_sqrt_psd(mat)
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            qmat.matrix_sqrt_psd(np.diag([1.0, -1e-6]))


class TestValidateDensityMatrix:
    def test_accepts_valid_states(self, rng):
        qmat.validate_density_matrix(states.werner(0.7), dim=4)
        qmat.validate_density_matrix(random_density(rng, 3))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qmat.validate_density_matrix(np.eye(4))

    def test_rejects_non_hermitian(self):
        mat = np.eye(2) / 2
        mat = mat.astype(complex)
        mat[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            qmat.validate_density_matrix(mat)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            qmat.validate_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            qmat.validate_density_matrix(np.eye(2) / 2, dim=4)


INVALID_DENSITY_INPUTS = [
    pytest.param(np.eye(4), None, id="trace"),
    pytest.param(np.array([[0.5, 1e-3], [0.0, 0.5]]), None, id="non-Hermitian"),
    pytest.param(np.diag([1.5, -0.5]), None, id="negative"),
    pytest.param(np.eye(2) / 2, 4, id="dimension"),
    pytest.param(np.ones((2, 3)) / 2, None, id="non-square"),
    pytest.param(np.diag([np.nan, 1.0]), None, id="non-finite"),
]


class TestDensitySqrt:
    def test_equals_validate_then_sqrt_bit_for_bit(self, rng):
        for k in range(50):
            rho = random_density(rng, 4) if k % 2 else random_pure_density(rng, 2 + k % 3)
            arr, root = qmat.density_sqrt(rho)
            expected = qmat.validate_density_matrix(rho)
            assert arr.tobytes() == expected.tobytes()
            assert root.tobytes() == qmat.matrix_sqrt_psd(expected).tobytes()

    @pytest.mark.parametrize("rho, dim", INVALID_DENSITY_INPUTS)
    def test_rejects_like_validate(self, rho, dim):
        with pytest.raises(ValueError) as expected:
            qmat.validate_density_matrix(rho, dim=dim)
        with pytest.raises(ValueError) as raised:
            qmat.density_sqrt(rho, dim=dim)
        assert str(raised.value) == str(expected.value)
