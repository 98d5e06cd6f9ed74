"""Entanglement and state-comparison functionals for two-qubit states."""

from __future__ import annotations

import numpy as np

from . import qmat

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_YY = np.kron(SIGMA_Y, SIGMA_Y)

# sigma_i (x) sigma_j for i, j in {x, y, z}, row-major
_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PAIRS = [np.kron(si, sj) for si in _PAULIS for sj in _PAULIS]


def concurrence(rho) -> float | np.ndarray:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the descending square roots of the eigenvalues of
    rho (sy x sy) conj(rho) (sy x sy), with complex conjugation taken in the
    fixed (HH, HV, VH, VV) basis.  They are computed as the singular values
    of sqrt(rho) (sy x sy) conj(sqrt(rho)): same spectrum, no non-Hermitian
    eigenproblem, and no precision loss from taking square roots of nearly
    degenerate eigenvalues.  A 4x4 `rho` gives a float; a (..., 4, 4) stack
    gives an array of the concurrence of each matrix.
    """
    _, root = qmat.density_sqrt(rho, dim=4)
    lams = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    value = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    clamped = np.where(value > 0.0, value, 0.0)  # max(0.0, value): -0.0 and nan give 0.0
    return float(clamped) if clamped.ndim == 0 else clamped


def fidelity(a, b) -> float | np.ndarray:
    """Uhlmann fidelity F = (tr sqrt(sqrt(a) b sqrt(a)))^2, in [0, 1].

    Symmetric in its arguments and equal to 1 exactly when a == b.  Two
    n x n matrices give a float; two (..., n, n) stacks of the same shape
    give an array of the fidelity of each pair, bit for bit the float of
    that pair alone.  `a` is checked before `b`, and the first invalid
    matrix raises the message it would raise alone.
    """
    mat_a, root = qmat.density_sqrt(a)
    mat_b = qmat.validate_density_matrix(b, stack=True)
    if mat_a.shape != mat_b.shape:
        raise ValueError(f"dimension mismatch: {mat_a.shape} vs {mat_b.shape}")
    inner = root @ mat_b @ root
    hermitian = (inner + inner.conj().swapaxes(-1, -2)) / 2.0
    sums = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(hermitian), 0.0, None)), axis=-1)
    # square each sum as a Python float: C pow, like the scalar np.float64 ** 2, where an
    # array ** 2 multiplies and can differ in the last bit
    values = [min(total ** 2, 1.0) for total in sums.ravel().tolist()]
    return values[0] if sums.ndim == 0 else np.array(values).reshape(sums.shape)


def correlation_matrix(rho) -> np.ndarray:
    """3x3 matrix T_ij = tr(rho sigma_i x sigma_j), i, j in {x, y, z}."""
    arr = qmat.validate_density_matrix(rho, dim=4)
    return np.array([np.real(np.trace(arr @ pair)) for pair in _PAULI_PAIRS]).reshape(3, 3)


def chsh_max(rho) -> float:
    """Largest CHSH expectation over measurement settings.

    Standard two-qubit criterion: 2 sqrt(m1 + m2) with m1, m2 the two largest
    eigenvalues of T^T T, where T is the correlation matrix.  Values above 2
    certify that the state can violate a Bell-CHSH inequality.
    """
    t = correlation_matrix(rho)
    eigvals = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return float(2.0 * np.sqrt(max(eigvals[0], 0.0) + max(eigvals[1], 0.0)))


def purity(rho) -> float:
    """tr(rho^2): 1 for pure states, 1/d for the maximally mixed state."""
    arr = qmat.validate_density_matrix(rho)
    return float(np.real(np.trace(arr @ arr)))
