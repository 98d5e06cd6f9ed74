"""Shared test helpers: seeded random states and unitaries, the pipeline's
stage states, and the tensor product, partial trace and sorted spectrum used
to build and inspect them."""

import numpy as np
import pytest

from entloc import protocol, qmat
from entloc.params import CouplingConfig


def random_density(rng, dim: int) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = gauss @ gauss.conj().T
    return mat / np.real(np.trace(mat))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random unitary via QR with phase fixing."""
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pure_density(rng, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def pipeline_states() -> list:
    """Stage I, II and (where the filters pass) III states at 21 T in [0, 1], p in {0, 0.5, 1}."""
    found = []
    for t in np.linspace(0.0, 1.0, 21):
        for p in (0.0, 0.5, 1.0):
            stage1, stage2 = protocol.coupled_stages(CouplingConfig(float(t), p))
            found += [stage1.state, stage2.state]
            if t > 0.0:  # at T = 0 the filters block the stage II state
                found.append(protocol.stage3_filter(stage2, protocol.eps_to_filter(0.15, t)).state)
    return found


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices.

    Joint row index is (i_a, i_b) -> i_a * rows_b + i_b, and likewise for
    columns, so `tensor(rho_A, rho_B)` places subsystem A on the slow index.
    """
    return np.kron(qmat.as_matrix(a), qmat.as_matrix(b))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    Parameters
    ----------
    rho : square matrix over the tensor product of subsystems with
        dimensions `dims` (in order).
    dims : sequence of positive ints; their product must equal rho's dimension.
    keep : indices of the subsystems to retain.  The result is ordered by the
        kept subsystems' original relative order, and has the same trace.
    """
    arr = qmat.as_matrix(rho)
    dims = [int(d) for d in dims]
    if not dims or any(d <= 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if arr.shape != (total, total):
        raise ValueError(
            f"matrix shape {arr.shape} does not match subsystem dimensions "
            f"{dims} (product {total})"
        )
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    tensor_form = arr.reshape(dims + dims)
    remaining = list(range(len(dims)))
    for idx in reversed([i for i in range(len(dims)) if i not in keep]):
        pos = remaining.index(idx)
        tensor_form = np.trace(tensor_form, axis1=pos, axis2=pos + len(remaining))
        remaining.pop(pos)
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return tensor_form.reshape(kept_dim, kept_dim)


def herm_eigvals(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order."""
    arr = qmat.as_matrix(m)
    defect = qmat.hermiticity_defect(arr)
    if defect > qmat.EIG_HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.sort(np.linalg.eigvalsh(arr))[::-1]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
