"""Dense complex-matrix kernel for small quantum states.

Everything here operates on plain numpy arrays sized 2x2 up to ~32x32.
Linear algebra is delegated to numpy (LAPACK); the functions add the
structural checks and conventions the rest of the package relies on:

* tensor index convention (i_a, i_b) -> i_a * dim_b + i_b,
* eigenvalues reported in descending order,
* tight tolerances, since every computation is only O(10) flops deep.
"""

from __future__ import annotations

import numpy as np

# Structural tolerances for density-matrix validation.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10

# Hermiticity gate for the eigendecomposition entry points (looser than the
# density-matrix check: these also serve intermediate products).
EIG_HERM_TOL = 1e-8

# Rounding can push eigenvalues of a PSD matrix slightly negative; values in
# (-CLAMP_WINDOW, 0) are clamped to zero, anything below is an error.
CLAMP_WINDOW = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def hermiticity_defect(m) -> float:
    """max_ij |m_ij - conj(m_ji)| for a square matrix."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix is not square: shape {arr.shape}")
    return float(np.max(np.abs(arr - arr.conj().T)))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices.

    Joint row index is (i_a, i_b) -> i_a * rows_b + i_b, and likewise for
    columns, so `tensor(rho_A, rho_B)` places subsystem A on the slow index.
    """
    return np.kron(as_matrix(a), as_matrix(b))


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
    arr = as_matrix(rho)
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
    arr = as_matrix(m)
    defect = hermiticity_defect(arr)
    if defect > EIG_HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.sort(np.linalg.eigvalsh(arr))[::-1]


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian positive-semidefinite matrix.

    Eigenvalues in (-CLAMP_WINDOW, 0) are clamped to zero; anything more
    negative raises.
    """
    arr = as_matrix(m)
    defect = hermiticity_defect(arr)
    if defect > EIG_HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(arr)
    if vals[0] < -CLAMP_WINDOW:
        raise ValueError(f"matrix is not PSD (eigenvalue {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def validate_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Check that `rho` is a density matrix; return it as a complex array.

    Requires hermiticity within HERM_TOL, trace 1 within TRACE_TOL and all
    eigenvalues above EIGVAL_FLOOR.  `dim` pins the expected dimension.
    """
    arr = as_matrix(rho)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {arr.shape}")
    defect = hermiticity_defect(arr)
    if defect > HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr}, expected 1")
    smallest = float(np.linalg.eigvalsh(arr)[0])
    if smallest < EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
    return arr
