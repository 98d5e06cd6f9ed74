"""Dense complex-matrix kernel for small quantum states.

Everything here operates on plain numpy arrays sized 2x2 up to ~32x32.
Linear algebra is delegated to numpy (LAPACK); the functions add the
structural checks the rest of the package relies on, with tight
tolerances, since every computation is only O(10) flops deep.  Each public
entry point coerces and checks its input once.
"""

from __future__ import annotations

import numpy as np

# Structural tolerances for density-matrix validation.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10

# Hermiticity gate for the PSD square root (looser than the density-matrix
# check: it also accepts Hermitian PSD matrices that are not states).
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


def hermiticity_defect(arr: np.ndarray) -> float:
    """max_ij |arr_ij - conj(arr_ji)| for a square matrix from `as_matrix`."""
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix is not square: shape {arr.shape}")
    return float(np.max(np.abs(arr - arr.conj().T)))


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
