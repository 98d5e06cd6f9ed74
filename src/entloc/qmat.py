"""Dense complex-matrix kernel for small quantum states.

Everything here operates on plain numpy arrays sized 2x2 up to ~32x32.
Linear algebra is delegated to numpy (LAPACK); the functions add the
structural checks the rest of the package relies on, with tight
tolerances, since every computation is only O(10) flops deep.  Each public
entry point coerces and checks its input once.  `density_sqrt` is the one
PSD square root: it roots a checked density matrix from the `eigh` that
checks it, with eigenvalues in (EIGVAL_FLOOR, 0) clamped to 0.
"""

from __future__ import annotations

import numpy as np

# Structural tolerances for density-matrix validation.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries; with `stack`, also a (..., n, m) stack."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def _checked_density(arr: np.ndarray, dim: int | None, decompose) -> tuple:
    """The density-matrix checks of each matrix of `arr`, raising the first failing one's message."""
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {arr.shape}")
    defect = np.abs(arr - arr.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = arr.trace(axis1=-2, axis2=-1)
    vals, vecs = decompose(arr)
    failed = (defect > HERM_TOL) | (abs(tr - 1.0) > TRACE_TOL) | (vals[..., 0] < EIGVAL_FLOOR)
    if np.count_nonzero(failed):  # the first failing matrix fails its checks in this order
        i = np.flatnonzero(failed)[0]
        defect, tr, low = np.ravel(defect)[i], complex(np.ravel(tr)[i]), np.ravel(vals[..., 0])[i]
        raise ValueError(
            f"density matrix is not Hermitian (defect {defect:.3e})" if defect > HERM_TOL
            else f"density matrix trace is {tr}, expected 1" if abs(tr - 1.0) > TRACE_TOL
            else f"density matrix has negative eigenvalue {low:.3e}")
    return arr, vals, vecs


def validate_density_matrix(rho, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Check that `rho` is a density matrix; return it as a complex array.

    Requires hermiticity within HERM_TOL, trace 1 within TRACE_TOL and all
    eigenvalues above EIGVAL_FLOOR.  `dim` pins the expected dimension.  With
    `stack`, a (..., n, n) stack is also accepted, and its first failing
    matrix raises the message it would raise alone.
    """
    arr, _, _ = _checked_density(as_matrix(rho, stack=stack), dim,
                                 lambda arr: (np.linalg.eigvalsh(arr), None))
    return arr


def density_sqrt(rho, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`validate_density_matrix(rho, dim)` and its PSD square root, from one `eigh`; for a
    (..., n, n) stack, each matrix gets the checks and the root it would get alone."""
    arr, vals, vecs = _checked_density(as_matrix(rho, stack=True), dim, np.linalg.eigh)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]  # (EIGVAL_FLOOR, 0) clamps to 0
    return arr, root @ vecs.conj().swapaxes(-1, -2)
