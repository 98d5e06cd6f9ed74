"""Dense complex-matrix kernel for small quantum states.

Everything here operates on plain numpy arrays sized 2x2 up to ~32x32.
Linear algebra is delegated to numpy (LAPACK); the functions add the
structural checks the rest of the package relies on, with tight
tolerances, since every computation is only O(10) flops deep.  Each public
entry point coerces and checks its input once.  `validate_density_matrix`
checks a stack of two-qubit X states (nonzero only on both diagonals, like
every state the protocol builds) by their closed-form spectrum, anything
else by LAPACK's.  `density_sqrt` is the one PSD square root: it roots a
checked density matrix from the `eigh` that checks it, with eigenvalues in
(EIGVAL_FLOOR, 0) clamped to 0.
"""

from __future__ import annotations

import numpy as np

from .params import EIGVAL_FLOOR, HERM_TOL, TRACE_TOL

_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])  # off both diagonals


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries; with `stack`, also a (..., n, m) stack."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    """`np.linalg.eigvalsh(arr)`, in closed form if `arr` is a stack of 4x4 X matrices.

    An X matrix splits into the (HH, VV) and the (HV, VH) 2x2 blocks
    [[a, conj z], [z, d]], whose eigenvalues are (a+d)/2 -+ hypot((a-d)/2, |z|).
    Like LAPACK, it reads the real diagonal and the lower triangle.  One
    nonzero entry off both diagonals sends the whole stack to LAPACK.
    """
    if arr.shape[-1] != 4 or np.count_nonzero(arr[..., _OFF_X]):
        return np.linalg.eigvalsh(arr)
    diag = arr.diagonal(axis1=-2, axis2=-1).real
    a, d = diag[..., :2], diag[..., :1:-1]  # (HH, HV) and (VV, VH)
    z = arr[..., ::-1, :].diagonal(axis1=-2, axis2=-1)[..., :2]  # entries (VV, HH), (VH, HV)
    mean, radius = (a + d) / 2.0, np.hypot((a - d) / 2.0, abs(z))
    return np.sort(np.concatenate([mean - radius, mean + radius], axis=-1), axis=-1)


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
    eigenvalues above EIGVAL_FLOOR, checked in that order.  `dim` pins the
    expected dimension.  With `stack`, a (..., n, n) stack is also accepted,
    and its first failing matrix raises the message it would raise alone.
    The eigenvalues of a stack of 4x4 X matrices are taken in closed form,
    within a few ulp of LAPACK's; any other input goes to `np.linalg.eigvalsh`.
    """
    arr, _, _ = _checked_density(as_matrix(rho, stack=stack), dim,
                                 lambda arr: (_eigvalsh(arr), None))
    return arr


def density_sqrt(rho, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`validate_density_matrix(rho, dim)` and its PSD square root, from one `eigh`; for a
    (..., n, n) stack, each matrix gets the checks and the root it would get alone."""
    arr, vals, vecs = _checked_density(as_matrix(rho, stack=True), dim, np.linalg.eigh)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]  # (EIGVAL_FLOOR, 0) clamps to 0
    return arr, root @ vecs.conj().swapaxes(-1, -2)
