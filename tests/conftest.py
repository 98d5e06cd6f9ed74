"""Shared test helpers: seeded random states and unitaries, the pipeline's
stage states, an exact decimal evaluation of their concurrences, the
tensor product and partial trace used to build and inspect them, and a call
counter."""

from decimal import Decimal, localcontext

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


def exact_stage_concurrences(transmittivity: float, overlap: float, eps: float) -> tuple:
    """Stage I, II (outcome H) and III concurrences at `eps`, and the stage III pass rate, of
    one point, as Decimals evaluated to 60 digits from the stage states' X-state entries.

    With R = 1 - T and w = T^2 - pTR, the unnormalised states in the (HH, HV, VH, VV)
    basis have the diagonal d and the HV-VH coherence c (no HH-VV coherence):
      stage I   d = (R^2/4, w/2 + R^2/4, w/2 + R^2/4, R^2/4), |c| = |w|/2
      stage II  d = (0, T^2/4, (T^2 + R^2)/4 - pTR/2, R^2/4), |c| = |w|/4
      stage III d of stage II scaled by (1, A_B, A_A, A_A A_B), |c| by sqrt(A_A A_B),
                with the `eps_to_filter` schedule A_A = eps T^2/(T^2 + R^2), A_B = eps,
    and C = 2 max(0, |c| - sqrt(d_HH d_VV)) / tr d.  The stage III concurrence is nan
    where the pass rate tr d_III / tr d_II is 0 (at T = 0).  The float inputs are taken
    exactly, so the only rounding is at the 60th digit.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        t, p, e = (Decimal(float(value)) for value in (transmittivity, overlap, eps))
        r = 1 - t
        w = t * t - p * t * r
        stage1 = (r * r / 4, w / 2 + r * r / 4, w / 2 + r * r / 4, r * r / 4), abs(w) / 2
        stage2 = (Decimal(0), t * t / 4, (t * t + r * r) / 4 - p * t * r / 2, r * r / 4), abs(w) / 4
        att_a, att_b = e * t * t / (t * t + r * r), e
        scale = (1, att_b, att_a, att_a * att_b)
        stage3 = (tuple(d * s for d, s in zip(stage2[0], scale)),
                  stage2[1] * (att_a * att_b).sqrt())

        def concurrence(diag, coherence):
            return 2 * max(Decimal(0), coherence - (diag[0] * diag[3]).sqrt()) / sum(diag)

        pass_rate = sum(stage3[0]) / sum(stage2[0])
        return (concurrence(*stage1), concurrence(*stage2),
                concurrence(*stage3) if pass_rate else Decimal("nan"), pass_rate)


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


def counting(monkeypatch, functions):
    """Count the calls of the functions `functions` names ({module: names}) while the test
    runs; the counts by name."""
    calls = {}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for module, names in functions.items():
        for name in names:
            calls[name] = 0
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
