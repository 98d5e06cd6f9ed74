"""Shared test helpers: seeded random states and unitaries, the pipeline's
stage states, the oracle's stages at one point (a grid of one), the X-state
concurrence and the sweep's columns by the route of 4x4 matrices, the published
closed forms in numpy's grid arithmetic, an exact decimal evaluation of the
concurrences, the sweep over a broadcast grid, the tensor product and partial
trace used to build and inspect states, and call counters."""

import inspect
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from entloc import fock_oracle, protocol, qmat
from entloc.params import CouplingConfig, FilterConfig, Stage, StageOutcome


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


def one_point(t: float, p: float = 0.0) -> CouplingConfig:
    """The config of one point as the oracle takes it: a grid of one."""
    return CouplingConfig(np.array([t], dtype=float), np.array([p], dtype=float))


def oracle_stages(t: float, p: float = 0.0, outcome: str = "H") -> tuple:
    """The oracle's stage I and stage II outcomes at one point, from a grid of one: each a
    4x4 state and a float probability, the form `protocol.coupled_stages` returns."""
    propagated = fock_oracle.propagate(one_point(t, p))
    return tuple(StageOutcome(found.state[0], float(found.probability[0]), found.stage)
                 for found in fock_oracle.reduce_to_ab(propagated, outcome))


def x_concurrence(rho) -> float | np.ndarray:
    """Concurrence of an X state read off its entries: no PSD root and no SVD.

    C = 2 max(0, |rho_HV,VH| - sqrt(rho_HH rho_VV), |rho_HH,VV| - sqrt(rho_HV rho_VH))
    (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)).  `rho` gets the
    density-matrix checks of `measures.concurrence`, with the same messages, from
    `qmat.validate_density_matrix`; then a nonzero entry off the diagonal and the
    anti-diagonal raises.  A 4x4 `rho` gives a float; a (..., 4, 4) stack gives an array.
    """
    arr = qmat.validate_density_matrix(rho, dim=4, stack=True)
    if np.count_nonzero(arr[..., qmat._OFF_X]):
        raise ValueError("not an X state: an entry off the diagonal and anti-diagonal is nonzero")
    d = arr.diagonal(axis1=-2, axis2=-1).real
    outer = np.sqrt(np.maximum(d[..., 0] * d[..., 3], 0.0))  # a diagonal may round below 0
    inner = np.sqrt(np.maximum(d[..., 1] * d[..., 2], 0.0))
    value = 2.0 * np.maximum(abs(arr[..., 1, 2]) - outer, abs(arr[..., 0, 3]) - inner)
    clamped = np.where(value > 0.0, value, 0.0)  # max(0.0, value): -0.0 and nan give 0.0
    return float(clamped) if clamped.ndim == 0 else clamped


def grid_closed_form(stage: Stage, ts, ps, eps=None) -> np.ndarray:
    """The published concurrence of `stage` (see `protocol.concurrence_closed_form`) on the
    broadcast grid of T, p (and eps), in numpy's array arithmetic: both branches of each
    `np.where` evaluated, the limit at p > 0 in its equal form (its numerator below 1e-3
    rounded once from exact arithmetic) and the finite-eps ratio inf where 2 T^2 rounds
    to 0.  The reference of the plain-float point path, bit for
    bit.  Stage I and the finite-eps form take p = 0."""
    t, p = np.broadcast_arrays(np.asarray(ts, dtype=float), np.asarray(ps, dtype=float))
    r = 1.0 - t
    if stage is Stage.COUPLING:
        return np.maximum(0.0, (2.0 * t * t - r * r) / (2.0 * (r * r + t * t)))
    if stage is Stage.MEASUREMENT:
        return np.where(p == 0.0, t * t / (t * t + r * r),
                        t * abs(t - p * (1.0 - t)) / (1.0 - (2.0 + p) * t * (1.0 - t)))
    if eps is not None:
        with np.errstate(divide="ignore", over="ignore"):  # below T ~ 1e-154 the ratio is inf
            return t / ((1.0 + eps * r * r / (2.0 * t * t)) * np.sqrt(t * t + r * r))
    d = 2.0 * t - 1.0
    numerator = abs(d + (1.0 - p) * (1.0 - t))
    exact = [abs(float(Fraction(a) - Fraction(b) * (1 - Fraction(a))))
             for a, b in zip(t.ravel().tolist(), p.ravel().tolist())]
    numerator = np.where(numerator < 1e-3, np.reshape(exact, t.shape), numerator)
    radicand = d * d + 2.0 * (1.0 - p) * t * (1.0 - t)
    limit = np.divide(numerator, np.sqrt(radicand),
                      out=np.zeros_like(numerator), where=numerator != 0.0)
    return np.where(p == 0.0, t / np.sqrt(t * t + r * r), np.minimum(limit, 1.0))


def grid_concurrences(ts, ps, eps) -> list:
    """`protocol.stage_concurrences` at the points of the broadcast grid of the arguments,
    passed as three lists; its four columns as arrays of the grid's shape."""
    grid = np.broadcast_arrays(*(np.asarray(axis, dtype=float) for axis in (ts, ps, eps)))
    columns = protocol.stage_concurrences(*(axis.ravel().tolist() for axis in grid))
    return [np.array(column, dtype=float).reshape(grid[0].shape) for column in columns]


def matrix_route_columns(ts, ps, eps) -> list:
    """The four `stage_concurrences` columns of a 1-D grid (the arguments broadcast) whose
    points are all at p = 0 or all at p > 0, by the route of 4x4 stacks: `coupled_stages`,
    one `filter_states` pass over the stage II states its filters do not block (a blocked
    state is found by filtering it alone), `x_concurrence` of every state and the
    `grid_closed_form` limit; stage III is nan where the filters block."""
    ts, ps, eps = np.broadcast_arrays(*(np.asarray(axis, dtype=float) for axis in (ts, ps, eps)))
    cfg = CouplingConfig(ts, ps)
    stage1, stage2 = (outcome.state for outcome in protocol.coupled_stages(cfg))
    filters = protocol.eps_to_filter(eps, ts)
    passed = np.ones(ts.size, dtype=bool)
    try:
        protocol.filter_states(stage2, filters)
    except protocol.FilterBlockedError:
        for i in range(ts.size):
            try:
                protocol.filter_states(stage2[i], FilterConfig(filters.att_a[i], filters.att_b[i]))
            except protocol.FilterBlockedError:
                passed[i] = False
    columns = [x_concurrence(stage1), x_concurrence(stage2), np.full(ts.size, np.nan),
               grid_closed_form(Stage.FILTRATION, ts, ps)]
    if passed.any():
        filtered, _ = protocol.filter_states(stage2[passed], FilterConfig(filters.att_a[passed],
                                                                          filters.att_b[passed]))
        columns[2][passed] = x_concurrence(filtered)
    return columns


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


def functions_of(module) -> list:
    """The names of the functions `module` defines."""
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__]


def reduced_sizes(monkeypatch) -> list:
    """The number of points of each `fock_oracle.reduce_to_ab` call while the test runs, in
    call order (1 for one point)."""
    sizes = []
    reduce_to_ab = fock_oracle.reduce_to_ab

    def recorded(propagated, outcome="H"):
        found = reduce_to_ab(propagated, outcome)
        sizes.append(found[0].state[..., 0, 0].size)
        return found

    monkeypatch.setattr(fock_oracle, "reduce_to_ab", recorded)
    return sizes


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
