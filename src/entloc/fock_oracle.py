"""Brute-force second-quantized simulation of the coupling stage.

Two photons are propagated exactly: the signal photon B, polarization
entangled with the idle photon A, enters one beamsplitter port; the
surrounding photon E enters the other.  Amplitudes live in an 8-mode
single-photon space indexed by

    mode = (arm, polarization, temporal bin)

where the arm is BOB (toward Bob's detection) or MEAS (toward the
measurement box), the polarization is H or V, and the temporal bin is SIGNAL
(overlapping the signal wavepacket) or ORTH (orthogonal to it).  Photon A
never traverses any optics and is carried as a bare qubit index attached to
every amplitude.

A two-photon state is a plain dict mapping (a_pol, mode_lo, mode_hi), with
mode_lo <= mode_hi, to the amplitude of the normalized occupation basis
state; a doubled key (m, m) is the two-photon occupation of one mode.
Branches may be sub-normalized after post-selection.

The same dict carries a grid of points: a `CouplingConfig` whose T and p are
(n,) arrays makes every amplitude an (n,) array, and `build_input`,
`beamsplitter_matrix`, `apply_beamsplitter`, `coupled_branches` and
`reduce_to_ab` then evaluate the n points in one call.  A grid state keeps a
key that vanishes at some or all of its points; its zero entries leave every
other amplitude unchanged.  One point stays numpy-scalar arithmetic: an
elementwise complex product over an array need not round like the same
products taken one at a time (the vectorised loop may fuse multiply and
add), which would move the residuals `verify` reports for dense random
states.  Pipeline amplitudes and matrix entries are purely real or purely
imaginary, so their products round alike either way, and a grid gives each
point the bits it gets alone.

The surrounding photon's completely mixed polarization I/2 is realized as a
uniform classical mixture over {H, V} inputs, which is exact for a linear
network followed by measurement; its partial indistinguishability is an
amplitude sqrt(p) on the SIGNAL bin and sqrt(1 - p) on the ORTH bin.  The
MEAS-arm photon's polarization is treated as in `protocol`: `outcome` None
traces it out (stage I), "H" or "V" projects on that detection (stage II).

The beamsplitter phase convention is symmetric (factor i on reflection).
The convention is not observable in any post-selected polarization state
produced here, which the tests confirm by substituting the asymmetric real
matrix for `beamsplitter_matrix` and comparing.
"""

from __future__ import annotations

import numpy as np

from . import qmat
from .params import CouplingConfig, Stage, StageOutcome, check_unit_interval

SQRT2 = float(np.sqrt(2.0))

ARM_BOB, ARM_MEAS = 0, 1
POL_H, POL_V = 0, 1
TIME_SIGNAL, TIME_ORTH = 0, 1

N_MODES = 8


def mode_index(arm: int, pol: int, time: int) -> int:
    """Arm is the slowest index: modes 0-3 lie on BOB, 4-7 on MEAS."""
    return 4 * arm + 2 * pol + time


def norm_squared(amps: dict) -> float:
    """Squared norm of a state: the probability of a post-selected branch."""
    return float(sum(abs(a) ** 2 for a in amps.values()))


def _time_bins(overlap) -> list:
    """The surrounding photon's temporal amplitudes sqrt(p) SIGNAL and sqrt(1 - p) ORTH:
    the nonzero ones of one point, both of a grid."""
    bins = ((TIME_SIGNAL, np.sqrt(overlap)), (TIME_ORTH, np.sqrt(1.0 - overlap)))
    return [(t, t_amp) for t, t_amp in bins if t_amp.ndim or t_amp != 0.0]


def build_input(cfg: CouplingConfig, env_pol: int) -> dict:
    """Input state with the surrounding photon prepared in `env_pol`.

    The A-B pair is (|H>_A |V>_B - i |V>_A |H>_B)/sqrt(2) with B on the BOB
    arm in the SIGNAL bin; the surrounding photon sits on the MEAS arm with
    amplitude sqrt(p) on SIGNAL and sqrt(1 - p) on ORTH.  Callers average
    over env_pol in {H, V} to realize the depolarized environment.  A grid
    config gives (n,) arrays of amplitudes.
    """
    if env_pol not in (POL_H, POL_V):
        raise ValueError(f"env_pol must be 0 (H) or 1 (V), got {env_pol}")
    bins = _time_bins(cfg.overlap)
    amps = {}
    for a_pol, b_pol, pair_amp in ((POL_H, POL_V, 1.0 / SQRT2), (POL_V, POL_H, -1.0j / SQRT2)):
        m_b = mode_index(ARM_BOB, b_pol, TIME_SIGNAL)  # BOB modes precede MEAS modes
        for t, t_amp in bins:
            amps[(a_pol, m_b, mode_index(ARM_MEAS, env_pol, t))] = pair_amp * t_amp
    return amps


def random_state(rng: np.random.Generator) -> dict:
    """Normalized two-photon state with a complex Gaussian amplitude on every key.

    The 72 keys run over a_pol, then mode_lo, then mode_hi, ascending; each
    takes its real and then its imaginary part from one draw of 144
    standard normals, which is the stream of 144 one-number draws.
    """
    keys = [(a_pol, lo, hi) for a_pol in (POL_H, POL_V)
            for lo in range(N_MODES) for hi in range(lo, N_MODES)]
    draws = rng.standard_normal(2 * len(keys)).tolist()
    amps = {key: complex(re, im) for key, re, im in zip(keys, draws[::2], draws[1::2])}
    norm = np.sqrt(norm_squared(amps))
    return {k: v / norm for k, v in amps.items()}


def beamsplitter_matrix(transmittivity) -> np.ndarray:
    """Single-photon mode map of the coupling beamsplitter.

    Transmission keeps the arm with amplitude sqrt(T); reflection swaps arms
    with amplitude i sqrt(R).  Polarization and temporal bin are untouched.
    An (n,) array of T gives the n matrices along a trailing axis, (8, 8, n).
    """
    t = check_unit_interval(transmittivity, "transmittivity")
    t_amp, r_amp = np.sqrt(t), np.sqrt(1.0 - t)
    block = np.array([[t_amp, 1.0j * r_amp], [1.0j * r_amp, t_amp]])  # (2, 2) + grid shape
    u = np.zeros((2, 4, 2, 4) + block.shape[2:], dtype=complex)  # the arm is the slowest index
    u[:, range(4), :, range(4)] = block  # block on every (pol, time) pair: kron(block, I4)
    return u.reshape((N_MODES, N_MODES) + block.shape[2:])


def apply_beamsplitter(state: dict, transmittivity: float) -> dict:
    """Propagate both photons through the beamsplitter.

    Each creation operator maps linearly under the single-photon matrix; the
    two-photon amplitudes are re-expanded in the normalized occupation basis
    (a doubly occupied mode carries the bosonic sqrt(2)).  The map is unitary,
    so the total norm is preserved.  A grid state takes an (n,) array of T
    and keeps every key it reaches, zero or not.
    """
    u = beamsplitter_matrix(transmittivity)
    grid = u.ndim > 2
    # outputs[m]: (i, u[i, m]) for u[i, m] != 0 (at any grid point), i ascending; each entry a
    # numpy scalar, or an (n,) array for a grid
    rows, cols = np.nonzero(u.any(axis=-1) if grid else u)
    outputs = [[] for _ in range(N_MODES)]
    for i, m, entry in zip(rows.tolist(), cols.tolist(), u[rows, cols]):
        outputs[m].append((i, entry))
    monomials: dict[tuple[int, int, int], complex] = {}
    for (a_pol, m1, m2), amp in state.items():
        # normalized occupation amplitude -> coefficient of the c+_m1 c+_m2 monomial
        coeff = amp / SQRT2 if m1 == m2 else amp
        for i, u1 in outputs[m1]:
            ci = coeff * u1
            for j, u2 in outputs[m2]:
                key = (a_pol, i, j) if i <= j else (a_pol, j, i)
                monomials[key] = monomials.get(key, 0.0) + ci * u2
    return {
        key: (value * SQRT2 if key[1] == key[2] else value)
        for key, value in monomials.items()
        if grid or value != 0.0
    }


def postselect_one_each(state: dict) -> dict:
    """The sub-normalized branch with exactly one photon per output arm.

    Its squared norm is the branch probability (zero when the branch is
    empty, e.g. perfect two-photon interference).
    """
    return {key: amp for key, amp in state.items() if key[1] // 4 != key[2] // 4}


def branch_probabilities(cfg: CouplingConfig) -> dict[str, float]:
    """Probabilities of the three detection patterns after the coupling.

    Averaged over the depolarized environment: both photons toward Bob, both
    toward the measurement box, or one photon in each arm.  They sum to 1.
    """
    totals = {"both_bob": 0.0, "both_meas": 0.0, "one_each": 0.0}
    by_meas_count = ("both_bob", "one_each", "both_meas")  # photons on the MEAS arm
    for env_pol in (POL_H, POL_V):
        vec = apply_beamsplitter(build_input(cfg, env_pol), cfg.transmittivity)
        for (_, m1, m2), amp in vec.items():
            totals[by_meas_count[m1 // 4 + m2 // 4]] += 0.5 * abs(amp) ** 2
    return totals


def reduce_to_ab(branches: list[dict], outcome: str | None = None) -> StageOutcome | list:
    """Reduce post-selected branches to the normalized A-B polarization state.

    `branches` are the equally weighted classical components of the
    environment mixture (one per env_pol input).  The temporal bins are
    always traced out; the MEAS-arm polarization is traced out or projected
    according to `outcome`.  The returned probability is cumulative over the
    post-selection and, when projecting, the measurement outcome.  Grid
    branches give a list with the outcome of each point.  The states of a
    point or a grid are checked in one stacked eigenvalue pass.
    """
    if not branches:
        raise ValueError("at least one branch is required")
    if outcome not in (None, "H", "V"):
        raise ValueError(f"outcome must be None, 'H' or 'V', got {outcome!r}")

    shape = np.shape(next(iter(branches[0].values()), 0.0))  # () for one point, (n,) for a grid
    rho = np.zeros(shape + (4, 4), dtype=complex)
    for branch in branches:
        psi = np.zeros((2, 4, 4) + shape, dtype=complex)
        for (a_pol, bob, meas), amp in branch.items():
            if bob // 4 != ARM_BOB or meas // 4 != ARM_MEAS:
                raise ValueError("branch is not post-selected on one photon per arm")
            psi[a_pol, bob % 4, meas % 4] = amp  # index % 4 is 2 * pol + time
        # psi[a_pol, bob_pol, bob_time, meas_pol, meas_time], then the grid axis if any
        psi = psi.reshape((2, 2, 2, 2, 2) + shape)
        if outcome is None:
            rho += np.einsum("abtcu...,ABtcu...->...abAB", psi, psi.conj()).reshape(rho.shape)
        else:
            sel = psi[:, :, :, POL_H if outcome == "H" else POL_V]
            rho += np.einsum("abtu...,ABtu...->...abAB", sel, sel.conj()).reshape(rho.shape)
    rho /= len(branches)

    probability = np.real(np.trace(rho, axis1=-2, axis2=-1))
    if probability.min() <= 1e-15:
        raise ValueError("post-selected branch has zero probability")
    stage = Stage.COUPLING if outcome is None else Stage.MEASUREMENT
    states = qmat.validate_density_matrix(rho / probability[..., None, None], dim=4, stack=True)
    if not shape:
        return StageOutcome(state=states, probability=float(probability), stage=stage)
    return [StageOutcome(state=state, probability=prob, stage=stage)
            for state, prob in zip(states, probability.tolist())]


def coupled_branches(cfg: CouplingConfig) -> list[dict]:
    """Both environment polarization inputs, coupled on the beamsplitter and
    post-selected on one photon per arm: the branches `reduce_to_ab` takes.
    A grid config is propagated in one pass."""
    return [
        postselect_one_each(apply_beamsplitter(build_input(cfg, env_pol), cfg.transmittivity))
        for env_pol in (POL_H, POL_V)
    ]


def simulate(cfg: CouplingConfig, outcome: str | None = None) -> StageOutcome:
    """Run the full pipeline from first principles: `reduce_to_ab(coupled_branches(cfg), outcome)`."""
    return reduce_to_ab(coupled_branches(cfg), outcome)


def hom_coincidence(transmittivity: float, overlap: float) -> float:
    """Coincidence probability of a two-photon interference experiment.

    Two photons of identical polarization, one per input arm, with temporal
    overlap `overlap`, meet at a beamsplitter of the given transmittivity;
    returns the probability of finding one photon in each output arm.  At
    T = 0.5 this is (1 - p)/2, the textbook interference dip.
    """
    check_unit_interval(overlap, "overlap")
    m_sig = mode_index(ARM_BOB, POL_H, TIME_SIGNAL)
    # no idle photon here; the A slot is a spectator
    amps = {(0, m_sig, mode_index(ARM_MEAS, POL_H, t)): t_amp for t, t_amp in _time_bins(overlap)}
    return norm_squared(postselect_one_each(apply_beamsplitter(amps, transmittivity)))


def overlap_from_coincidence(coincidence: float, transmittivity: float = 0.5) -> float:
    """Invert the interference dip to estimate the photon overlap.

    The coincidence rate is (T^2 + R^2) - 2 p T R, so
    p = (T^2 + R^2 - coincidence) / (2 T R); at T = 0.5 this reduces to
    p = 1 - 2 * coincidence.
    """
    t = check_unit_interval(transmittivity, "transmittivity")
    r = 1.0 - t
    if t == 0.0 or t == 1.0:
        raise ValueError("no two-photon interference at T = 0 or T = 1")
    p = (t * t + r * r - float(coincidence)) / (2.0 * t * r)
    if not -1e-9 <= p <= 1.0 + 1e-9:
        raise ValueError(f"coincidence rate {coincidence} is outside the physical range")
    return min(max(p, 0.0), 1.0)
