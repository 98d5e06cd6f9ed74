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

A two-photon state is a dict mapping (a_pol, mode_lo, mode_hi), with
mode_lo <= mode_hi, to the amplitudes of the normalized occupation basis
state at the n points of a grid, an (n,) array; a doubled key (m, m) is the
two-photon occupation of one mode.  Branches may be sub-normalized after
post-selection.  A point is a grid of one: `protocol.coupled_stages` and
`hom_coincidence` lift a point to one and return its 4x4 or float form.

The stage I and stage II states of a config whose T and p are (n,) arrays are
`reduce_to_ab(propagate(cfg), outcome)`, two `StageOutcome`s of stacks.  The
states of one input key set share one key order whatever their T:
`apply_beamsplitter` sends every mode to both arms, so a key that vanishes at
some or all points (every reflected one at T = 1) stays as an exact zero, which
leaves every other amplitude unchanged.  It sums each amplitude's products in a
fixed order, so every point of a grid gets the keys, the amplitudes and the
`norm_squared` bits of a grid of one at that point.  numpy may fuse a multiply
and an add where Python rounds each real product and each sum once, but every
beamsplitter matrix entry is purely real or purely imaginary: each part of a
product with one is a single nonzero real product plus an exact zero, which
rounds once either way, with or without numpy's SIMD kernels.  `norm_squared`
folds a whole block with the bits of a Python loop over each point: `np.hypot`
and `np.float_power` round as Python's complex `abs` and a float's `** 2` do, and
`cumsum` adds the keys in order.  So the residuals `verify` reports keep their bits.

The surrounding photon's completely mixed polarization I/2 is realized as a
uniform classical mixture over {H, V} inputs, which is exact for a linear
network followed by measurement; its partial indistinguishability is an
amplitude sqrt(p) on the SIGNAL bin and sqrt(1 - p) on the ORTH bin.  The
MEAS-arm photon's polarization is projected on an "H" or "V" detection for
stage II; the sum of both projections traces it out (stage I).

The beamsplitter phase convention is symmetric (factor i on reflection).
The convention is not observable in any post-selected polarization state
produced here, which the tests confirm by substituting the asymmetric real
matrix for `beamsplitter_matrix` and comparing.  `hom_coincidence` is only the
brute-force reference of the interference dip's `protocol.hom_closed_form`.
"""

from __future__ import annotations

from functools import lru_cache

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


def norm_squared(amps: dict) -> np.ndarray:
    """Squared norms of a state, an (n,) array: the probabilities of a post-selected branch.

    Each point gets the bits of a left fold over its amplitudes as Python `complex`, `total +=
    abs(amp) ** 2`: `np.hypot` of the parts rounds as Python's complex `abs`, where numpy's
    complex `abs` kernels need not; `np.float_power(h, 2.0)` calls C `pow` as a float's `** 2`
    does, where `np.square` and `h * h` round a product; and `cumsum` adds the keys one at a
    time at every grid size, where `sum` adds a grid of one's keys pairwise.  The empty state
    `{}` gives an empty array."""
    if not amps:
        return np.array([])
    a = np.array(list(amps.values()), dtype=complex)  # a[key, point]
    return np.cumsum(np.float_power(np.hypot(a.real, a.imag), 2.0), axis=0)[-1]


def _time_bins(overlap) -> list:
    """The surrounding photon's temporal amplitudes: sqrt(p) SIGNAL and sqrt(1 - p) ORTH."""
    return [(TIME_SIGNAL, np.sqrt(overlap)), (TIME_ORTH, np.sqrt(1.0 - overlap))]


def build_input(cfg: CouplingConfig, env_pol: int) -> dict:
    """Input state with the surrounding photon prepared in `env_pol`.

    The A-B pair is (|H>_A |V>_B - i |V>_A |H>_B)/sqrt(2) with B on the BOB
    arm in the SIGNAL bin; the surrounding photon sits on the MEAS arm with
    amplitude sqrt(p) on SIGNAL and sqrt(1 - p) on ORTH.  Callers average
    over env_pol in {H, V} to realize the depolarized environment.  The
    amplitudes have the shape of p, an (n,) array.
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


def random_states(rng: np.random.Generator, count: int) -> dict:
    """`count` normalized two-photon states with a complex Gaussian amplitude on every
    key, as a grid state of (count,) arrays.

    The 72 keys run over a_pol, then mode_lo, then mode_hi, ascending; each state
    takes its real and then its imaginary parts from the next 144 numbers of one
    draw, which is the stream of one-number draws.  Each state is divided by its
    own norm, each part apart, as Python divides a `complex` by a float.
    """
    keys = [(a_pol, lo, hi) for a_pol in (POL_H, POL_V)
            for lo in range(N_MODES) for hi in range(lo, N_MODES)]
    draws = rng.standard_normal(2 * len(keys) * count).reshape(count, 2 * len(keys))
    norms = np.sqrt(norm_squared(dict(zip(keys, draws.view(complex).T))))
    return dict(zip(keys, (draws / norms[:, None]).view(complex).T))


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


@lru_cache(maxsize=64)
def _scatter_plan(keys: tuple) -> tuple:
    """`apply_beamsplitter`'s products for input `keys`, in the order of a loop over the keys,
    then the output modes i of mode_lo, then those j of mode_hi (each mode's BOB and its MEAS
    twin, ascending), which adds each product onto its output key.

    Returns the output keys in the order the loop first reaches them; each product's
    input key and the flat indices of its two matrix entries, as a (3, n) array listed
    by round: round r holds the (r+1)-th product of every output key with more than r;
    the output keys of each round after the first; and the doubled input and output keys.
    """
    arms = [(m % 4, m % 4 + 4) for m in range(N_MODES)]  # the modes each mode reaches
    slots: dict = {}  # output key -> its products, each (input key, u1 index, u2 index)
    for k, (a_pol, m1, m2) in enumerate(keys):
        for i in arms[m1]:
            for j in arms[m2]:
                key = (a_pol, i, j) if i <= j else (a_pol, j, i)
                slots.setdefault(key, []).append((k, i * N_MODES + m1, j * N_MODES + m2))
    terms = list(slots.values())
    rounds = [[s for s, t in enumerate(terms) if len(t) > r]
              for r in range(max(map(len, terms), default=0))]
    gather = _read_only([terms[s][r] for r, round_ in enumerate(rounds) for s in round_])
    return (tuple(slots), gather.reshape(-1, 3).T, tuple(map(_read_only, rounds[1:])),
            _read_only([k for k, (_, m1, m2) in enumerate(keys) if m1 == m2]),
            _read_only([s for s, (_, lo, hi) in enumerate(slots) if lo == hi]))


def _read_only(indices: list) -> np.ndarray:
    array = np.array(indices, dtype=np.intp)
    array.flags.writeable = False  # a cached plan's: every caller shares it
    return array


def apply_beamsplitter(state: dict, transmittivity) -> dict:
    """Propagate both photons of a state through the beamsplitter at an (n,) array of T.

    Each creation operator maps linearly under the single-photon matrix; the
    two-photon amplitudes are re-expanded in the normalized occupation basis
    (a doubly occupied mode carries the bosonic sqrt(2)).  The map is unitary,
    so the total norm is preserved.  A cached `_scatter_plan` of the input keys
    lists the products, which are summed in their order; every output key is
    kept, zero or not, in an order that does not depend on T.
    """
    u = beamsplitter_matrix(transmittivity)
    shape = u.shape[2:]
    keys, (source, first, second), rounds, doubled_in, doubled_out = _scatter_plan(tuple(state))
    coeff = np.array(list(state.values()), dtype=complex)
    if coeff.shape[1:] != shape:
        raise ValueError(f"amplitudes of shape {coeff.shape[1:]} need transmittivities of "
                         f"that shape, got {shape}")
    if doubled_in.size:
        # normalized occupation amplitude -> coefficient of the c+_m1 c+_m2 monomial; each
        # part divided apart, as Python divides a complex by a float (numpy would multiply
        # by a reciprocal)
        for part in (coeff.real, coeff.imag):
            part[doubled_in] /= SQRT2
    u = u.reshape((N_MODES * N_MODES,) + shape)
    products = coeff[source] * u[first] * u[second]
    monomials = products[:len(keys)] + 0.0  # a sum from 0.0, as in Python: a -0.0 part -> 0.0
    start = len(keys)
    for round_ in rounds:
        monomials[round_] += products[start:start + len(round_)]
        start += len(round_)
    monomials[doubled_out] *= SQRT2
    return dict(zip(keys, monomials))


def postselect_one_each(state: dict) -> dict:
    """The sub-normalized branch with exactly one photon per output arm.

    Its squared norm is the branch probability (zero when the branch is
    empty, e.g. perfect two-photon interference).
    """
    return {key: amp for key, amp in state.items() if key[1] // 4 != key[2] // 4}


def propagate(cfg: CouplingConfig) -> list[dict]:
    """Both environment polarization inputs (`build_input`), coupled on the
    beamsplitter: the equally weighted components of the depolarized
    environment, before any post-selection.  The config's T and p are (n,)
    arrays, propagated in one pass."""
    return [apply_beamsplitter(build_input(cfg, env_pol), cfg.transmittivity)
            for env_pol in (POL_H, POL_V)]


def pattern_probabilities(propagated: list[dict]) -> dict[str, np.ndarray]:
    """Probabilities of the three detection patterns of `propagate`'s states, (n,) arrays.

    Averaged over the depolarized environment: both photons toward Bob, both
    toward the measurement box, or one photon in each arm.  They sum to 1.
    Each total adds its keys' terms 0.5 |amp|^2 one at a time (`cumsum`), in the
    order of the states and then of their keys.
    """
    meas_count = np.array([m1 // 4 + m2 // 4 for vec in propagated for _, m1, m2 in vec])
    terms = 0.5 * abs(np.array([amp for vec in propagated for amp in vec.values()])) ** 2
    return {name: np.cumsum(terms[meas_count == count], axis=0)[-1]
            for name, count in (("both_bob", 0), ("both_meas", 2), ("one_each", 1))}


def reduce_to_ab(propagated: list[dict], outcome: str = "H") -> tuple:
    """The stage I and stage II A-B polarization outcomes of `propagate`'s states.

    `propagated` are the equally weighted classical components of the
    environment mixture (one per env_pol input).  Each is post-selected on
    one photon per arm (`postselect_one_each`), and one contraction per
    branch traces out the temporal bins and keeps the MEAS-arm polarization:
    its `outcome` ("H" or "V") slice is stage II, the sum of both slices
    stage I.  The probabilities are cumulative over the post-selection and,
    at stage II, the measurement outcome: (n, 4, 4) stacks of states and (n,)
    arrays of probabilities, all checked in one pass.
    """
    if not propagated:
        raise ValueError("at least one branch is required")
    if outcome not in ("H", "V"):
        raise ValueError(f"outcome must be 'H' or 'V', got {outcome!r}")

    rho = 0.0  # then rho[point, meas_pol, ab, AB], the MEAS-arm polarization, then A-B, whose
    # C order fixes the order of the sums below
    for vec in propagated:
        branch = postselect_one_each(vec)
        amps = np.array(list(branch.values()), dtype=complex)  # amps[key, point]
        psi = np.zeros((2, 4, 4) + amps.shape[1:], dtype=complex)
        for (a_pol, bob, meas), amp in zip(branch, amps):
            if bob // 4 != ARM_BOB or meas // 4 != ARM_MEAS:
                raise ValueError(f"mode index outside range({N_MODES}): {(bob, meas)}")
            psi[a_pol, bob % 4, meas % 4] = amp  # index % 4 is 2 * pol + time
        psi = psi.reshape(2, 2, 2, 2, 2, -1)  # a_pol, bob_pol, bob_time, meas_pol, meas_time
        rho = np.add(rho, np.einsum("abtcu...,ABtcu...->...cabAB", psi, psi.conj()).reshape(
            -1, 2, 4, 4), order="C")
    rho /= len(propagated)
    rho = np.stack([rho.sum(axis=-3), rho[..., POL_H if outcome == "H" else POL_V, :, :]])  # I, II

    probability = np.real(np.trace(rho, axis1=-2, axis2=-1))
    if probability.min() <= 1e-15:
        raise ValueError("post-selected branch has zero probability")
    states = qmat.validate_density_matrix(rho / probability[..., None, None], dim=4, stack=True)
    stages = (Stage.COUPLING, Stage.MEASUREMENT)
    return tuple(StageOutcome(state=state, probability=p, stage=stage)
                 for state, p, stage in zip(states, probability, stages))


def hom_coincidence(transmittivity, overlap):
    """Coincidence probability of a two-photon interference experiment.

    Two photons of identical polarization, one per input arm, with temporal
    overlap `overlap`, meet at a beamsplitter of the given transmittivity;
    returns the probability of finding one photon in each output arm.  At
    T = 0.5 this is (1 - p)/2, the textbook interference dip; no command calls it.
    A point is simulated as a grid of one and gives a float; the grids of a
    `CouplingConfig` (T an (n,) array, p a float or an array of T's shape) give
    an (n,) array, each point with the bits it gets alone.
    """
    cfg = CouplingConfig(transmittivity, overlap)
    t = np.atleast_1d(cfg.transmittivity)  # a point is simulated as a grid of one
    m_sig = mode_index(ARM_BOB, POL_H, TIME_SIGNAL)
    # no idle photon here; the A slot is a spectator
    amps = {(0, m_sig, mode_index(ARM_MEAS, POL_H, time)): t_amp
            for time, t_amp in _time_bins(np.full(t.shape, cfg.overlap))}
    found = norm_squared(postselect_one_each(apply_beamsplitter(amps, t)))
    return found.reshape(np.shape(cfg.transmittivity))[()]  # a point: the float of its 0-d array
