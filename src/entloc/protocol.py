"""Analytic three-stage localization pipeline and its closed-form benchmarks.

Stage I couples the signal photon to the surrounding photon on a
beamsplitter and keeps the one-photon-per-arm branch; stage II measures the
outgoing surrounding photon in the H/V basis; stage III applies local,
probabilistic V-polarization filters on both arms.  For a distinguishable
surrounding photon (overlap p = 0) every stage has an exact matrix form.
For p > 0 the states come from the brute-force simulation in `fock_oracle`
(only their concurrences have closed forms), so the analytic expressions in
`concurrence_closed_form` stay available as an independent cross-check.
`coupled_stages` is the one entry to the stage I and II states and alone
chooses between the two routes (at p > 0 it returns the oracle's
`reduce_to_ab(propagate(cfg), outcome)`), for one point or a grid
(a `CouplingConfig` of arrays, whose outcomes hold stacks); `filter_states`
filters a stack of stage II states in one pass (`verify`'s stage III).

`stage_concurrences` measures every sweep point one way, in plain floats,
from the entries of its X states: the closed form gives them at p = 0, a
block of oracle stacks at p > 0.  `concurrence_closed_form` and the interference
dip `hom_closed_form` are arithmetic on one point.  numpy, `fock_oracle`,
`measures`, `qmat` and `states` are imported only by the functions that use
them, so a p = 0 sweep and `hom` never import numpy and no sweep imports
`measures`.  `reference` keeps the Wootters `measures.concurrence` as the second route.
"""

from __future__ import annotations

import math

from .params import (EIGVAL_FLOOR, TRACE_TOL, CouplingConfig, FilterConfig, Stage, StageOutcome,
                     check_unit_interval)

# disappearance_threshold sentinel results
ALWAYS_SEPARABLE = "always-separable"
NEVER_DISAPPEARS = "never-disappears"

# the HV and VH diagonal entries and the HV-VH coherence of |psi-><psi-| as
# `states.singlet_density` rounds them: (1/sqrt(2))^2, two ulps below 1/2
_SINGLET_ENTRY = (1.0 / math.sqrt(2.0)) * (1.0 / math.sqrt(2.0))


class FilterBlockedError(ValueError):
    """Raised by `filter_states` and `filter_x_state` where the filters block a state
    completely (pass rate at most 1e-15)."""

    def __init__(self):
        super().__init__("filters fully blocked the state (zero pass rate)")


def filter_states(states, filters: FilterConfig) -> tuple:
    """Apply the local V filters to a (..., 4, 4) stack of stage II states.

    Each state is filtered from first principles: K rho K with the Kraus
    element K = diag(1, sqrt(A_B), sqrt(A_A), sqrt(A_A A_B)) in the (HH, HV,
    VH, VV) basis, which scales the V amplitude by sqrt(A_A) on arm A and
    sqrt(A_B) on arm B, renormalized by its pass rate tr(K rho K).  K is
    diagonal, so each entry rho_ij is scaled by K_ii and then by K_jj, which
    gives the bits of the matrix product.  The attenuations of `filters` are
    floats or arrays that broadcast against the stack's leading shape.
    Returns the filtered states, checked in one stacked
    `validate_density_matrix` pass, and their pass rates; one 4x4 state gives
    a 4x4 state and a 0-d pass rate.  Raises FilterBlockedError if the
    filters block any state completely (pass rate at most 1e-15).
    """
    import numpy as np

    from . import qmat

    a, b = filters.att_a, filters.att_b
    k = np.sqrt(np.stack(np.broadcast_arrays(1.0, b, a, a * b), axis=-1))  # the diagonal of K
    # + 0.0 turns -0.0 into +0.0, which is the only zero a matrix product gives
    filtered = (states * k[..., :, None]) * k[..., None, :] + 0.0
    pass_rates = filtered.trace(axis1=-2, axis2=-1).real
    if np.count_nonzero(pass_rates <= 1e-15):
        raise FilterBlockedError
    filtered = qmat.validate_density_matrix(filtered / pass_rates[..., None, None], dim=4,
                                            stack=True)
    return filtered, pass_rates


def stage3_filter(prev: StageOutcome, filters: FilterConfig) -> StageOutcome:
    """Apply the local V filters to a post-measurement (stage II) state.

    `filter_states` of the one state: K rho K with its diagonal Kraus element,
    renormalized.  The returned probability is cumulative:
    prev.probability times the filter pass rate tr(K rho K).
    """
    if prev.stage is not Stage.MEASUREMENT:
        raise ValueError(
            f"filtration applies to a stage II (post-measurement) outcome, got stage {prev.stage.value}"
        )
    state, pass_rate = filter_states(prev.state, filters)
    return StageOutcome(
        state=state,
        probability=prev.probability * float(pass_rate),
        stage=Stage.FILTRATION,
    )


def filter_x_state(hh: float, hv: float, vh: float, vv: float, coherence: float,
                   att_a: float, att_b: float) -> tuple:
    """`filter_states` of one X state with no HH-VV coherence, in plain floats.

    The state is its diagonal (hh, hv, vh, vv) and the modulus of its HV-VH
    coherence.  The Kraus diagonal scales each entry in the order of
    `filter_states`; the pass rate sums the diagonal pairwise, as numpy's
    trace does; and each entry is divided by it as numpy divides a complex
    entry by a real one, times 1 / rate.  Returns the five filtered entries,
    unchecked (see `_point_concurrences`).  Raises FilterBlockedError where the
    pass rate is at most 1e-15.
    """
    ka, kb, kab = math.sqrt(att_a), math.sqrt(att_b), math.sqrt(att_a * att_b)
    hv, vh, vv = (hv * kb) * kb, (vh * ka) * ka, (vv * kab) * kab
    rate = (hh + hv) + (vh + vv)
    if rate <= 1e-15:
        raise FilterBlockedError
    inverse = 1.0 / rate
    return hh * inverse, hv * inverse, vh * inverse, vv * inverse, (coherence * kb) * ka * inverse


def _x_concurrence(hh: float, hv: float, vh: float, vv: float, coherence: float) -> float:
    """Concurrence of one X state with no HH-VV coherence, read off its entries in plain
    floats: 2 max(0, |rho_HV,VH| - sqrt(rho_HH rho_VV)) (Yu and Eberly, Quantum Inf.
    Comput. 7, 459 (2007)).

    The state gets the checks of `qmat.validate_density_matrix`, with its
    messages: trace 1 within TRACE_TOL (summed pairwise, like numpy's trace),
    then the eigenvalues at or above EIGVAL_FLOOR: hh and vv, and those of
    the (HV, VH) block, (hv + vh)/2 -+ hypot((hv - vh)/2, coherence).  It is
    Hermitian by construction: its coherence is one modulus.  Of the two
    terms of the concurrence, the HH-VV one, 0 - sqrt(hv vh), is never
    positive, so it never decides the value.
    """
    trace = (hh + hv) + (vh + vv)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace is {complex(trace)}, expected 1")
    low = (hv + vh) / 2.0 - math.hypot((hv - vh) / 2.0, coherence)
    if low < EIGVAL_FLOOR or hh < EIGVAL_FLOOR or vv < EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {min(low, hh, vv):.3e}")
    product = hh * vv
    value = coherence - (math.sqrt(product) if product > 0.0 else 0.0)
    return 2.0 * value if value > 0.0 else 0.0  # max(0.0, value): -0.0 gives 0.0


def _point_concurrences(stage1, stage2, att_a: float, att_b: float, limit: float) -> tuple:
    """The four `stage_concurrences` values of one point from the entries (hh, hv, vh, vv,
    |HV-VH coherence|) of its stage I and H-outcome stage II states, its attenuations and
    its filtration limit.  Each state is checked and measured by `_x_concurrence`, stage I
    first; stage III is the `filter_x_state` of stage II, nan where the filters block it."""
    coupled, measured = _x_concurrence(*stage1), _x_concurrence(*stage2)
    try:
        filtered = _x_concurrence(*filter_x_state(*stage2, att_a, att_b))
    except FilterBlockedError:
        filtered = math.nan
    return coupled, measured, filtered, limit


def distinguishable_concurrences(transmittivity: float, eps: float) -> tuple:
    """The four `stage_concurrences` values of one p = 0 point, in plain floats.

    With q = T^2/(T^2 + R^2) and s the (HV, HV) entry of |psi-><psi-|, the
    stage I (Werner) state has the diagonal ((1-q)/4, qs + (1-q)/4,
    qs + (1-q)/4, (1-q)/4) and the HV-VH coherence qs; the H-outcome stage II
    state has (0, qs, qs + (1-q)/2, (1-q)/2) and qs; `_point_concurrences`
    measures them under the `eps_to_filter` schedule, with `_filtration_limit`.
    Each float operation is the one of `coupled_stages` and `filter_states` on
    the 4x4 matrices, in their order, so every value has their bits.  A T of
    -0.0 is read as 0.0.  T outside [0, 1] or eps outside (0, 1] raises
    ValueError; the stage III value is nan where the filters block the stage II
    state (pass rate at most 1e-15).
    """
    t, eps = float(transmittivity) + 0.0, float(eps)  # -0.0 + 0.0 is 0.0
    if not (0.0 <= t <= 1.0 and 0.0 < eps <= 1.0):  # nan fails too; raise the checks' message
        check_unit_interval(t, "transmittivity")
        check_unit_interval(eps, "eps", open_at_zero=True)
    r = 1.0 - t
    q = t * t / (t * t + r * r)
    s = q * _SINGLET_ENTRY
    coupled, measured = (1.0 - q) * 0.25, (1.0 - q) * 0.5
    return _point_concurrences((coupled, s + coupled, s + coupled, coupled, s),
                               (0.0, s, s + measured, measured, s),
                               eps * q, eps, _filtration_limit(t, 0.0))


def eps_to_filter(eps, transmittivity) -> FilterConfig:
    """One-parameter attenuation schedule A_A = eps T^2/(T^2+R^2), A_B = eps.

    This is the schedule whose eps -> 0 limit maximizes the filtered
    concurrence at p = 0; eps must lie in (0, 1].  Arrays of eps or T give
    the attenuation arrays of their points, each with the bits of its floats.
    """
    eps = check_unit_interval(eps, "eps", open_at_zero=True)
    return FilterConfig(att_a=eps * CouplingConfig(transmittivity).werner_weight, att_b=eps)


def coupled_stages(cfg: CouplingConfig, outcome: str = "H") -> tuple:
    """The stage I outcome and the stage II outcome of a measured `outcome` (H or V).

    Distinguishable surrounding photon (p = 0): stage I is a Werner state with
    q = T^2/(T^2+R^2) and success probability T^2 + R^2.  Outcome H gives
    q |psi-><psi-| + (1-q) |V>_A<V| (x) I_B/2 with probability (T^2 + R^2)/2,
    outcome V the mirror state with the same probability.  Both outcomes carry
    the same concurrence, so no feed-forward correction is modeled.  For p > 0
    both stages come from one `fock_oracle.reduce_to_ab` call of the brute-force
    simulation, which takes a point as a grid of one; no closed matrix form is
    assumed.  A grid config gives two outcomes of stacks, from one route: a
    grid that mixes p = 0 and p > 0 points raises ValueError.
    """
    import numpy as np

    from . import fock_oracle, states

    if outcome not in ("H", "V"):
        raise ValueError(f"outcome must be 'H' or 'V', got {outcome!r}")
    overlapping = np.asarray(cfg.overlap != 0.0)  # a mask of the grid, 0-d for a point
    if overlapping.all():  # the oracle takes a point as a grid of one
        shape, t = np.shape(cfg.transmittivity), np.atleast_1d(cfg.transmittivity)
        grid = CouplingConfig(t, np.full(t.shape, cfg.overlap))
        return tuple(StageOutcome(found.state.reshape(shape + (4, 4)),
                                  found.probability.reshape(shape), found.stage)
                     for found in fock_oracle.reduce_to_ab(fock_oracle.propagate(grid), outcome))
    if overlapping.any():
        raise ValueError("a grid of overlaps must be 0 everywhere (the closed form) "
                         "or nowhere (the simulation)")
    t, r, q = cfg.transmittivity, cfg.reflectivity, cfg.werner_weight
    found = [(states.werner(q), t * t + r * r),
             (states.post_measurement_state(q, outcome), (t * t + r * r) / 2.0)]
    return tuple(StageOutcome(state=state, probability=probability, stage=stage)
                 for (state, probability), stage in zip(found, (Stage.COUPLING, Stage.MEASUREMENT)))


GRID_BLOCK = 256  # points per oracle call and stacked concurrence call: bounds a grid's memory


def stage_concurrences(ts: list, ps: list, es: list) -> tuple:
    """Concurrences (I, II, III at eps, III filtration limit) at the points of three lists.

    `ts`, `ps` and `es` hold each point's T, p and eps and have one length (a
    point is a list of one); returns four lists.  Stage III filters the
    H-outcome stage II state with the `eps_to_filter` schedule and is nan where
    the filters block it (at T = 0).  A value outside its range raises ValueError.

    Each block of up to GRID_BLOCK points is measured in plain floats by
    `_point_concurrences`, with its attenuations and `_filtration_limit`: a
    p = 0 point takes its X-state entries from the closed form
    (`distinguishable_concurrences`), the block's p > 0 points from one
    `coupled_stages` call (one oracle propagation and one stacked check).
    """
    if not len(ts) == len(ps) == len(es):
        raise ValueError("the lists of a grid must have one length, "
                         f"got {sorted({len(ts), len(ps), len(es)})}")
    rows = []
    for start in range(0, len(ts), GRID_BLOCK):
        points = list(zip(ts[start:start + GRID_BLOCK], ps[start:start + GRID_BLOCK],
                          es[start:start + GRID_BLOCK]))
        overlapping = [point for point in points if point[1] != 0.0]
        measured = iter(_overlapping_rows(*zip(*overlapping)) if overlapping else ())
        rows += [next(measured) if p != 0.0 else distinguishable_concurrences(t, e)
                 for t, p, e in points]
    return tuple(map(list, zip(*rows))) if rows else ([], [], [], [])


def _overlapping_rows(ts: tuple, ps: tuple, es: tuple) -> list:
    """`stage_concurrences` rows of p > 0 points, read off one block of oracle stacks (see
    there).  The config of the block checks T and p, then each eps gets the check of
    `eps_to_filter`.  An entry off the diagonal and the HV-VH coherence raises: only an X
    state with no HH-VV coherence has the concurrence of `_x_concurrence`."""
    import numpy as np

    cfg = CouplingConfig(np.array(ts, dtype=float), np.array(ps, dtype=float))
    es = [check_unit_interval(e, "eps", open_at_zero=True) for e in es]
    att_a = [e * q for e, q in zip(es, cfg.werner_weight.tolist())]  # eps_to_filter's bits
    stacks = np.stack([outcome.state for outcome in coupled_stages(cfg)])  # stage I, stage II
    outside = ~np.eye(4, dtype=bool)
    outside[1, 2] = outside[2, 1] = False
    if np.count_nonzero(stacks[..., outside]):
        raise ValueError("not an X state: an entry off the diagonal and the HV-VH coherence "
                         "is nonzero")
    entries = np.concatenate([stacks.diagonal(axis1=-2, axis2=-1).real,
                              abs(stacks[..., 1, 2, None])], axis=-1)
    limits = map(_filtration_limit, cfg.transmittivity.tolist(), cfg.overlap.tolist())
    return list(map(_point_concurrences, *entries.tolist(), att_a, es, limits))


def _filtration_limit(t: float, p: float) -> float:
    """The stage III limit of one point (`concurrence_closed_form`, eps None) in floats."""
    if p == 0.0:
        return t / math.sqrt(t * t + (1.0 - t) * (1.0 - t))
    d = 2.0 * t - 1.0
    numerator = abs(d + (1.0 - p) * (1.0 - t))  # |T - p (1 - T)|, within about 4e-16
    if numerator < 1e-3:  # near its zero that error shows in 10 digits: round it once
        from fractions import Fraction
        numerator = abs(float(Fraction(t) - Fraction(p) * (1 - Fraction(t))))
    radicand = d * d + 2.0 * (1.0 - p) * t * (1.0 - t)  # a sum of non-negative terms
    return min(numerator / math.sqrt(radicand), 1.0) if numerator != 0.0 else 0.0  # 0/0: 0


def _measurement_closed_form(t: float, p: float) -> float:
    """The stage II closed form of one point (`concurrence_closed_form`) in floats."""
    r = 1.0 - t
    return (t * t / (t * t + r * r) if p == 0.0
            else t * abs(t - p * (1.0 - t)) / (1.0 - (2.0 + p) * t * (1.0 - t)))


def concurrence_closed_form(stage: Stage, cfg: CouplingConfig, eps: float | None = None) -> float:
    """Closed-form concurrence of a stage at one point, evaluated verbatim in plain floats.

    Distinguishable surrounding photon (p = 0):
      I    max(0, (2T^2 - R^2) / (2 (R^2 + T^2)))
      II   T^2 / (T^2 + R^2)
      III  with eps:  T / ((1 + eps R^2 / (2 T^2)) sqrt(T^2 + R^2)) under the
           `eps_to_filter` schedule.  Note: away from eps -> 0 this published
           form disagrees with the constructive filtering map of
           `stage3_filter` (which is what reproduces the benchmark tables);
           it is kept verbatim for comparison.  See README.  It is 0 where
           2 T^2 rounds to 0.
           with eps None:  the eps -> 0 limit T / sqrt(T^2 + R^2).

    Partially indistinguishable (p > 0):
      II   T |T - p (1 - T)| / (1 - (2 + p) T (1 - T))
      III  (eps None only) the asymptotic-filtration limit
           |T - p (1 - T)| / sqrt(1 - 2 (1 + p) T (1 - T)), evaluated in its
           equal form
           |(2T - 1) + (1 - p)(1 - T)| / sqrt((2T - 1)^2 + 2 (1 - p) T (1 - T)),
           whose radicand cannot cancel: the verbatim one does near T = 1/2
           at p close to 1, where the exact value (1 at p = 1, T != 1/2) then
           loses digits as far out as T = 0.49998.  A numerator below 1e-3,
           near the zero T = p (1 - T), is rounded once from exact rational
           arithmetic.  At the single point T = 1/2, p = 1 both numerator and
           denominator vanish and the constructive value 0 is returned.  A
           value that rounds above 1, a concurrence no state has, is clamped
           at 1.  The formula is also the T -> 0 limit of the supremum over
           filters; exactly at T = 0 no finite filter attains it.
      I    no closed form exists (only the disappearance threshold); raises.

    A grid config raises ValueError: map the function over the grid's points.
    """
    stage = Stage(stage)
    if getattr(cfg.transmittivity, "ndim", 0):
        raise ValueError("the closed forms take a point config, not a grid")
    if eps is not None and stage is not Stage.FILTRATION:
        raise ValueError(f"eps does not apply to stage {stage.value}")
    t, p = float(cfg.transmittivity), float(cfg.overlap)
    r = 1.0 - t
    if stage is Stage.COUPLING:
        if p != 0.0:
            raise ValueError("stage I has no closed-form concurrence for overlap > 0; "
                             "use the simulation (see also disappearance_threshold)")
        return max(0.0, (2.0 * t * t - r * r) / (2.0 * (r * r + t * t)))
    if stage is Stage.MEASUREMENT:
        return _measurement_closed_form(t, p)
    if eps is None:
        return _filtration_limit(t, p)
    if p != 0.0:
        raise ValueError("no published finite-eps concurrence for overlap > 0")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if t == 0.0:
        raise ValueError("the published finite-eps form is undefined at T = 0")
    if 2.0 * t * t == 0.0:  # the ratio is inf, so the form is T / inf
        return 0.0
    return t / ((1.0 + eps * r * r / (2.0 * t * t)) * math.sqrt(t * t + r * r))


def probability_closed_form(stage: Stage, cfg: CouplingConfig, eps: float | None = None) -> float:
    """Closed-form success probability of a stage (p = 0 only), verbatim.

      I    R^2 + T^2
      II   (R^2 + T^2) / 2
      III  eps T^2 / 2 + eps^2 R^2 / 4  (eps required)

    The stage III form uses a different normalization than the cumulative
    probability returned by `stage3_filter` (stage II probability times the
    filter pass rate); the CLI reports both.  See README.  For overlap > 0 no
    probability formulas are published and the simulation provides them, so
    this raises.
    """
    stage = Stage(stage)
    if cfg.overlap != 0.0:
        raise ValueError(
            "closed-form probabilities are published for the distinguishable case only"
        )
    t = cfg.transmittivity
    r = cfg.reflectivity
    if stage is Stage.COUPLING:
        if eps is not None:
            raise ValueError("eps does not apply to stage I")
        return r * r + t * t
    if stage is Stage.MEASUREMENT:
        if eps is not None:
            raise ValueError("eps does not apply to stage II")
        return (r * r + t * t) / 2.0
    if eps is None or not 0.0 < eps <= 1.0:
        raise ValueError("stage III requires eps in (0, 1]")
    return 0.5 * eps * t * t + 0.25 * eps * eps * r * r


def hom_closed_form(transmittivity: float, overlap: float) -> tuple:
    """The two-photon interference dip at one point in plain floats: the coincidence
    T^2 + R^2 - 2pTR (simulated by `fock_oracle.hom_coincidence`) and the visibility, its
    relative dip below p = 0, as 2pTR / (T^2 + R^2), which cancels nowhere; at T = 1/2 they
    are (1 - p)/2 and p.  T = 0 or 1, where the photons never meet, raises ValueError."""
    t = check_unit_interval(transmittivity, "transmittivity")
    if t == 0.0 or t == 1.0:
        raise ValueError("no two-photon interference at T = 0 or T = 1")
    r = 1.0 - t
    base, mix = t * t + r * r, 2.0 * check_unit_interval(overlap, "overlap") * t * r
    return base - mix, mix / base


def overlap_from_coincidence(coincidence: float, transmittivity: float = 0.5) -> float:
    """Invert `hom_closed_form`: p = (T^2 + R^2 - coincidence) / (2 T R), at T = 1/2
    1 - 2 coincidence, clamped to [0, 1]; a p more than 1e-9 outside it raises."""
    base, _ = hom_closed_form(transmittivity, 0.0)  # T^2 + R^2, with the checks of T
    t = float(transmittivity)
    p = (base - float(coincidence)) / (2.0 * t * (1.0 - t))
    if not -1e-9 <= p <= 1.0 + 1e-9:
        raise ValueError(f"coincidence rate {coincidence} is outside the physical range")
    return min(max(p, 0.0), 1.0)


def separability_threshold() -> float:
    """Transmittivity below which the coupled (stage I) pair is separable: sqrt(2) - 1."""
    return math.sqrt(2.0) - 1.0


def locate_separability_threshold(tol: float = 1e-8) -> float:
    """Locate the stage I concurrence zero crossing by bisection.

    Works on the constructed state via the concurrence functional, so it is
    independent of the closed-form threshold it is compared against.  A `tol`
    outside (0, inf) raises ValueError; a `tol` below the float spacing stops
    once the bracket holds two adjacent floats.
    """
    from . import measures

    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def entangled(t: float) -> bool:
        return measures.concurrence(coupled_stages(CouplingConfig(t))[0].state) > 0.0

    lo, hi = 0.25, 0.60
    if entangled(lo) or not entangled(hi):
        raise RuntimeError("bisection bracket does not straddle the crossing")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if entangled(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def disappearance_threshold(transmittivity: float) -> float | str:
    """Overlap above which the stage I pair is separable.

    Evaluates (T^2 + 2T - 1) / (2 T (1 - T)).  Returns ALWAYS_SEPARABLE when
    the expression is negative (no overlap rescues the coupled pair) and
    NEVER_DISAPPEARS when it exceeds 1 (the pair stays entangled for every
    overlap in [0, 1]); otherwise the threshold itself.
    """
    t = float(transmittivity)
    if not 0.0 < t < 1.0:
        raise ValueError(f"degenerate coupling: threshold defined for 0 < T < 1, got {t}")
    value = (t * t + 2.0 * t - 1.0) / (2.0 * t * (1.0 - t))
    if value < 0.0:
        return ALWAYS_SEPARABLE
    if value > 1.0:
        return NEVER_DISAPPEARS
    return value


def stage2_concurrence_zero(transmittivity: float) -> float:
    """Overlap p = T / (1 - T) at which the post-measurement concurrence vanishes.

    Defined for 0 < T < 1/2, where the zero lies inside [0, 1]; for larger T
    the post-measurement state is entangled at every overlap.
    """
    t = float(transmittivity)
    if not 0.0 < t < 0.5:
        raise ValueError(f"zero crossing lies outside [0, 1] for T >= 1/2 (got T = {t})")
    return t / (1.0 - t)
