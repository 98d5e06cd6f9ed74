"""Analytic three-stage localization pipeline and its closed-form benchmarks.

Stage I couples the signal photon to the surrounding photon on a
beamsplitter and keeps the one-photon-per-arm branch; stage II measures the
outgoing surrounding photon in the H/V basis; stage III applies local,
probabilistic V-polarization filters on both arms.  For a distinguishable
surrounding photon (overlap p = 0) every stage has an exact matrix form.
For p > 0 the states come from the brute-force simulation in `fock_oracle`
(only their concurrences have closed forms), so the analytic expressions in
`concurrence_closed_form` stay available as an independent cross-check.
`coupled_stages` alone chooses between the two, for one point or a grid
(a `CouplingConfig` of arrays, whose outcomes hold stacks); a grid's stage
III states come from one `filter_states` pass.  Every stage state is an X
state, so `stage_concurrences` measures them with `measures.x_concurrence`;
`reference` keeps the Wootters `measures.concurrence` as the second route.
"""

from __future__ import annotations

import numpy as np

from . import fock_oracle, measures, qmat, states
from .params import CouplingConfig, FilterConfig, Stage, StageOutcome, check_unit_interval

# disappearance_threshold sentinel results
ALWAYS_SEPARABLE = "always-separable"
NEVER_DISAPPEARS = "never-disappears"


def stage1_couple(cfg: CouplingConfig) -> StageOutcome:
    """Signal-pair state after the coupling, conditioned on one photon per arm:
    `coupled_stages(cfg)[0]`."""
    return coupled_stages(cfg)[0]


def stage2_measure(cfg: CouplingConfig, outcome: str = "H") -> StageOutcome:
    """State after the surrounding photon is detected with the given outcome:
    `coupled_stages(cfg, outcome)[1]`."""
    return coupled_stages(cfg, outcome)[1]


class FilterBlockedError(ValueError):
    """Raised by `filter_states`; `blocked` masks the states its filters block completely."""

    def __init__(self, blocked: np.ndarray):
        super().__init__("filters fully blocked the state (zero pass rate)")
        self.blocked = blocked


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
    a 4x4 state and a 0-d pass rate.  Raises FilterBlockedError, a ValueError
    that carries the mask of the blocked states, if the filters block any
    state completely (pass rate at most 1e-15).
    """
    a, b = filters.att_a, filters.att_b
    k = np.sqrt(np.stack(np.broadcast_arrays(1.0, b, a, a * b), axis=-1))  # the diagonal of K
    # + 0.0 turns -0.0 into +0.0, which is the only zero a matrix product gives
    filtered = (states * k[..., :, None]) * k[..., None, :] + 0.0
    pass_rates = filtered.trace(axis1=-2, axis2=-1).real
    blocked = pass_rates <= 1e-15
    if np.count_nonzero(blocked):
        raise FilterBlockedError(blocked)
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
    simulation; no closed matrix form is assumed.  A grid config gives two
    outcomes of stacks: the closed form at every point, and the oracle's states
    and probabilities, from one reduction, written into its p > 0 points.
    """
    if outcome not in ("H", "V"):
        raise ValueError(f"outcome must be 'H' or 'V', got {outcome!r}")
    overlapping = cfg.overlap != 0.0  # a bool, or a mask of the grid
    grid = isinstance(overlapping, np.ndarray)  # one point stays on Python bools and floats
    if overlapping.all() if grid else overlapping:
        return fock_oracle.reduce_to_ab(fock_oracle.coupled_branches(cfg), outcome)
    t, r, q = cfg.transmittivity, cfg.reflectivity, cfg.werner_weight
    found = [(states.werner(q), t * t + r * r),
             (states.post_measurement_state(q, outcome), (t * t + r * r) / 2.0)]
    if grid and overlapping.any():
        oracle = coupled_stages(CouplingConfig(t[overlapping], cfg.overlap[overlapping]), outcome)
        for (state, probability), point in zip(found, oracle):
            state[overlapping], probability[overlapping] = point.state, point.probability
    return tuple(StageOutcome(state=state, probability=probability, stage=stage)
                 for (state, probability), stage in zip(found, (Stage.COUPLING, Stage.MEASUREMENT)))


GRID_BLOCK = 256  # points per oracle call and stacked concurrence call: bounds a grid's memory


def stage_concurrences(transmittivity, overlap, eps) -> tuple:
    """Concurrences (I, II, III at `eps`, III filtration limit) on a grid.

    The arguments broadcast: scalars give the four floats of one point, arrays
    four arrays of the broadcast shape.  Stage III filters the H-outcome stage
    II state with the `eps_to_filter` schedule; it is nan where the filters
    block the state completely (at T = 0).  An eps outside (0, 1] raises.  The
    grid is evaluated in blocks of up to GRID_BLOCK points, each as stacks:
    one `coupled_stages` call gives the block's stage I and II states, one
    `filter_states` pass scales them all by their Kraus diagonals (one more
    filters the rest when some are blocked), one stacked
    `measures.x_concurrence` call measures every stage state of the block from
    its X-state entries, and one `concurrence_closed_form` call gives its
    filtration limits.
    """
    grid = np.broadcast_arrays(transmittivity, overlap, eps)
    flat = [axis.ravel() for axis in grid]
    columns = np.empty((4, flat[0].size))
    for start in range(0, flat[0].size, GRID_BLOCK):
        t, p, e = (axis[start:start + GRID_BLOCK] for axis in flat)
        cfg = CouplingConfig(t, p)
        stage1, stage2 = (outcome.state for outcome in coupled_stages(cfg))
        filters = eps_to_filter(e, t)
        passed = np.ones(t.size, dtype=bool)
        try:
            filtered, _ = filter_states(stage2, filters)
        except FilterBlockedError as exc:  # nan at the blocked points, the rest in one more pass
            passed = ~exc.blocked
            filtered = stage2[passed]  # empty if every point is blocked
            if passed.any():
                filtered, _ = filter_states(filtered, FilterConfig(filters.att_a[passed],
                                                                   filters.att_b[passed]))
        values = measures.x_concurrence(np.concatenate([stage1, stage2, filtered]))
        block = columns[:, start:start + t.size]
        block[:2] = values[:2 * t.size].reshape(2, -1)
        block[2], block[3] = np.nan, concurrence_closed_form(Stage.FILTRATION, cfg)
        block[2, passed] = values[2 * t.size:]
    return tuple(col.reshape(grid[0].shape) if grid[0].ndim else float(col[0]) for col in columns)


def concurrence_closed_form(stage: Stage, cfg: CouplingConfig,
                            eps: float | None = None) -> float | np.ndarray:
    """Closed-form concurrence of a stage, evaluated verbatim.

    Distinguishable surrounding photon (p = 0):
      I    max(0, (2T^2 - R^2) / (2 (R^2 + T^2)))
      II   T^2 / (T^2 + R^2)
      III  with eps:  T / ((1 + eps R^2 / (2 T^2)) sqrt(T^2 + R^2)) under the
           `eps_to_filter` schedule.  Note: away from eps -> 0 this published
           form disagrees with the constructive filtering map of
           `stage3_filter` (which is what reproduces the benchmark tables);
           it is kept verbatim for comparison.  See README.
           with eps None:  the eps -> 0 limit T / sqrt(T^2 + R^2).

    Partially indistinguishable (p > 0):
      II   T |T - p (1 - T)| / (1 - (2 + p) T (1 - T))
      III  (eps None only) the asymptotic-filtration limit
           |T - p (1 - T)| / sqrt(1 - 2 (1 + p) T (1 - T)).  At the single
           point T = 1/2, p = 1 both numerator and denominator vanish and the
           constructive value 0 is returned.  Where the radicand rounds to 0
           or below (T within about 1e-8 of 1/2 at p = 1) its equal form
           |(2T - 1) + (1 - p)(1 - T)| / sqrt((2T - 1)^2 + 2 (1 - p) T (1 - T))
           is evaluated instead.  Near T = 1/2 at p = 1 the verbatim value
           can round above 1, a concurrence no state has; it is clamped at 1.
           The formula is also the T -> 0 limit of the supremum over filters;
           exactly at T = 0 no finite filter attains it.
      I    no closed form exists (only the disappearance threshold); raises.

    A grid config gives an array, each point with its own bits; finite eps takes a point.
    """
    stage = Stage(stage)
    t, p = (np.asarray(value, dtype=float) for value in (cfg.transmittivity, cfg.overlap))
    r = 1.0 - t
    if stage is Stage.COUPLING:
        if eps is not None:
            raise ValueError("eps does not apply to stage I")
        if np.any(p != 0.0):
            raise ValueError("stage I has no closed-form concurrence for overlap > 0; "
                             "use the simulation (see also disappearance_threshold)")
        value = np.maximum(0.0, (2.0 * t * t - r * r) / (2.0 * (r * r + t * t)))
    elif stage is Stage.MEASUREMENT:
        if eps is not None:
            raise ValueError("eps does not apply to stage II")
        value = np.where(p == 0.0, t * t / (t * t + r * r),
                         t * abs(t - p * (1.0 - t)) / (1.0 - (2.0 + p) * t * (1.0 - t)))
    elif eps is not None:
        if t.ndim:
            raise ValueError("the finite-eps form takes a point config, not a grid")
        if p != 0.0:
            raise ValueError("no published finite-eps concurrence for overlap > 0")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        if t == 0.0:
            raise ValueError("the published finite-eps form is undefined at T = 0")
        with np.errstate(divide="ignore", over="ignore"):  # below T ~ 1e-154 the ratio is inf
            value = t / ((1.0 + eps * r * r / (2.0 * t * t)) * np.sqrt(t * t + r * r))
    else:
        numerator = abs(t - p * (1.0 - t))  # 0 at T = 1/2, p = 1, where the root is 0 too
        radicand = 1.0 - 2.0 * (1.0 + p) * t * (1.0 - t)
        cancelled = (radicand <= 0.0) & (numerator != 0.0)  # the equal form of the docstring
        d = 2.0 * t - 1.0
        numerator = np.where(cancelled, abs(d + (1.0 - p) * (1.0 - t)), numerator)
        radicand = np.where(cancelled, d * d + 2.0 * (1.0 - p) * t * (1.0 - t), radicand)
        limit = np.divide(numerator, np.sqrt(radicand),
                          out=np.zeros_like(numerator), where=numerator != 0.0)
        value = np.where(p == 0.0, t / np.sqrt(t * t + r * r), np.minimum(limit, 1.0))
    return float(value) if np.ndim(value) == 0 else value


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


def separability_threshold() -> float:
    """Transmittivity below which the coupled (stage I) pair is separable: sqrt(2) - 1."""
    return float(np.sqrt(2.0) - 1.0)


def locate_separability_threshold(tol: float = 1e-8) -> float:
    """Locate the stage I concurrence zero crossing by bisection.

    Works on the constructed state via the concurrence functional, so it is
    independent of the closed-form threshold it is compared against.  A `tol`
    outside (0, inf) raises ValueError; a `tol` below the float spacing stops
    once the bracket holds two adjacent floats.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def entangled(t: float) -> bool:
        return measures.concurrence(stage1_couple(CouplingConfig(t)).state) > 0.0

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
