"""Analytic three-stage localization pipeline and its closed-form benchmarks.

Stage I couples the signal photon to the surrounding photon on a
beamsplitter and keeps the one-photon-per-arm branch; stage II measures the
outgoing surrounding photon in the H/V basis; stage III applies local,
probabilistic V-polarization filters on both arms.  For a distinguishable
surrounding photon (overlap p = 0) every stage has an exact matrix form.
For p > 0 the states come from the brute-force simulation in `fock_oracle`
(only their concurrences have closed forms), so the analytic expressions in
`concurrence_closed_form` stay available as an independent cross-check; a
grid's p > 0 points share one oracle call per block.
"""

from __future__ import annotations

import numpy as np

from . import fock_oracle, measures, qmat, states
from .params import CouplingConfig, FilterConfig, Stage, StageOutcome, check_unit_interval

# disappearance_threshold sentinel results
ALWAYS_SEPARABLE = "always-separable"
NEVER_DISAPPEARS = "never-disappears"


def stage1_couple(cfg: CouplingConfig) -> StageOutcome:
    """Signal-pair state after the coupling, conditioned on one photon per arm.

    Distinguishable surrounding photon (p = 0): a Werner state with
    q = T^2/(T^2+R^2) and success probability T^2 + R^2.  For p > 0 the state
    and probability come from the brute-force simulation; no closed matrix
    form is assumed.
    """
    if cfg.overlap == 0.0:
        state = states.werner(cfg.werner_weight)
        probability = cfg.transmittivity**2 + cfg.reflectivity**2
        return StageOutcome(state=state, probability=probability, stage=Stage.COUPLING)
    return fock_oracle.simulate(cfg)


def stage2_measure(cfg: CouplingConfig, outcome: str = "H") -> StageOutcome:
    """State after the surrounding photon is detected with the given outcome.

    For p = 0, outcome H yields q |psi-><psi-| + (1-q) |V>_A<V| (x) I_B/2
    with probability (T^2 + R^2)/2; outcome V yields the mirror state with
    the same probability.  Both outcomes carry the same concurrence, so no
    feed-forward correction is modeled; the V-branch state is reported as is.
    For p > 0 the state comes from the brute-force simulation.
    """
    if outcome not in ("H", "V"):
        raise ValueError(f"outcome must be 'H' or 'V', got {outcome!r}")
    if cfg.overlap == 0.0:
        state = states.post_measurement_state(cfg.werner_weight, outcome)
        probability = (cfg.transmittivity**2 + cfg.reflectivity**2) / 2.0
        return StageOutcome(state=state, probability=probability, stage=Stage.MEASUREMENT)
    return fock_oracle.simulate(cfg, outcome)


def filter_kraus(filters: FilterConfig) -> np.ndarray:
    """Kraus element of the two-arm V filter in the (HH, HV, VH, VV) basis.

    diag(1, sqrt(A_B), sqrt(A_A), sqrt(A_A A_B)): the V amplitude is scaled
    by sqrt(A_A) on arm A and sqrt(A_B) on arm B.  Attenuation arrays give a
    (..., 4, 4) stack of the Kraus elements of their broadcast shape.
    """
    a, b = filters.att_a, filters.att_b
    root_ab = np.sqrt(a * b)
    kraus = np.zeros(root_ab.shape + (4, 4), dtype=complex)
    kraus[..., 0, 0] = 1.0
    kraus[..., 1, 1] = np.sqrt(b)
    kraus[..., 2, 2] = np.sqrt(a)
    kraus[..., 3, 3] = root_ab
    return kraus


def filter_states(states, filters: FilterConfig) -> tuple:
    """Apply the local V filters to a (..., 4, 4) stack of stage II states.

    Each state is filtered from first principles: K rho K with the diagonal
    Kraus element of `filter_kraus`, renormalized by its pass rate
    tr(K rho K).  The attenuations of `filters` are floats or arrays that
    broadcast against the stack's leading shape.  Returns the filtered
    states, checked in one stacked `validate_density_matrix` pass, and their
    pass rates; one 4x4 state gives a 4x4 state and a 0-d pass rate.  Raises
    ValueError if the filters block any state completely.
    """
    kraus = filter_kraus(filters)
    filtered = kraus @ states @ kraus  # kraus is real diagonal
    pass_rates = filtered.trace(axis1=-2, axis2=-1).real
    if np.count_nonzero(pass_rates <= 1e-15):
        raise ValueError("filters fully blocked the state (zero pass rate)")
    filtered = qmat.validate_density_matrix(filtered / pass_rates[..., None, None], dim=4,
                                            stack=True)
    return filtered, pass_rates


def stage3_filter(prev: StageOutcome, filters: FilterConfig) -> StageOutcome:
    """Apply the local V filters to a post-measurement (stage II) state.

    `filter_states` of the one state: K rho K with the diagonal Kraus element
    above, renormalized.  The returned probability is cumulative:
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


def eps_to_filter(eps: float, transmittivity: float) -> FilterConfig:
    """One-parameter attenuation schedule A_A = eps T^2/(T^2+R^2), A_B = eps.

    This is the schedule whose eps -> 0 limit maximizes the filtered
    concurrence at p = 0; eps must lie in (0, 1].
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    cfg = CouplingConfig(transmittivity)
    return FilterConfig(att_a=eps * cfg.werner_weight, att_b=eps)


def coupled_stages(cfg: CouplingConfig) -> tuple:
    """`stage1_couple(cfg)` and `stage2_measure(cfg, "H")`, from one propagation when p > 0.

    A grid config (arrays of T and of p > 0) gives the two lists of its points'
    outcomes, from one propagation of the whole grid.
    """
    if isinstance(cfg.overlap, np.ndarray) or cfg.overlap != 0.0:
        branches = fock_oracle.coupled_branches(cfg)
        return fock_oracle.reduce_to_ab(branches), fock_oracle.reduce_to_ab(branches, "H")
    return stage1_couple(cfg), stage2_measure(cfg, "H")


GRID_BLOCK = 256  # points per oracle call and stacked `concurrence` call: bounds a grid's memory


def stage_concurrences(transmittivity, overlap, eps) -> tuple:
    """Concurrences (I, II, III at `eps`, III filtration limit) on a grid.

    The arguments broadcast: scalars give the four floats of one point, arrays
    four arrays of the broadcast shape.  Stage III filters the H-outcome stage
    II state with the `eps_to_filter` schedule; it is nan where the filters
    block the state completely (at T = 0).  An eps outside (0, 1] raises.  The
    grid is evaluated in blocks of up to GRID_BLOCK points: one oracle
    propagation serves the block's p > 0 points, and one stacked
    `measures.concurrence` call measures every stage state of the block.
    """
    grid = np.broadcast_arrays(transmittivity, overlap, eps)
    flat = [axis.ravel() for axis in grid]
    columns = np.empty((4, flat[0].size))
    for start in range(0, flat[0].size, GRID_BLOCK):
        t, p, e = (axis[start:start + GRID_BLOCK] for axis in flat)
        points = [(CouplingConfig(ti, pi), eps_to_filter(ei, ti))
                  for ti, pi, ei in zip(t.tolist(), p.tolist(), e.tolist())]
        overlapping = [i for i, (cfg, _) in enumerate(points) if cfg.overlap != 0.0]
        oracle = {}
        if overlapping:
            oracle_stages = coupled_stages(CouplingConfig(t[overlapping], p[overlapping]))
            oracle = dict(zip(overlapping, zip(*oracle_stages)))
        coupled, filtered, unblocked, limits = [], [], [], []
        for i, (cfg, filters) in enumerate(points):
            stage1, stage2 = oracle[i] if i in oracle else coupled_stages(cfg)
            try:
                filtered.append(stage3_filter(stage2, filters).state)
                unblocked.append(len(limits))
            except ValueError:
                pass
            coupled += [stage1.state, stage2.state]
            limits.append(concurrence_closed_form(Stage.FILTRATION, cfg, eps=None))
        values = measures.concurrence(np.array(coupled + filtered))
        block = columns[:, start:start + len(limits)]
        block[:2] = values[:len(coupled)].reshape(-1, 2).T
        block[2], block[3] = np.nan, limits
        block[2, unblocked] = values[len(coupled):]
    return tuple(col.reshape(grid[0].shape) if grid[0].ndim else float(col[0]) for col in columns)


def concurrence_closed_form(stage: Stage, cfg: CouplingConfig, eps: float | None = None) -> float:
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
           constructive value 0 is returned.  The formula is also the T -> 0
           limit of the supremum over filters; exactly at T = 0 no finite
           filter attains it.
      I    no closed form exists (only the disappearance threshold); raises.
    """
    stage = Stage(stage)
    t = cfg.transmittivity
    r = cfg.reflectivity
    p = cfg.overlap
    if stage is Stage.COUPLING:
        if eps is not None:
            raise ValueError("eps does not apply to stage I")
        if p != 0.0:
            raise ValueError(
                "stage I has no closed-form concurrence for overlap > 0; "
                "use the simulation (see also disappearance_threshold)"
            )
        return max(0.0, (2.0 * t * t - r * r) / (2.0 * (r * r + t * t)))
    if stage is Stage.MEASUREMENT:
        if eps is not None:
            raise ValueError("eps does not apply to stage II")
        if p == 0.0:
            return t * t / (t * t + r * r)
        return t * abs(t - p * (1.0 - t)) / (1.0 - (2.0 + p) * t * (1.0 - t))
    # Stage.FILTRATION
    if p == 0.0:
        if eps is None:
            return float(t / np.sqrt(t * t + r * r))
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        if t == 0.0:
            raise ValueError("the published finite-eps form is undefined at T = 0")
        return float(t / ((1.0 + eps * r * r / (2.0 * t * t)) * np.sqrt(t * t + r * r)))
    if eps is not None:
        raise ValueError("no published finite-eps concurrence for overlap > 0")
    numerator = abs(t - p * (1.0 - t))
    if numerator == 0.0:
        return 0.0
    return float(numerator / np.sqrt(1.0 - 2.0 * (1.0 + p) * t * (1.0 - t)))


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
