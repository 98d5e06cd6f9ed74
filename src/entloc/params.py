"""Shared parameter and result types for the localization pipeline, and the
tolerances of its density-matrix checks.  numpy is not imported here: a float
is checked in plain Python, and an array brings its own methods.  Annotations
that name numpy types are strings that are never evaluated (PEP 563)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Structural tolerances of the density-matrix checks (`qmat.validate_density_matrix`,
# and the plain-float checks of a sweep's states in `protocol._x_concurrence`).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10


class Stage(str, Enum):
    """Protocol stage: beamsplitter coupling, environment measurement, filtration."""

    COUPLING = "I"
    MEASUREMENT = "II"
    FILTRATION = "III"


def check_unit_interval(value, name: str, open_at_zero: bool = False,
                        slack: float = 0.0) -> float | np.ndarray:
    """`value` as a float in [0, 1], or in (0, 1] if `open_at_zero`, each end widened by
    `slack`; a 1-D or higher array is checked entry by entry and returned as it is, and must
    hold at least one point.  The message names the first value outside."""
    array = getattr(value, "ndim", 0)  # a numpy scalar or 0-d array is a float
    if array and not value.size:
        raise ValueError(f"{name} must hold at least one point, got an empty array")
    value = value if array else float(value)
    inside = (value > 0.0 if open_at_zero else value >= -slack) & (value <= 1.0 + slack)
    if not (inside.all() if array else inside):  # nan is never inside
        interval = "(0, 1]" if open_at_zero else "[0, 1]"
        raise ValueError(f"{name} must lie in {interval}, "
                         f"got {value[~inside][0] if array else value}")
    return value


@dataclass(frozen=True)
class CouplingConfig:
    """Beamsplitter coupling of the signal photon to the surrounding photon.

    transmittivity: intensity transmittivity T of the coupling beamsplitter
        (amplitudes scale with sqrt(T)); the reflectivity is R = 1 - T and is
        always derived, never stored.
    overlap: probability p that the surrounding photon is indistinguishable
        from the signal photon (squared wavepacket overlap).  0 means fully
        distinguishable, 1 fully indistinguishable.

    Both may be (n,) arrays of one shape: a grid of points, which
    `protocol.coupled_stages` evaluates in one call (p may also stay a float).
    A point value is kept as a float, a -0.0 as 0.0.
    """

    transmittivity: float
    overlap: float = 0.0

    def __post_init__(self):
        for name in ("transmittivity", "overlap"):
            value = check_unit_interval(getattr(self, name), name)
            if not getattr(value, "ndim", 0):
                object.__setattr__(self, name, value + 0.0)  # -0.0 + 0.0 is 0.0
        grid_shape = getattr(self.transmittivity, "shape", ())
        if getattr(self.overlap, "shape", ()) not in ((), grid_shape):
            raise ValueError("a grid of overlaps needs a grid of transmittivities of its shape")

    @property
    def reflectivity(self) -> float:
        return 1.0 - self.transmittivity

    @property
    def werner_weight(self) -> float | np.ndarray:
        """q = T^2 / (T^2 + R^2), the weight of the surviving entangled term.

        Squared as products, which round correctly (a float's `**` calls C `pow`, which
        need not), so a grid gives each point the bits of its float config."""
        t, r = self.transmittivity, self.reflectivity
        return t * t / (t * t + r * r)


@dataclass(frozen=True)
class FilterConfig:
    """Local polarization filtering |V>_i -> sqrt(A_i) |V>_i on both arms.

    att_a / att_b: intensity attenuation of the V component on Alice's / Bob's
    arm.  1 means no filtering, 0 blocks V completely.  Either may be an
    array: the filters of a stack of states, which `protocol.filter_states`
    applies in one pass (`verify`'s stage III).
    """

    att_a: float
    att_b: float

    def __post_init__(self):
        check_unit_interval(self.att_a, "att_a")
        check_unit_interval(self.att_b, "att_b")


@dataclass(frozen=True)
class StageOutcome:
    """Normalized conditional two-qubit state with its success probability.

    `state` is a 4x4 density matrix over the fixed (HH, HV, VH, VV) basis of
    the A and B polarizations; `probability` is cumulative over every
    post-selection taken so far (branch selection, measurement outcome,
    filtering pass).  A grid has an (n, 4, 4) stack of states and an (n,)
    array of probabilities, each checked and clamped alone.
    """

    state: np.ndarray
    probability: float | np.ndarray
    stage: Stage

    def __post_init__(self):
        probability = check_unit_interval(self.probability, "probability", slack=1e-9)
        clamped = (min(max(probability, 0.0), 1.0) if isinstance(probability, float)
                   else probability.clip(0.0, 1.0))  # a float stays a float
        object.__setattr__(self, "probability", clamped)
        if not isinstance(self.stage, Stage):
            raise ValueError(f"stage must be a Stage member, got {self.stage!r}")
