"""Shared parameter and result types for the localization pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Stage(str, Enum):
    """Protocol stage: beamsplitter coupling, environment measurement, filtration."""

    COUPLING = "I"
    MEASUREMENT = "II"
    FILTRATION = "III"


def check_unit_interval(value, name: str) -> float | np.ndarray:
    """`value` as a float in [0, 1]; a 1-D or higher array is checked entry by entry and
    returned as it is, and must hold at least one point."""
    if isinstance(value, np.ndarray) and value.ndim:
        if not value.size:
            raise ValueError(f"{name} must hold at least one point, got an empty array")
        inside = (value >= 0.0) & (value <= 1.0)  # False for nan
        if not inside.all():
            raise ValueError(f"{name} must lie in [0, 1], got {value[~inside][0]}")
        return value
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
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

    Both may be (n,) arrays: a grid of points, which `fock_oracle` evaluates
    in one call.
    """

    transmittivity: float
    overlap: float = 0.0

    def __post_init__(self):
        check_unit_interval(self.transmittivity, "transmittivity")
        check_unit_interval(self.overlap, "overlap")

    @property
    def reflectivity(self) -> float:
        return 1.0 - self.transmittivity

    @property
    def werner_weight(self) -> float:
        """q = T^2 / (T^2 + R^2), the weight of the surviving entangled term."""
        t2 = self.transmittivity**2
        r2 = self.reflectivity**2
        return t2 / (t2 + r2)


@dataclass(frozen=True)
class FilterConfig:
    """Local polarization filtering |V>_i -> sqrt(A_i) |V>_i on both arms.

    att_a / att_b: intensity attenuation of the V component on Alice's / Bob's
    arm.  1 means no filtering, 0 blocks V completely.  Either may be an
    array: the filters of a stack of states, which `protocol.filter_states`
    applies in one pass.
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
    filtering pass).
    """

    state: np.ndarray
    probability: float
    stage: Stage

    def __post_init__(self):
        if not math.isfinite(self.probability) or not -1e-9 <= self.probability <= 1.0 + 1e-9:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        object.__setattr__(self, "probability", min(max(self.probability, 0.0), 1.0))
        if not isinstance(self.stage, Stage):
            raise ValueError(f"stage must be a Stage member, got {self.stage!r}")
