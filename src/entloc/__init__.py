"""Entanglement localization after coupling to an incoherent surrounding photon.

The package simulates a three-stage protocol that recovers polarization
entanglement destroyed by a beamsplitter coupling to a depolarized,
incoherent photon: (I) the coupling itself, (II) a polarization measurement
on the outgoing surrounding photon, (III) local probabilistic filtering.
An analytic pipeline (`protocol`) is cross-checked against a brute-force
second-quantized simulation (`fock_oracle`); `measures` provides the
concurrence, fidelity and CHSH functionals, `reference` compares the
pipeline with the published benchmark tables and runs the check suite, and
`cli` writes the tables, curves and reports.
"""

from .fock_oracle import hom_coincidence, overlap_from_coincidence, simulate
from .measures import chsh_max, concurrence, fidelity, purity
from .params import CouplingConfig, FilterConfig, Stage, StageOutcome
from .protocol import (
    concurrence_closed_form,
    disappearance_threshold,
    eps_to_filter,
    probability_closed_form,
    separability_threshold,
    stage1_couple,
    stage2_measure,
    stage3_filter,
)
from .states import depolarized_qubit, post_measurement_state, singlet, werner

__version__ = "0.1.0"

__all__ = [
    "CouplingConfig",
    "FilterConfig",
    "Stage",
    "StageOutcome",
    "chsh_max",
    "concurrence",
    "concurrence_closed_form",
    "depolarized_qubit",
    "disappearance_threshold",
    "eps_to_filter",
    "fidelity",
    "hom_coincidence",
    "overlap_from_coincidence",
    "post_measurement_state",
    "probability_closed_form",
    "purity",
    "separability_threshold",
    "simulate",
    "singlet",
    "stage1_couple",
    "stage2_measure",
    "stage3_filter",
    "werner",
    "__version__",
]
