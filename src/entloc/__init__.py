"""Entanglement localization after coupling to an incoherent surrounding photon.

The package simulates a three-stage protocol that recovers polarization
entanglement destroyed by a beamsplitter coupling to a depolarized,
incoherent photon: (I) the coupling itself, (II) a polarization measurement
on the outgoing surrounding photon, (III) local probabilistic filtering.
An analytic pipeline and the closed form of the interference dip (`protocol`)
are cross-checked against a brute-force second-quantized simulation
(`fock_oracle`); `measures` provides the concurrence, fidelity and CHSH
functionals, `reference` compares the pipeline with the published benchmark
tables and runs the check suite, and `cli` writes the tables, curves and reports.

The names of `__all__` are exported lazily (PEP 562): each module is
imported when one of its names is first read, so `import entloc` imports
neither the modules nor numpy.
"""

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in [  # name -> the module that defines it
    ("params", "CouplingConfig FilterConfig Stage StageOutcome"),
    ("measures", "chsh_max concurrence fidelity purity"),
    ("fock_oracle", "hom_coincidence"),
    ("states", "post_measurement_state singlet werner"),
    ("protocol", "concurrence_closed_form coupled_stages disappearance_threshold "
                 "eps_to_filter hom_closed_form overlap_from_coincidence "
                 "probability_closed_form separability_threshold stage3_filter"),
] for name in names.split()}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
