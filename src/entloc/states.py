"""Constructors for the named polarization states of the protocol.

Conventions, fixed package-wide: subsystem order (A, B), polarization H = 0,
V = 1, two-qubit basis order (HH, HV, VH, VV).
"""

from __future__ import annotations

import numpy as np

from .params import check_unit_interval

SQRT2 = float(np.sqrt(2.0))


def pure_density(amplitudes) -> np.ndarray:
    """|psi><psi| for a normalized amplitude vector."""
    vec = np.asarray(amplitudes, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"amplitudes are not normalized (norm {norm})")
    return np.outer(vec, vec.conj())


def singlet() -> np.ndarray:
    """Maximally entangled pair (|HV> - i |VH>) / sqrt(2).

    Amplitudes (0, 1/sqrt(2), -i/sqrt(2), 0) over (HH, HV, VH, VV); the
    relative phase is -i rather than the textbook -1.  Entanglement measures
    are insensitive to the difference, but fidelity comparisons against the
    pipeline states are not, so this exact form is canonical here.
    """
    return np.array([0.0, 1.0, -1.0j, 0.0]) / SQRT2


def singlet_density() -> np.ndarray:
    return pure_density(singlet())


def depolarized_qubit() -> np.ndarray:
    """Completely mixed single-photon polarization state I/2."""
    return np.eye(2, dtype=complex) / 2.0


def werner(q: float) -> np.ndarray:
    """Werner mixture q |psi-><psi-| + (1 - q) I/4.

    This is the signal-pair state after the coupling stage, with
    q = T^2 / (T^2 + R^2); it is separable for q <= 1/3.
    """
    q = check_unit_interval(q, "q")
    return q * singlet_density() + (1.0 - q) * np.eye(4, dtype=complex) / 4.0


def post_measurement_state(q: float, outcome: str = "H") -> np.ndarray:
    """Signal-pair state after the surrounding photon is detected.

    For detection outcome H the depolarized noise on arm A collapses to
    polarized noise: q |psi-><psi-| + (1 - q) |V>_A<V| (x) I_B/2, where the
    noise term is diag(0, 0, 1/2, 1/2).  Outcome V gives the mirror state
    with |H>_A<H| noise, diag(1/2, 1/2, 0, 0), instead.
    """
    q = check_unit_interval(q, "q")
    if outcome == "H":
        noise = np.diag(np.array([0.0, 0.0, 0.5, 0.5], dtype=complex))
    elif outcome == "V":
        noise = np.diag(np.array([0.5, 0.5, 0.0, 0.0], dtype=complex))
    else:
        raise ValueError(f"outcome must be 'H' or 'V', got {outcome!r}")
    return q * singlet_density() + (1.0 - q) * noise
