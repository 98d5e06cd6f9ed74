"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Tolerances are pinned here, not configurable.
"""

import numpy as np
from conftest import random_density, random_unitary

from entloc import fock_oracle, measures, protocol, qmat, states
from entloc.params import CouplingConfig, FilterConfig, Stage

T_GRID_19 = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_distinguishable_benchmark_regression():
    cfg = CouplingConfig(0.4, 0.0)
    stage1 = protocol.stage1_couple(cfg)
    stage2 = protocol.stage2_measure(cfg, "H")
    stage3 = protocol.stage3_filter(stage2, FilterConfig(att_a=0.33, att_b=1.0))

    c1 = measures.concurrence(stage1.state)
    c2 = measures.concurrence(stage2.state)
    p2 = stage2.probability
    c3 = measures.concurrence(stage3.state)

    ok = (
        c1 == 0.0
        and abs(c2 - 0.32) <= 0.02
        and abs(p2 - 0.27) <= 0.015
        and abs(c3 - 0.42) <= 0.02
    )
    report(
        "criterion 1: distinguishable benchmark (T=0.4, A_A=0.33, A_B=1)",
        ok,
        f"C_I={c1}, C_II={c2:.4f} vs 0.32, P_II={p2:.4f} vs 0.27, C_III={c3:.4f} vs 0.42",
    )


def test_criterion_2_indistinguishable_benchmark_regression():
    cfg = CouplingConfig(0.3, 0.85)
    stage2 = protocol.stage2_measure(cfg, "H")
    stage3 = protocol.stage3_filter(stage2, FilterConfig(att_a=0.12, att_b=0.30))

    c2 = measures.concurrence(stage2.state)
    p2 = stage2.probability
    c3 = measures.concurrence(stage3.state)
    c3_limit = protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None)

    ok = (
        abs(c2 - 0.22) <= 0.005
        and abs(p2 - 0.20) <= 0.03
        and abs(c3 - 0.47) <= 0.05  # provisional: filtering normalization ambiguity
        and abs(c3_limit - 0.6247) <= 5e-4
    )
    report(
        "criterion 2: indistinguishable benchmark (T=0.3, p=0.85, A_A=0.12, A_B=0.30)",
        ok,
        f"C'_II={c2:.4f} vs 0.22, P'_II={p2:.4f} vs 0.20, C'_III={c3:.4f} vs 0.47 "
        f"(provisional), asymptotic C'_III={c3_limit:.4f} reported alongside",
    )


def test_criterion_3_separability_threshold():
    threshold = protocol.separability_threshold()
    below = measures.concurrence(protocol.stage1_couple(CouplingConfig(threshold - 1e-4)).state)
    above = measures.concurrence(protocol.stage1_couple(CouplingConfig(threshold + 1e-4)).state)
    located = protocol.locate_separability_threshold(tol=1e-8)
    ok = below == 0.0 and above > 0.0 and abs(located - threshold) <= 1e-6
    report(
        "criterion 3: separability threshold at sqrt(2)-1",
        ok,
        f"C(thr-1e-4)={below}, C(thr+1e-4)={above:.3e}, bisection error={abs(located - threshold):.2e}",
    )


def test_criterion_4_oracle_equivalence():
    worst_fidelity_deficit = 0.0
    worst_probability_gap = 0.0
    for t in T_GRID_19:
        cfg = CouplingConfig(t, 0.0)
        oracle1 = fock_oracle.simulate(cfg)
        oracle2 = fock_oracle.simulate(cfg, "H")
        analytic1 = protocol.stage1_couple(cfg)
        analytic2 = protocol.stage2_measure(cfg, "H")
        worst_fidelity_deficit = max(
            worst_fidelity_deficit,
            1.0 - measures.fidelity(oracle1.state, analytic1.state),
            1.0 - measures.fidelity(oracle2.state, analytic2.state),
        )
        worst_probability_gap = max(
            worst_probability_gap,
            abs(oracle1.probability - analytic1.probability),
            abs(oracle2.probability - analytic2.probability),
        )

    worst_concurrence_gap = 0.0
    for p in (0.25, 0.5, 0.75, 1.0):
        for t in T_GRID_19:
            cfg = CouplingConfig(t, p)
            simulated = measures.concurrence(fock_oracle.simulate(cfg, "H").state)
            closed = protocol.concurrence_closed_form(Stage.MEASUREMENT, cfg)
            worst_concurrence_gap = max(worst_concurrence_gap, abs(simulated - closed))

    ok = (
        worst_fidelity_deficit <= 1e-9
        and worst_probability_gap <= 1e-10
        and worst_concurrence_gap <= 1e-8
    )
    report(
        "criterion 4: brute-force oracle equivalence (19 T points; p grid)",
        ok,
        f"max fidelity deficit={worst_fidelity_deficit:.2e}, "
        f"max probability gap={worst_probability_gap:.2e}, "
        f"max concurrence gap={worst_concurrence_gap:.2e}",
    )


def test_criterion_5_filtration_limit():
    cfg = CouplingConfig(0.4, 0.0)
    stage2 = protocol.stage2_measure(cfg, "H")
    limit = 0.4 / np.sqrt(0.52)

    at_tiny_eps = measures.concurrence(
        protocol.stage3_filter(stage2, protocol.eps_to_filter(1e-6, 0.4)).state
    )
    values = [
        measures.concurrence(
            protocol.stage3_filter(stage2, protocol.eps_to_filter(float(eps), 0.4)).state
        )
        for eps in np.geomspace(1.0, 1e-6, 100)
    ]
    monotone = bool(np.all(np.diff(values) >= -1e-12))
    ok = abs(at_tiny_eps - limit) <= 1e-6 and monotone
    report(
        "criterion 5: filtration limit T/sqrt(T^2+R^2) and monotonicity",
        ok,
        f"|C(eps=1e-6) - {limit:.7f}|={abs(at_tiny_eps - limit):.2e}, "
        f"monotone over 100 eps points={monotone}",
    )


def test_criterion_6_interference_dip_estimation():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        p = float(p)
        coincidence = fock_oracle.hom_coincidence(0.5, p)
        visibility = (0.5 - coincidence) / 0.5
        worst = max(worst, abs(visibility - p))
    recovered = fock_oracle.overlap_from_coincidence(0.075, transmittivity=0.5)
    ok = worst <= 1e-12 and abs(recovered - 0.85) <= 1e-9
    report(
        "criterion 6: interference dip visibility and overlap recovery",
        ok,
        f"max |visibility - p|={worst:.2e}, p from coincidence 0.075 -> {recovered}",
    )


def test_criterion_7_probability_closed_forms():
    worst1 = worst2 = 0.0
    for t in np.linspace(0.0, 1.0, 101):
        cfg = CouplingConfig(float(t), 0.0)
        expected1 = protocol.probability_closed_form(Stage.COUPLING, cfg)
        expected2 = protocol.probability_closed_form(Stage.MEASUREMENT, cfg)
        worst1 = max(worst1, abs(protocol.stage1_couple(cfg).probability - expected1))
        worst2 = max(worst2, abs(protocol.stage2_measure(cfg, "H").probability - expected2))

    cfg = CouplingConfig(0.4, 0.0)
    schedule_value = protocol.probability_closed_form(Stage.FILTRATION, cfg, eps=1.0)
    stage2 = protocol.stage2_measure(cfg, "H")
    cumulative = protocol.stage3_filter(stage2, FilterConfig(0.33, 1.0)).probability

    ok = (
        worst1 <= 1e-12
        and worst2 <= 1e-12
        and abs(schedule_value - 0.17) <= 1e-12
        and abs(cumulative - 0.1126) <= 1e-4
    )
    report(
        "criterion 7: probability closed forms",
        ok,
        f"max |P_I - (R^2+T^2)|={worst1:.2e}, max |P_II - (R^2+T^2)/2|={worst2:.2e}, "
        f"schedule P_III(eps=1, T=0.4)={schedule_value:.4f}; first-principles cumulative "
        f"{cumulative:.4f} reported alongside (documented normalization discrepancy)",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20260810)

    # Wootters concurrence is invariant under local unitaries
    worst_lu = 0.0
    for _ in range(500):
        rho = random_density(rng, 4)
        u = qmat.tensor(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        worst_lu = max(worst_lu, abs(measures.concurrence(rotated) - measures.concurrence(rho)))

    # every pipeline output is a valid density matrix, and the H/V
    # measurement outcomes carry identical concurrence
    worst_outcome_gap = 0.0
    valid = True
    try:
        for t in T_GRID_19:
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = CouplingConfig(t, p)
                stage1 = protocol.stage1_couple(cfg)
                measured_h = protocol.stage2_measure(cfg, "H")
                measured_v = protocol.stage2_measure(cfg, "V")
                filtered = protocol.stage3_filter(measured_h, protocol.eps_to_filter(0.15, t))
                for outcome in (stage1, measured_h, measured_v, filtered):
                    qmat.validate_density_matrix(outcome.state, dim=4)
                worst_outcome_gap = max(
                    worst_outcome_gap,
                    abs(
                        measures.concurrence(measured_h.state)
                        - measures.concurrence(measured_v.state)
                    ),
                )
    except ValueError:
        valid = False

    # filtering strictly raises the CHSH parameter of the benchmark state
    cfg = CouplingConfig(0.4, 0.0)
    stage2 = protocol.stage2_measure(cfg, "H")
    stage3 = protocol.stage3_filter(stage2, FilterConfig(0.33, 1.0))
    chsh_before = measures.chsh_max(stage2.state)
    chsh_after = measures.chsh_max(stage3.state)

    ok = (
        worst_lu <= 1e-9
        and valid
        and worst_outcome_gap <= 1e-10
        and chsh_after > chsh_before
    )
    report(
        "criterion 8: property suites",
        ok,
        f"local-unitary deviation={worst_lu:.2e} over 500 draws, pipeline states valid={valid}, "
        f"max H/V concurrence gap={worst_outcome_gap:.2e}, "
        f"CHSH {chsh_before:.4f} -> {chsh_after:.4f} under filtering",
    )
