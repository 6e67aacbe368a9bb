"""End-to-end acceptance gate for the robustness-of-coherence toolkit.

One test per criterion; the conftest hook prints a PASS/FAIL line for each
at the end of the run.  Criteria 1-5 pool every certificate they produce in
a module-level ledger so criterion 6 can audit the duality gap, witness
validity, and pseudomixture reconstruction of every solve wholesale.

Sampling is deterministic (fixed seeds) so the run is reproducible.
"""

from __future__ import annotations

import numpy as np

from cohrob.games import (
    _optimal_measurement,
    apply_instrument,
    canonical_game,
    check_measurement_certificate,
    incoherent_baseline,
    random_channel_game,
    random_incoherent_instrument,
    random_phase_game,
    success_probability,
)
from cohrob.linalg import (
    l1_coherence,
    maximally_coherent_state,
    minimal_roc_mixture,
    random_pure,
    random_state,
)
from cohrob.oracle import helstrom_two_outcome, roc_descent_oracle
from cohrob.roc import (
    check_certificate,
    find_l1_gap_witness,
    roc_bounds,
    roc_exact,
)
from cohrob.witness import (
    WitnessDataset,
    best_witness_from_data,
    min_roc_from_data,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])

# Every (state, certificate) pair produced by criteria 1-5 lands here so the
# duality/certificate criterion can audit each solve of the run.
LEDGER: list[tuple[np.ndarray, object]] = []


def tracked_roc(rho):
    cert = roc_exact(rho)
    LEDGER.append((np.asarray(rho, dtype=np.complex128), cert))
    return cert


def test_criterion_01_qubit_closed_form():
    """200 random qubits: solver matches 2|off-diagonal| within 1e-7."""
    worst = 0.0
    for seed in range(200):
        rho = random_state(2, seed=seed)
        cert = tracked_roc(rho)
        closed = 2.0 * abs(rho[0, 1])
        worst = max(worst, abs(cert.value - closed))
    assert worst <= 1e-7, f"worst qubit closed-form deviation {worst:.3e}"


def test_criterion_02_pure_state_closed_form():
    """100 random pure states, d in 2..8: (sum of moduli)^2 - 1 within 1e-6."""
    worst = 0.0
    for i in range(100):
        d = 2 + (i % 7)
        psi = random_pure(d, seed=300 + i)
        rho = np.outer(psi, psi.conj())
        cert = tracked_roc(rho)
        closed = float(np.sum(np.abs(psi))) ** 2 - 1.0
        worst = max(worst, abs(cert.value - closed))
    assert worst <= 1e-6, f"worst pure closed-form deviation {worst:.3e}"


def test_criterion_03_maximal_value_and_global_cap():
    """Maximally coherent states give d-1; no sampled state exceeds d-1."""
    worst = 0.0
    for d in range(2, 9):
        cert = tracked_roc(maximally_coherent_state(d))
        worst = max(worst, abs(cert.value - (d - 1)))
    assert worst <= 1e-7, f"worst maximal-state deviation {worst:.3e}"

    excess = 0.0
    for d in range(2, 9):
        for j in range(3):
            rho = random_state(d, seed=700 + 10 * d + j)
            cert = tracked_roc(rho)
            excess = max(excess, cert.value - (d - 1))
    for rho, cert in LEDGER:
        excess = max(excess, cert.value - (rho.shape[0] - 1))
    assert excess <= 1e-7, f"a sampled state exceeds d-1 by {excess:.3e}"


def test_criterion_04_saturating_mixture_family():
    """Uniform-phase mixtures: value p and l1 coherence p(d-1) exactly."""
    worst_roc = 0.0
    worst_l1 = 0.0
    for d in (3, 4, 5):
        for p in (0.1, 1.0 / (d - 1)):
            rho = minimal_roc_mixture(d, p)
            cert = tracked_roc(rho)
            worst_roc = max(worst_roc, abs(cert.value - p))
            worst_l1 = max(worst_l1, abs(l1_coherence(rho) - p * (d - 1)))
    assert worst_roc <= 1e-6, f"worst mixture value deviation {worst_roc:.3e}"
    assert worst_l1 <= 1e-12, f"worst mixture l1 deviation {worst_l1:.3e}"


def test_criterion_05_bound_chain():
    """300 random states d<=6: l1 sandwich and ordered lower-bound chain."""
    worst_low = 0.0   # violation of l1/(d-1) <= value
    worst_high = 0.0  # violation of value <= l1
    worst_chain = 0.0  # violation of value >= f1 >= f2 >= f3
    for i in range(300):
        d = 2 + (i % 5)
        rho = random_state(d, seed=2000 + i)
        cert = tracked_roc(rho)
        l1 = l1_coherence(rho)
        worst_low = max(worst_low, l1 / (d - 1) - cert.value)
        worst_high = max(worst_high, cert.value - l1)
        rep = roc_bounds(rho)
        f1 = rep.lower_gap_over_peak_population
        f2 = rep.lower_gap_over_population_norm
        f3 = rep.lower_gap
        worst_chain = max(worst_chain, f1 - cert.value, f2 - f1, f3 - f2)
    assert worst_low <= 1e-7, f"l1/(d-1) lower bound violated by {worst_low:.3e}"
    assert worst_high <= 1e-7, f"l1 upper bound violated by {worst_high:.3e}"
    assert worst_chain <= 1e-9, f"lower-bound chain violated by {worst_chain:.3e}"


def test_criterion_06_duality_and_certificates():
    """Every pooled solve: tight gap, valid witness, exact pseudomixture."""
    if not LEDGER:  # standalone run: audit a fresh sample instead
        for i in range(10):
            d = 2 + (i % 5)
            tracked_roc(random_state(d, seed=4000 + i))
        tracked_roc(maximally_coherent_state(4))
        psi = random_pure(3, seed=4100)
        tracked_roc(np.outer(psi, psi.conj()))

    worst = {
        "pd_gap": 0.0,
        "witness_diag_peak": 0.0,
        "witness_eig_excess": 0.0,
        "value_mismatch": 0.0,
        "reconstruction_err": 0.0,
    }
    for rho, cert in LEDGER:
        report = check_certificate(rho, cert)
        for key in worst:
            worst[key] = max(worst[key], report[key])
    assert worst["pd_gap"] <= 1e-7, f"worst primal-dual gap {worst['pd_gap']:.3e}"
    assert worst["witness_diag_peak"] <= 1e-8, (
        f"worst witness diagonal entry {worst['witness_diag_peak']:.3e}"
    )
    assert worst["witness_eig_excess"] <= 1e-8, (
        f"worst witness eigenvalue excess {worst['witness_eig_excess']:.3e}"
    )
    assert worst["value_mismatch"] <= 1e-6, (
        f"worst witness-expectation mismatch {worst['value_mismatch']:.3e}"
    )
    assert worst["reconstruction_err"] <= 1e-7, (
        f"worst pseudomixture reconstruction error {worst['reconstruction_err']:.3e}"
    )


def test_criterion_07_operational_advantage():
    """100 states d in 2..6: canonical-game equality and game-ratio cap."""
    worst_eq = 0.0
    worst_ratio = 0.0
    for d in range(2, 7):
        canonical = canonical_game(d)
        phase_pool = [
            random_phase_game(d, outcomes=2 + (k % 3), seed=9000 + 37 * d + k)
            for k in range(20)
        ]
        channel_pool = [
            random_channel_game(d, outcomes=2 + (k % 2), kraus_count=2,
                                seed=9500 + 41 * d + k)
            for k in range(10)
        ]
        phase_baselines = [incoherent_baseline(g) for g in phase_pool]
        channel_baselines = [incoherent_baseline(g) for g in channel_pool]
        for j in range(20):
            rho = random_state(d, seed=5000 + 100 * d + j)
            value = roc_exact(rho).value
            p_star, _ = success_probability(canonical, rho)
            worst_eq = max(worst_eq, abs(d * p_star - (1.0 + value)))
            cap = 1.0 + value
            for game, base in zip(phase_pool, phase_baselines):
                p, _ = success_probability(game, rho)
                worst_ratio = max(worst_ratio, p / base - cap)
            for game, base in zip(channel_pool, channel_baselines):
                p, _ = success_probability(game, rho)
                worst_ratio = max(worst_ratio, p / base - cap)
    assert worst_eq <= 1e-5, f"worst canonical-game mismatch {worst_eq:.3e}"
    assert worst_ratio <= 1e-5, f"worst advantage-ratio excess {worst_ratio:.3e}"


def test_general_program_at_the_canonical_game():
    """Companion to criterion 07, which success_probability now answers by
    the robustness program itself: the measurement program, solved on its
    own, gives d p* = 1 + value on a seeded subset."""
    worst = 0.0
    for d in range(2, 7):
        game = canonical_game(d)
        for j in range(4):
            rho = random_state(d, seed=5000 + 100 * d + j)
            weighted = [p * s for p, s in zip(game.priors, game.states(rho))]
            p_star = check_measurement_certificate(
                weighted, *_optimal_measurement(weighted, 1e-8))
            worst = max(worst, abs(d * p_star - (1.0 + roc_exact(rho).value)))
    assert worst <= 1e-5, f"worst canonical-game mismatch {worst:.3e}"


def test_criterion_08_selective_monotonicity():
    """100 (state, incoherent instrument) pairs d=3: average never rises."""
    worst = 0.0
    for i in range(100):
        m = 1 + (i % 4)
        rho = random_state(3, seed=6000 + i)
        kraus = random_incoherent_instrument(3, m, seed=6500 + i)
        before = roc_exact(rho).value
        after = sum(
            w * roc_exact(sigma).value for w, sigma in apply_instrument(kraus, rho)
        )
        worst = max(worst, after - before)
    assert worst <= 1e-6, f"worst selective-monotonicity violation {worst:.3e}"


def test_criterion_09_convexity():
    """100 random triples: value of the mixture never exceeds the mixture."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(100):
        d = 2 + (i % 3)
        rho1 = random_state(d, seed=7000 + i)
        rho2 = random_state(d, seed=7500 + i)
        p = float(rng.uniform(0.05, 0.95))
        mixed = p * rho1 + (1.0 - p) * rho2
        lhs = roc_exact(mixed).value
        rhs = p * roc_exact(rho1).value + (1.0 - p) * roc_exact(rho2).value
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-7, f"worst convexity violation {worst:.3e}"


def test_criterion_10_strict_l1_gap_in_dimension_three():
    """The random search finds a qutrit whose l1 bound is strictly loose."""
    witness = find_l1_gap_witness(trials=10_000, seed=0, min_gap=1e-4, dim=3)
    assert witness is not None, "no strict-gap state found in 10000 trials"
    assert witness.gap > 1e-4
    recomputed = roc_exact(witness.state).value
    assert abs(recomputed - witness.roc) <= 1e-7
    assert l1_coherence(witness.state) - recomputed > 1e-4


def test_criterion_11_device_data_programs():
    """Complete qubit data pins the value; witness bound never exceeds it."""
    observables = [PAULI_X, PAULI_Y, PAULI_Z]
    worst_eq = 0.0
    worst_order = 0.0
    for i in range(50):
        rho = random_state(2, seed=8000 + i)
        data = WitnessDataset.from_state(rho, observables)
        tight = min_roc_from_data(data)
        exact = roc_exact(rho).value
        worst_eq = max(worst_eq, abs(tight.value - exact))
        fit = best_witness_from_data(data)
        worst_order = max(worst_order, fit.bound - tight.value)
    assert worst_eq <= 1e-6, f"worst data-vs-exact deviation {worst_eq:.3e}"
    assert worst_order <= 1e-7, (
        f"witness bound exceeds the data minimum by {worst_order:.3e}"
    )


def test_criterion_12_independent_oracles():
    """Descent oracle tracks the solver; Helstrom gates two-outcome games."""
    worst_rel = 0.0
    for i in range(50):
        d = 2 + (i % 2)
        rho = random_state(d, seed=8500 + i)
        exact = roc_exact(rho).value
        oracle = roc_descent_oracle(rho, seed=17 + i)
        worst_rel = max(worst_rel, abs(oracle - exact) / max(exact, 1e-12))
    assert worst_rel <= 1e-4, f"worst oracle relative deviation {worst_rel:.3e}"

    worst_h = 0.0
    for i in range(50):
        if i % 2 == 0:
            game = random_phase_game(2, outcomes=2, seed=910 + i)
        else:
            game = random_channel_game(2, outcomes=2, kraus_count=2, seed=910 + i)
        rho = random_state(2, seed=960 + i)
        value, _ = success_probability(game, rho)
        closed = helstrom_two_outcome(game.priors, game.states(rho))
        # two hypotheses are answered in closed form, so the measurement
        # program is solved on the same inputs to keep it under the gate
        weighted = [p * s for p, s in zip(game.priors, game.states(rho))]
        sdp_value = check_measurement_certificate(
            weighted, *_optimal_measurement(weighted, 1e-8))
        worst_h = max(worst_h, abs(value - closed), abs(sdp_value - closed))
    assert worst_h <= 1e-7, f"worst Helstrom mismatch {worst_h:.3e}"
