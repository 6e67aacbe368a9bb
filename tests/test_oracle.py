"""Reference implementations: penalized-descent minimizer and Helstrom values."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrob.games import (
    PhaseGame,
    _optimal_measurement,
    check_measurement_certificate,
    success_probability,
)
from cohrob.jsonio import matrix_from_json
from cohrob.linalg import (
    basis_projector,
    density_of,
    l1_coherence,
    maximally_coherent_state,
    random_pure,
    random_state,
)
from cohrob.oracle import helstrom_two_outcome, roc_descent_oracle
from cohrob.roc import roc_exact

# -- penalized-descent robustness oracle -----------------------------------------------


def test_descent_oracle_qubit_closed_form():
    rho = random_state(2, seed=1)
    value = roc_descent_oracle(rho)
    assert abs(value - 2.0 * abs(rho[0, 1])) < 1e-5


def test_descent_oracle_pure_qutrit():
    psi = random_pure(3, seed=2)
    value = roc_descent_oracle(density_of(psi))
    expected = float(np.sum(np.abs(psi))) ** 2 - 1.0
    assert abs(value - expected) < 1e-4


def test_descent_oracle_diagonal_state():
    value = roc_descent_oracle(np.diag([0.5, 0.3, 0.2]))
    assert 0.0 <= value <= 1e-6


def test_descent_oracle_maximally_coherent_qutrit():
    value = roc_descent_oracle(maximally_coherent_state(3))
    assert abs(value - 2.0) < 2e-4  # 1e-4 relative on value 2


def test_descent_oracle_matches_frozen_values(load_fixture):
    fix = load_fixture("descent_roc_qutrits.json")
    for state_json, frozen, oracle_seed in zip(
        fix["input"], fix["value"], fix["oracle_seeds"]
    ):
        rho = matrix_from_json(state_json)
        again = roc_descent_oracle(rho, restarts=6, seed=oracle_seed)
        assert abs(again - frozen) < 1e-12  # deterministic replay
        assert abs(roc_exact(rho).value - frozen) < fix["tol"]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=5)
def test_descent_oracle_is_an_upper_bound(seed):
    rho = random_state(3, seed=seed)
    oracle = roc_descent_oracle(rho, restarts=3, seed=seed)
    exact = roc_exact(rho).value
    assert oracle >= exact - 1e-6
    assert abs(oracle - exact) <= 1e-4 * max(1.0, exact)


# -- two-outcome discrimination oracle ----------------------------------------------------


def test_helstrom_orthogonal_pair():
    plus = maximally_coherent_state(2)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert abs(helstrom_two_outcome([0.5, 0.5], [plus, minus]) - 1.0) < 1e-12


def test_helstrom_identical_states():
    rho = random_state(2, seed=5)
    assert abs(helstrom_two_outcome([0.3, 0.7], [rho, rho]) - 0.7) < 1e-12


def test_helstrom_maximal_qubit_under_canonical_phases():
    rho = maximally_coherent_state(2)
    flipped = np.diag([1.0, -1.0]) @ rho @ np.diag([1.0, -1.0])
    value = helstrom_two_outcome([0.5, 0.5], [rho, flipped])
    assert abs(value - 1.0) < 1e-12  # (1 + robustness)/2 with robustness 1


def test_helstrom_input_validation():
    rho = random_state(2, seed=0)
    qutrit = random_state(3, seed=0)
    with pytest.raises(ValueError):
        helstrom_two_outcome([0.5, 0.5], [rho, rho, rho])
    with pytest.raises(ValueError):
        helstrom_two_outcome([0.5, 0.5], [qutrit, qutrit])
    with pytest.raises(ValueError):
        helstrom_two_outcome([0.7, 0.7], [rho, rho])
    with pytest.raises(ValueError):
        helstrom_two_outcome([-0.5, 1.5], [rho, rho])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8)
def test_helstrom_gates_the_game_solver(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(2, seed=seed)
    p0 = float(rng.uniform(0.2, 0.8))
    phases = sorted(rng.uniform(0.0, 2 * np.pi, size=2))
    if phases[1] - phases[0] < 1e-3:
        phases[1] += 0.5
    game = PhaseGame.build(2, [(p0, phases[0]), (1.0 - p0, phases[1])])
    value, _ = success_probability(game, rho)
    oracle = helstrom_two_outcome(game.priors, game.states(rho))
    assert abs(value - oracle) <= 1e-7
    # success_probability answers two hypotheses in closed form, so the
    # measurement program is solved here to keep it under the oracle's gate
    weighted = [p * s for p, s in zip(game.priors, game.states(rho))]
    sdp_value = check_measurement_certificate(weighted, *_optimal_measurement(weighted, 1e-8))
    assert abs(sdp_value - oracle) <= 1e-7


def test_helstrom_never_below_best_prior():
    rho = basis_projector(2, 0)
    other = random_state(2, seed=9)
    value = helstrom_two_outcome([0.6, 0.4], [rho, other])
    assert value >= 0.6 - 1e-12
    assert value <= 1.0 + 1e-12
