"""Discrimination games: channels, optimal success, baselines, instruments."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrob.games import (
    CROSS_CHECK_TOL,
    ChannelGame,
    PhaseGame,
    _majorant_bound,
    _majorants,
    _optimal_measurement,
    advantage_ratio,
    apply_instrument,
    canonical_game,
    check_measurement_certificate,
    generalized_phase,
    incoherent_baseline,
    is_incoherent_instrument,
    phase_channel,
    random_channel_game,
    random_incoherent_instrument,
    random_phase_game,
    success_probability,
    validate_povm,
    verify_operational_theorem,
)
from cohrob.linalg import (
    basis_projector,
    dephase,
    density_of,
    maximally_coherent_state,
    random_pure,
    random_state,
)
from cohrob import sdp
from cohrob.oracle import helstrom_two_outcome
from cohrob.roc import roc_exact
from cohrob.sdp import SolverError

# -- phase unitaries -----------------------------------------------------------------


def test_phase_channel_zero_is_identity():
    assert np.array_equal(phase_channel(4, 0.0), np.eye(4))


def test_phase_channel_pi_qubit():
    u = phase_channel(2, np.pi)
    assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-15


def test_clock_power_d_is_identity():
    z5 = generalized_phase(5, 5)
    assert np.max(np.abs(z5 - np.eye(5))) < 1e-12


# -- game construction -----------------------------------------------------------------


def test_phase_game_validates_priors_and_distinctness():
    with pytest.raises(ValueError):
        PhaseGame.build(2, [(0.6, 0.0), (0.6, np.pi)])
    with pytest.raises(ValueError):
        PhaseGame.build(2, [(1.2, 0.0), (-0.2, np.pi)])
    with pytest.raises(ValueError):
        PhaseGame.build(2, [(0.5, 1.0), (0.5, 1.0 + 2 * np.pi)])  # same phase mod 2pi
    with pytest.raises(ValueError):
        PhaseGame.build(2, [])
    with pytest.raises(ValueError):
        PhaseGame.build(1, [(1.0, 0.0)])
    for bad in (np.nan, np.inf, -np.inf):
        for entries in ([(bad, 0.0), (0.5, 1.0)], [(bad, 0.0), (1.0, 1.0)]):
            with pytest.raises(ValueError, match="priors"):
                PhaseGame.build(2, entries)
        with pytest.raises(ValueError, match="phases must be finite"):
            PhaseGame.build(2, [(0.5, bad), (0.5, 1.0)])


def test_channel_game_requires_trace_preservation():
    half = [np.eye(2) / 2]
    with pytest.raises(ValueError, match="trace preserving"):
        ChannelGame.build(2, [(1.0, half)])
    for bad in (np.nan, np.inf):
        kraus = np.eye(2, dtype=complex)
        kraus[0, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ChannelGame.build(2, [(0.5, [kraus]), (0.5, [np.eye(2)])])
        assert not is_incoherent_instrument([kraus])
        with pytest.raises(ValueError, match="priors"):
            ChannelGame.build(2, [(bad, [np.eye(2)]), (0.5, [np.eye(2)])])
    kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    game = ChannelGame.build(2, [(0.4, kraus), (0.6, [np.eye(2)])])
    assert game.priors.tolist() == [0.4, 0.6]


def test_canonical_game_structure():
    game = canonical_game(2)
    assert game.dim == 2
    assert [p for p, _ in game.entries] == [0.5, 0.5]
    assert abs(game.entries[0][1] - 0.0) < 1e-15
    assert abs(game.entries[1][1] - np.pi) < 1e-15
    # entry k applies the k-th clock power
    game4 = canonical_game(4)
    for k, (_, phi) in enumerate(game4.entries):
        assert np.max(np.abs(phase_channel(4, phi) - generalized_phase(4, k))) < 1e-12


def test_canonical_game_priors_sum_to_one():
    for d in (2, 3, 5):
        assert abs(np.sum(canonical_game(d).priors) - 1.0) < 1e-15


# -- POVM validation ---------------------------------------------------------------------


def test_validate_povm_accepts_projective_and_rejects_broken():
    validate_povm([basis_projector(2, 0), basis_projector(2, 1)])
    with pytest.raises(ValueError):
        validate_povm([np.eye(2) / 2])  # incomplete
    with pytest.raises(ValueError, match="element 1 has"):
        validate_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative element
    with pytest.raises(ValueError):
        validate_povm([])


# -- optimal success probability ------------------------------------------------------------


def _general_value(game, rho):
    """The measurement program's certified value, whatever route the game takes."""
    weighted = [p * s for p, s in zip(game.priors, game.states(rho))]
    return check_measurement_certificate(weighted, *_optimal_measurement(weighted, 1e-8))


def test_orthogonal_pair_perfectly_distinguishable():
    rho = maximally_coherent_state(2)
    game = PhaseGame.build(2, [(0.5, 0.0), (0.5, np.pi)])
    p, povm = success_probability(game, rho)
    assert abs(p - 1.0) < 1e-7
    validate_povm(povm, d=2)


def test_incoherent_probe_gives_highest_prior():
    game = PhaseGame.build(3, [(0.2, 0.0), (0.5, 1.0), (0.3, 2.0)])
    rho = np.diag([0.3, 0.3, 0.4])
    p, _ = success_probability(game, rho)
    assert abs(p - 0.5) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_game_reads_off_robustness_qubit(seed):
    rho = random_state(2, seed=seed)
    p, _ = success_probability(canonical_game(2), rho)
    expected = (1.0 + roc_exact(rho).value) / 2.0
    assert abs(p - expected) < 1e-6


def test_success_probability_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: game 3 vs state 2"):
        success_probability(canonical_game(3), np.eye(2) / 2)
    channel = random_channel_game(3, outcomes=2, seed=1)
    with pytest.raises(ValueError, match="dimension mismatch: game 3 vs state 2"):
        success_probability(channel, np.eye(2) / 2)


def test_refinement_with_zero_prior_outcome():
    rho = random_state(2, seed=11)
    base = PhaseGame.build(2, [(0.5, 0.0), (0.5, np.pi)])
    refined = PhaseGame.build(2, [(0.5, 0.0), (0.5, np.pi), (0.0, np.pi / 2)])
    # the invariant is exact; solve below the assertion tolerance to see it
    p0, _ = success_probability(base, rho, tol=1e-10)
    p1, _ = success_probability(refined, rho, tol=1e-10)
    assert abs(p0 - p1) <= 1e-9


@given(st.integers(0, 10 ** 6))
@settings(max_examples=6)
def test_dephased_probe_capped_at_best_prior(seed):
    rng = np.random.default_rng(seed)
    game = random_phase_game(3, outcomes=int(rng.integers(2, 5)), seed=seed)
    rho = dephase(random_state(3, seed=seed))
    p, _ = success_probability(game, rho, tol=1e-10)
    assert abs(p - float(np.max(game.priors))) <= 1e-9


# -- baselines --------------------------------------------------------------------------------


def test_baseline_canonical_uniform():
    assert abs(incoherent_baseline(canonical_game(4)) - 0.25) < 1e-15


def test_baseline_skewed_priors():
    game = PhaseGame.build(2, [(0.7, 0.0), (0.3, np.pi)])
    assert incoherent_baseline(game) == 0.7


def test_baseline_identical_identity_channels():
    game = ChannelGame.build(
        2, [(0.55, [np.eye(2)]), (0.45, [phase_channel(2, 0.0) @ np.eye(2)])]
    )
    assert abs(incoherent_baseline(game) - 0.55) < 1e-7


def test_channel_baseline_dominates_incoherent_probes():
    game = random_channel_game(2, outcomes=2, kraus_count=2, seed=5)
    base = incoherent_baseline(game)
    rng = np.random.default_rng(5)
    for _ in range(4):
        pops = rng.dirichlet(np.ones(2))
        p, _ = success_probability(game, np.diag(pops))
        assert p <= base + 1e-7


@pytest.mark.parametrize("d, seed, probe", [(6, 9752, 5), (5, 504, 0)])
def test_channel_baseline_basis_probe_regression(d, seed, probe):
    # a separate solve of the dual program stalled on these basis probes
    game = random_channel_game(d, outcomes=2, kraus_count=2, seed=seed)
    p, povm = success_probability(game, basis_projector(d, probe))
    validate_povm(povm, d=d)
    assert 0.0 <= p <= 1.0 + CROSS_CHECK_TOL
    base = incoherent_baseline(game)
    assert float(np.max(game.priors)) - CROSS_CHECK_TOL <= base <= 1.0 + CROSS_CHECK_TOL
    # two hypotheses are answered in closed form; the measurement program
    # still solves and certifies these probes
    assert abs(_general_value(game, basis_projector(d, probe)) - p) <= CROSS_CHECK_TOL


@pytest.fixture
def solved_problems(monkeypatch):
    """Every problem passed to sdp.solve, in order."""
    problems = []
    real_solve = sdp.solve

    def recording(problem, **options):
        problems.append(problem)
        return real_solve(problem, **options)

    monkeypatch.setattr(sdp, "solve", recording)
    return problems


# -- the pruned baseline search --------------------------------------------------------------


def _basis_probe_values(game):
    """The checked success probability of every basis probe, in index order."""
    return [success_probability(game, basis_projector(game.dim, j))[0]
            for j in range(game.dim)]


def _weighted_per_probe(game):
    return np.array([[p * s for p, s in zip(game.priors, game.states(basis_projector(game.dim, j)))]
                     for j in range(game.dim)])


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("outcomes", [2, 3, 4])
def test_majorants_dominate_and_bound_every_probe(d, outcomes):
    game = random_channel_game(d, outcomes=outcomes, kraus_count=2, seed=70 + 10 * d + outcomes)
    values = _basis_probe_values(game)
    weighted = _weighted_per_probe(game)
    q = _majorants(weighted)
    assert q.shape == weighted.shape
    for value, qs, ws in zip(values, q, weighted):
        for q_r in qs:
            assert np.min(np.linalg.eigvalsh(q_r - ws)) >= -1e-12
            assert np.trace(q_r).real >= value - 1e-12
    bounds = _majorant_bound(weighted)
    assert np.array_equal(bounds, np.min(np.trace(q, axis1=-2, axis2=-1).real, axis=-1))
    # the pruned search returns the maximum over all d probes, bit for bit
    assert incoherent_baseline(game) == max(values)


def test_majorant_of_two_hypotheses_is_helstroms():
    game = random_channel_game(2, outcomes=2, kraus_count=2, seed=81)
    for j, bound in enumerate(_majorant_bound(_weighted_per_probe(game))):
        states = game.states(basis_projector(2, j))
        assert abs(bound - helstrom_two_outcome(game.priors, states)) <= 1e-12


@pytest.mark.parametrize("outcomes", [2, 3])
def test_baseline_every_probe_ties(outcomes):
    # one channel under every hypothesis: each probe scores the largest prior
    channel = random_channel_game(3, outcomes=1, kraus_count=2, seed=82).entries[0][1]
    priors = np.arange(1.0, outcomes + 1.0) / np.sum(np.arange(1.0, outcomes + 1.0))
    identical = ChannelGame.build(3, [(p, channel) for p in priors])
    identity = ChannelGame.build(3, [(p, [np.eye(3)]) for p in priors])
    for game in (identical, identity):
        values = _basis_probe_values(game)
        assert incoherent_baseline(game) == max(values)
        assert abs(max(values) - priors[-1]) <= CROSS_CHECK_TOL


def test_baseline_two_probes_tie_at_the_maximum(solved_problems):
    # U_k = exp(-i theta_k X) on span{|0>, |1>} and 1 on |2>: the swap of |0>
    # and |1> commutes with every channel, so probes 0 and 1 tie, and probe 2
    # passes unchanged, scoring only the largest prior
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    entries = []
    for prior, theta in zip([0.5, 0.3, 0.2], [0.0, 0.7, 1.9]):
        u = np.eye(3, dtype=complex)
        u[:2, :2] = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * x
        entries.append((prior, [u]))
    game = ChannelGame.build(3, entries)
    values = _basis_probe_values(game)
    assert abs(values[0] - values[1]) <= 1e-9
    assert min(values[:2]) > values[2] + 0.1
    solved_problems.clear()
    assert incoherent_baseline(game) == max(values)
    assert len(solved_problems) == 2  # both tied probes; probe 2's bound rules it out


def test_pruned_baseline_solves_fewer_than_d_probes(solved_problems):
    game = random_channel_game(6, outcomes=3, kraus_count=2, seed=83)
    base = incoherent_baseline(game)
    assert len(solved_problems) < 6
    solved_problems.clear()
    assert base == max(_basis_probe_values(game))
    assert len(solved_problems) == 6


# -- routes: Helstrom, canonical, general -----------------------------------------------


def _probes(d, seed):
    """Seeded pure, full-rank, diagonal and near-diagonal states."""
    rng = np.random.default_rng(seed)
    pops = rng.dirichlet(np.ones(d))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    off = 1e-6 * (h + h.conj().T - np.diag(np.diag(h + h.conj().T)))
    return {
        "pure": density_of(random_pure(d, seed=seed)),
        "full_rank": random_state(d, seed=seed),
        "diagonal": np.diag(pops),
        "near_diagonal": np.diag(pops + 4e-6 * d) / (1.0 + 4e-6 * d ** 2) + off,
    }


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("kind", ["phase", "channel"])
def test_two_hypothesis_games_make_no_solve(d, kind, recorded_solves):
    if kind == "phase":
        game = random_phase_game(d, outcomes=2, seed=30 + d)
    else:
        game = random_channel_game(d, outcomes=2, kraus_count=2, seed=30 + d)
    for rho in _probes(d, seed=40 + d).values():
        p, povm = success_probability(game, rho)
        assert recorded_solves == []
        validate_povm(povm, d=d)
        assert abs(p - _general_value(game, rho)) <= CROSS_CHECK_TOL
        recorded_solves.clear()
        if d == 2:
            assert abs(p - helstrom_two_outcome(game.priors, game.states(rho))) <= 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_canonical_game_agrees_with_the_general_program(d, solved_problems):
    game = canonical_game(d)
    for kind, rho in _probes(d, seed=50 + d).items():
        solved_problems.clear()
        p, povm = success_probability(game, rho)
        validate_povm(povm, d=d)
        if d >= 3 and kind in ("pure", "diagonal"):
            # an alignable probe takes the robustness program's closed form
            assert solved_problems == [], kind
        elif d >= 3:  # at d = 2 the game has two hypotheses: no solve
            # one robustness program; near-zero values continue its solve
            [problem] = {id(q): q for q in solved_problems}.values()
            assert problem.unit_diagonal, kind
        assert abs(p - _general_value(game, rho)) <= CROSS_CHECK_TOL, kind


def _takes_general_route(game, rho, problems):
    problems.clear()
    success_probability(game, rho)
    [problem] = problems
    return not problem.unit_diagonal and len(problem.blocks) == len(game.entries)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_only_canonical_games_take_the_robustness_solve(d, solved_problems):
    rho = random_state(d, seed=60 + d)
    phases = 2.0 * np.pi * np.arange(d) / d
    uniform = [1.0 / d] * d
    skewed = np.arange(1.0, d + 1.0) / np.sum(np.arange(1.0, d + 1.0))
    moved = phases.copy()
    moved[1] += 1e-6
    extra = list(zip([1.0 / (d + 1)] * (d + 1), 2.0 * np.pi * np.arange(d + 1) / (d + 1)))
    for entries in (zip(skewed, phases), zip(uniform, moved), extra):
        assert _takes_general_route(PhaseGame.build(d, list(entries)), rho, solved_problems)
    permuted = PhaseGame.build(d, list(zip(uniform, phases[::-1])))
    assert not _takes_general_route(permuted, rho, solved_problems)
    assert solved_problems[0].unit_diagonal
    p, _ = success_probability(permuted, rho)
    assert abs(p - _general_value(permuted, rho)) <= CROSS_CHECK_TOL


# -- measurement certificate -------------------------------------------------------------------


def _certified_pair():
    game = PhaseGame.build(2, [(0.6, 0.0), (0.4, np.pi / 2)])
    rho = random_state(2, seed=3)
    weighted = [p * s for p, s in zip(game.priors, game.states(rho))]
    povm, majorant = _optimal_measurement(weighted, 1e-8)
    # the unperturbed pair passes, so each rejection below is the perturbation's
    check_measurement_certificate(weighted, povm, majorant)
    return weighted, povm, majorant


def test_measurement_certificate_rejects_non_dominating_majorant():
    weighted, povm, majorant = _certified_pair()
    # traceless, so Tr Q stays; its -1.5 eigenvalue outweighs the spectrum of
    # every Q - A_k, which Q bounds and Tr Q <= 1, so Q >= A_k fails
    shift = 1.5 * np.diag([1.0, -1.0])
    with pytest.raises(SolverError, match="does not dominate ensemble member 0:"):
        check_measurement_certificate(weighted, povm, majorant + shift)
    # the message names the first member Q fails to dominate, here the second
    raised = [weighted[0], weighted[1] + np.eye(2)]
    with pytest.raises(SolverError, match="does not dominate ensemble member 1:"):
        check_measurement_certificate(raised, povm, majorant)


def test_measurement_certificate_rejects_incomplete_povm():
    weighted, povm, majorant = _certified_pair()
    with pytest.raises(SolverError, match="invalid measurement"):
        check_measurement_certificate(weighted, [0.9 * m for m in povm], majorant)


def test_measurement_certificate_rejects_wide_bracket():
    weighted, povm, majorant = _certified_pair()
    loose = majorant + 10.0 * CROSS_CHECK_TOL * np.eye(2)
    with pytest.raises(SolverError, match="wider than"):
        check_measurement_certificate(weighted, povm, loose)


# -- operational theorem -----------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximally_coherent_ratio_is_dimension(d):
    ratio = advantage_ratio(maximally_coherent_state(d), canonical_game(d))
    assert abs(ratio - d) < 1e-5


def test_incoherent_state_never_helps():
    rho = np.diag([0.5, 0.3, 0.2])
    for game in (canonical_game(3), random_phase_game(3, outcomes=4, seed=2)):
        assert abs(advantage_ratio(rho, game) - 1.0) < 1e-7


def test_theorem_report_random_qutrit():
    rho = random_state(3, seed=7)
    report = verify_operational_theorem(rho, phase_samples=3, channel_samples=1, seed=0)
    assert report.equality_ok
    assert report.bounds_ok
    assert abs(report.canonical_ratio - (1.0 + report.roc)) <= 1e-5
    cap = 1.0 + report.roc + 1e-6
    assert all(r <= cap for r in report.phase_ratios + report.channel_ratios)


# -- incoherent instruments ----------------------------------------------------------------------


def test_single_branch_instrument_preserves_robustness():
    kraus = random_incoherent_instrument(3, m=1, seed=4)
    assert len(kraus) == 1
    assert is_incoherent_instrument(kraus)
    rho = random_state(3, seed=4)
    branches = apply_instrument(kraus, rho)
    assert len(branches) == 1
    weight, out = branches[0]
    assert abs(weight - 1.0) < 1e-12
    assert abs(roc_exact(out).value - roc_exact(rho).value) < 1e-7


def test_full_dephasing_instrument_kills_coherence():
    kraus = [basis_projector(3, j).astype(complex) for j in range(3)]
    assert is_incoherent_instrument(kraus)
    branches = apply_instrument(kraus, maximally_coherent_state(3))
    assert len(branches) == 3
    for weight, out in branches:
        assert abs(weight - 1.0 / 3.0) < 1e-12
        assert roc_exact(out).value == 0.0


def test_instrument_branches_drop_zero_weight():
    kraus = [np.diag([1.0, 0.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0, 1.0]).astype(complex)]
    assert is_incoherent_instrument(kraus)
    branches = apply_instrument(kraus, basis_projector(3, 1))
    assert len(branches) == 1  # first branch has zero weight on this input


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8)
def test_random_instruments_are_trace_preserving_and_column_sparse(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    kraus = random_incoherent_instrument(3, m=m, seed=seed)
    assert is_incoherent_instrument(kraus)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.max(np.abs(total - np.eye(3))) < 1e-10
    for k in kraus:
        assert np.max(np.count_nonzero(np.abs(k) > 1e-15, axis=0)) <= 1
    # basis projectors stay diagonal through every branch
    for j in range(3):
        for _, out in apply_instrument(kraus, basis_projector(3, j)):
            off = out - np.diag(np.diag(out))
            assert np.max(np.abs(off)) <= 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=5)
def test_selective_monotonicity(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(3, seed=seed)
    kraus = random_incoherent_instrument(3, m=int(rng.integers(1, 5)), seed=seed)
    before = roc_exact(rho).value
    after = sum(w * roc_exact(out).value for w, out in apply_instrument(kraus, rho))
    assert after <= before + 1e-6


def test_instrument_determinism():
    a = random_incoherent_instrument(3, m=3, seed=6)
    b = random_incoherent_instrument(3, m=3, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
