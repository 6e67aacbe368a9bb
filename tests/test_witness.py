"""Witness validation, witness bounds, and the two device-data programs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrob import sdp, witness
from cohrob.jsonio import dataset_from_json
from cohrob.linalg import (
    as_hermitian,
    dephase,
    density_of,
    l1_coherence,
    maximally_coherent_state,
    random_pure,
    random_state,
)
from cohrob.games import CROSS_CHECK_TOL
from cohrob.roc import TOL_FLOOR, roc_exact
from cohrob.witness import (
    FEASIBILITY_TOL,
    InfeasibleDataError,
    InvalidWitnessError,
    WitnessDataset,
    DROP_TOL,
    _coords,
    _deviation,
    _joint_bracket,
    _joint_problem,
    _least_squares,
    _null_space_bracket,
    _null_space_problem,
    _phase1_deviation,
    best_witness_from_data,
    min_roc_from_data,
    population_gap_witness,
    validate_witness,
    witness_lower_bound,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


# -- witness validation ------------------------------------------------------------


def test_zero_witness_valid():
    rep = validate_witness(np.zeros((3, 3)))
    assert rep.valid
    assert rep.diag_min == 0.0
    assert rep.eig_excess <= 0.0


def test_flipped_projector_witness_valid():
    w = np.eye(2) - 2.0 * maximally_coherent_state(2)
    rep = validate_witness(w)
    assert rep.valid
    assert np.max(np.abs(np.diag(w))) < 1e-15  # dephased part vanishes


def test_double_identity_invalid():
    rep = validate_witness(2.0 * np.eye(3))
    assert not rep.valid
    assert rep.eig_excess > 0.5


def test_negative_diagonal_invalid():
    rep = validate_witness(np.diag([-0.2, 0.1]))
    assert not rep.valid
    assert rep.diag_min < -1e-10


# -- witness lower bound ------------------------------------------------------------


def test_bound_saturates_on_maximal_qubit():
    rho = maximally_coherent_state(2)
    w = np.eye(2) - 2.0 * maximally_coherent_state(2)
    assert abs(witness_lower_bound(rho, w) - 1.0) < 1e-12


def test_bound_zero_on_diagonal_states():
    rho = np.diag([0.7, 0.3])
    for w in (np.zeros((2, 2)), np.eye(2) - 2.0 * maximally_coherent_state(2)):
        assert witness_lower_bound(rho, w) == 0.0


def test_population_gap_witness_formula():
    rho = random_state(4, seed=21)
    w = population_gap_witness(rho)
    assert validate_witness(w).valid
    gap = np.linalg.norm(rho - dephase(rho)) ** 2
    peak = np.max(np.diag(rho).real)
    assert abs(witness_lower_bound(rho, w) - gap / peak) < 1e-12


def test_bound_rejects_dimension_mismatch_and_invalid_witness():
    with pytest.raises(ValueError, match="dimension mismatch: state 3 vs witness 2"):
        witness_lower_bound(np.eye(3) / 3, np.zeros((2, 2)))
    with pytest.raises(InvalidWitnessError, match="invalid witness: smallest diagonal") as exc:
        witness_lower_bound(np.eye(2) / 2, 2.0 * np.eye(2))
    assert exc.value.report == validate_witness(2.0 * np.eye(2))
    assert isinstance(exc.value, ValueError)


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_any_valid_witness_stays_below_exact_value(d, seed):
    rho = random_state(d, seed=seed)
    # optimal witnesses of other states are valid witnesses for this one
    other = random_state(d, seed=seed + 1)
    w = roc_exact(other).witness
    assert witness_lower_bound(rho, w) <= roc_exact(rho).value + 1e-6


def test_optimal_witness_saturates_value():
    rho = random_state(4, seed=33)
    cert = roc_exact(rho)
    assert abs(witness_lower_bound(rho, cert.witness) - cert.value) < 1e-6


# -- dataset construction ------------------------------------------------------------


def test_dataset_build_checks():
    with pytest.raises(ValueError):
        WitnessDataset.build([], [])
    with pytest.raises(ValueError):
        WitnessDataset.build([PAULI_X], [0.1, 0.2])
    with pytest.raises(ValueError):
        WitnessDataset.build([PAULI_X, np.eye(3)], [0.1, 0.2])
    with pytest.raises(ValueError):
        WitnessDataset.build([PAULI_X], [float("nan")])


def test_dataset_from_state_records_exact_expectations():
    rho = random_state(2, seed=3)
    data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z])
    assert data.dim == 2
    assert abs(data.expectations[0] - 2 * rho[0, 1].real) < 1e-12


# -- best witness from data ------------------------------------------------------------


def test_best_witness_x_dataset_matches_grid_scan(load_fixture):
    fix = load_fixture("witness_grid_x.json")
    data = dataset_from_json(fix["input"])
    assert np.max(np.abs(np.asarray(data.observables[0]) - PAULI_X)) < 1e-15
    fit = best_witness_from_data(data)
    assert abs(fit.bound - fix["value"]) < fix["tol"]
    assert abs(fit.coefficients[0] - fix["optimizer"]["c"]) < 1e-3
    assert abs(fit.offset - fix["optimizer"]["m"]) < 1e-3
    assert validate_witness(fit.witness).valid


def test_best_witness_diagonal_observables_no_signal():
    data = WitnessDataset.from_state(np.diag([0.6, 0.4]), [PAULI_Z, np.diag([1.0, 3.0])])
    fit = best_witness_from_data(data)
    assert fit.bound == 0.0


def test_best_witness_maximally_mixed_no_signal():
    obs = [PAULI_X, PAULI_Y, PAULI_Z]
    data = WitnessDataset.from_state(np.eye(2) / 2, obs)
    fit = best_witness_from_data(data)
    assert fit.bound == 0.0


def test_best_witness_contradictory_dependent_rows_raise():
    # diag(1, 3) = 2*1 - Z, so its expectation must be 1.8: no Hermitian
    # matrix matches both rows, and the fit raises what min_roc_from_data does
    data = WitnessDataset.build([PAULI_Z, np.diag([1.0, 3.0])], [0.2, 1.7])
    with pytest.raises(InfeasibleDataError) as fit_err:
        best_witness_from_data(data)
    with pytest.raises(InfeasibleDataError) as roc_err:
        min_roc_from_data(data)
    assert fit_err.value.deviation == roc_err.value.deviation
    assert abs(fit_err.value.deviation - 0.05) < 1e-6


def test_best_witness_output_is_valid_witness():
    rho = random_state(3, seed=14)
    rng = np.random.default_rng(14)
    obs = [as_hermitian((lambda g: (g + g.conj().T) / 2)(
        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))) for _ in range(3)]
    data = WitnessDataset.from_state(rho, obs)
    fit = best_witness_from_data(data)
    assert validate_witness(fit.witness).valid
    recon = sum(c * o for c, o in zip(fit.coefficients, data.observables))
    recon = recon + fit.offset * np.eye(3)
    assert np.max(np.abs(recon - fit.witness)) < 1e-10


def _fit_with_perturbed_dual(monkeypatch, perturb):
    """best_witness_from_data on a qutrit dataset whose solve returns
    perturb(y, e), e being the identity's coordinates in the row space."""
    real_solve = sdp.solve
    data = WitnessDataset.from_state(random_state(3, seed=14), [
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    ])
    eye = _coords(np.eye(3), _least_squares(data, np.zeros(2)).span)

    def perturbed(problem, **options):
        sol = real_solve(problem, **options)
        sol.y = perturb(sol.y, eye)
        return sol

    monkeypatch.setattr(sdp, "solve", perturbed)
    return best_witness_from_data(data)


def test_best_witness_rejects_invalid_witness(monkeypatch):
    # the optimal W has its top eigenvalue at the cap of 1; raising the
    # offset by 0.1 lifts it past the cap
    with pytest.raises(sdp.SolverError, match="eig_excess"):
        _fit_with_perturbed_dual(monkeypatch, lambda y, eye: y + 0.1 * eye)


# -- minimal robustness from data ---------------------------------------------------------


@pytest.fixture
def phase1_calls(monkeypatch):
    """The slack vector of every _phase1_deviation call, in order."""
    calls = []
    real_phase1 = witness._phase1_deviation

    def spied(data, slack, tol):
        calls.append(slack)
        return real_phase1(data, slack, tol)

    monkeypatch.setattr(witness, "_phase1_deviation", spied)
    return calls


def _random_observables(d, k, seed):
    rng = np.random.default_rng(seed)
    return [as_hermitian(g + g.conj().T)
            for g in rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))]


@pytest.mark.parametrize("slack", [0.0, 0.01])
def test_min_roc_interior_data_take_no_phase_1(slack, phase1_calls):
    # sigma is a full-rank state that matches the data: it shows that they
    # are consistent and pin no pure state, so only the joint program runs
    rho = random_state(3, seed=5)
    data = WitnessDataset.from_state(rho, _random_observables(3, 3, 5))
    result = min_roc_from_data(data, slack=slack)
    assert phase1_calls == []
    assert result.deviation <= 1e-12
    assert _deviation(data, np.full(3, slack), result.state) <= FEASIBILITY_TOL
    assert result.value <= roc_exact(rho).value + 1e-7


def test_min_roc_complete_qutrit_takes_roc_exact(phase1_calls, recorded_solves):
    # 8 independent observables and the identity span the Hermitian 3 x 3
    # matrices, so sigma is the only consistent state
    rho = random_state(3, seed=12)
    data = WitnessDataset.from_state(rho, _random_observables(3, 8, 12))
    result = min_roc_from_data(data)
    assert phase1_calls == []
    assert len(recorded_solves) == 1  # roc_exact's solve, no joint program
    assert np.max(np.abs(result.state - rho)) < 1e-9
    assert abs(result.value - roc_exact(rho).value) < CROSS_CHECK_TOL
    assert result.value == roc_exact(result.state).value
    assert result.deviation <= 1e-12


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_nearly_dependent_complete_qubit_data_take_the_all_rows_point(eps, phase1_calls):
    # the least singular value of the rows is about eps, and the X rows'
    # components along its direction, about eps / sqrt 2, lie far above
    # DROP_TOL, so no direction is dropped: the four rows span the qubit
    # Hermitian matrices, sigma is the one matrix that matches them, and
    # roc_exact answers there
    rho = random_state(2, seed=44)
    data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z, PAULI_X + eps * PAULI_Y])
    space = _least_squares(data, np.zeros(3))
    assert len(space.null) == 0 and space.deviation <= FEASIBILITY_TOL
    result = min_roc_from_data(data)
    assert abs(result.value - l1_coherence(rho)) < CROSS_CHECK_TOL  # a qubit's robustness
    assert np.array_equal(result.state, space.sigma)
    fit = best_witness_from_data(data)
    assert validate_witness(fit.witness).valid
    assert abs(fit.bound - result.value) < CROSS_CHECK_TOL
    assert phase1_calls == []


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_nearly_dependent_qubit_rows_drop_their_direction_and_match_every_row(eps):
    # the X rows' components along the least singular direction, about
    # eps / sqrt 2, lie below DROP_TOL, so that direction is dropped: the
    # answer is the least robustness over states matching X and Z, and its
    # state matches the third row too.  Kept, the direction would carry the
    # expectations' roundoff amplified by 1/eps
    rho = random_state(2, seed=44)
    data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z, PAULI_X + eps * PAULI_Y])
    assert eps <= DROP_TOL
    assert len(_least_squares(data, np.zeros(3)).null) == 1
    result = min_roc_from_data(data)
    assert result.value <= l1_coherence(rho) + CROSS_CHECK_TOL
    assert _deviation(data, np.zeros(3), result.state) <= FEASIBILITY_TOL


@pytest.mark.parametrize("eps", [1.1e-4, 1.5e-4, 2e-4])
def test_best_witness_poses_barely_independent_qubit_rows(eps):
    # the fit poses every direction of these barely independent rows:
    # _least_squares is the one rank rule, and the engine takes its row space
    rho = random_state(2, seed=44)
    data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z, PAULI_X + eps * PAULI_Y])
    assert len(_least_squares(data, np.zeros(3)).span) == 4
    fit = best_witness_from_data(data)
    assert validate_witness(fit.witness).valid
    assert abs(fit.bound - l1_coherence(rho)) < CROSS_CHECK_TOL  # a qubit's robustness


def _nearly_dependent_data(d, obs_seed, state_seed, eps):
    """O_1, O_2 and O_1 + eps O_3, with O_i = (A + A^H)/2 drawn in that
    order, measured on random_state(d, seed=state_seed)."""
    rng = np.random.default_rng(obs_seed)
    obs = []
    for _ in range(3):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        obs.append((a + a.conj().T) / 2)
    return WitnessDataset.from_state(random_state(d, seed=state_seed),
                                     [obs[0], obs[1], obs[0] + eps * obs[2]])


def test_barely_independent_qutrit_rows_are_answered_by_both_programs():
    data = _nearly_dependent_data(3, 3, 5, 2e-4)
    value = min_roc_from_data(data).value
    fit = best_witness_from_data(data)
    assert validate_witness(fit.witness).valid
    assert fit.bound <= value + CROSS_CHECK_TOL


def test_nearly_dependent_rows_are_never_refused_as_bad_input():
    # consistent data with O_1 + eps O_3 appended: its direction is dropped
    # or kept by _least_squares alone, and both programs answer every
    # dataset, with the fit's bound below the least robustness
    for d in (2, 3):
        for seed in range(6):
            for eps in np.logspace(-8, -2, 13):
                data = _nearly_dependent_data(d, seed, seed, eps)
                fit, result = best_witness_from_data(data), min_roc_from_data(data)
                assert fit.bound <= result.value + CROSS_CHECK_TOL


def test_min_roc_phase1_stall_that_misses_the_data_raises(monkeypatch, phase1_calls):
    # pinned data need phase 1; a phase 1 stopped at its start point answers
    # from it only when it matches the data, which it does not here
    real_solve = sdp.solve

    def stalled(problem, **options):
        return real_solve(problem, **{**options, "max_iter": 0})

    monkeypatch.setattr(sdp, "solve", stalled)
    with pytest.raises(sdp.SolverError, match="status max_iter"):
        min_roc_from_data(_pinned_qutrit_data(0)[1])
    assert len(phase1_calls) == 1


def test_min_roc_informationally_complete_qubit():
    rho = random_state(2, seed=8)
    data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Y, PAULI_Z])
    result = min_roc_from_data(data)
    assert abs(result.value - roc_exact(rho).value) < 1e-6
    assert np.max(np.abs(result.state - rho)) < 1e-5
    assert result.deviation <= 1e-7


def test_min_roc_single_diagonal_observable(recorded_solves):
    data = WitnessDataset.build([np.diag([1.0, -1.0, 0.0])], [0.4])
    result = min_roc_from_data(data)
    assert result.value == 0.0
    assert abs(np.trace(np.diag([1.0, -1.0, 0.0]) @ result.state).real - 0.4) < 1e-6
    # sigma is a full-rank state that matches the data, so no phase 1:
    # the joint program, and its refine continued from its final iterate
    assert [o.tol for o, _ in recorded_solves] == [1e-8, 1e-10]
    (_, first), (refine_opts, refined) = recorded_solves
    x0, y0, s0 = refine_opts.start
    assert x0 is first.x and y0 is first.y and s0 is first.s
    assert refined.status is sdp.SolveStatus.OPTIMAL
    assert refined.iterations <= 3


def _pinned_qutrit_data(seed):
    """A pure qutrit rho and six observables that fix it.

    N1 and N2 act as sigma_z and sigma_x on ker rho; the observables span the
    complement of span{1, N1, N2}.  The states matching the data are then
    rho + b N1 + c N2, and only b = c = 0 is PSD, so the data program has no
    interior point.
    """
    rho = density_of(random_pure(3, seed=seed))
    ker = np.linalg.eigh(rho)[1][:, :2]
    free = [np.eye(3), ker @ PAULI_Z @ ker.conj().T, ker @ PAULI_X @ ker.conj().T]

    def vec(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    q = np.linalg.qr(np.stack([vec(m) for m in free], axis=1))[0]
    herm = np.stack([vec(m) for m in sdp.hermitian_basis(3)], axis=1)
    u = np.linalg.svd(herm - q @ (q.T @ herm))[0][:, :6]
    obs = [(c[:9] + 1j * c[9:]).reshape(3, 3) for c in u.T]
    return rho, WitnessDataset.from_state(rho, obs)


@pytest.mark.parametrize("seed", range(20))
def test_min_roc_pinned_pure_qutrit(seed, recorded_solves, phase1_calls):
    rho, data = _pinned_qutrit_data(seed)
    result = min_roc_from_data(data)
    assert abs(result.value - l1_coherence(rho)) < 1e-6
    assert np.max(np.abs(result.state - rho)) < 1e-6
    assert len(recorded_solves) == 1  # phase 1 only: the value is a closed form
    assert len(phase1_calls) == 1  # sigma is not a full-rank state here
    # the joint program has no interior point here, but the fit's start is
    # interior whatever the data
    fit = best_witness_from_data(data)
    assert validate_witness(fit.witness).valid
    assert fit.bound <= l1_coherence(rho) + 1e-7
    _, fit_solve = recorded_solves[1]
    assert fit_solve.status is sdp.SolveStatus.OPTIMAL


def test_min_roc_pinned_data_with_slack_is_not_pinned():
    # the slack window holds full-rank states, so the joint program runs and
    # goes below the pinned state's value
    rho, data = _pinned_qutrit_data(1)
    assert min_roc_from_data(data, slack=0.01).value < l1_coherence(rho) - 0.01


def test_min_roc_overflow_is_a_solver_failure(load_fixture, recorded_solves):
    # three observables fix a full-rank qubit state, and slack 1e-7 leaves an
    # interval program with almost no interior: phase 1's iterates grow until
    # the Schur complement overflows.  LAPACK then failed to converge and the
    # raw LinAlgError escaped; the finiteness guard ends the solve instead,
    # and phase 1 answers from its best iterate, which matches the data
    data = dataset_from_json(load_fixture("thin_slack_overflow_d2.json"))
    slack = np.full(3, 1e-7)
    with pytest.warns(RuntimeWarning, match="overflow"):
        deviation, state = _phase1_deviation(data, slack, 1e-8)
    _, phase1 = recorded_solves[0]
    assert phase1.status is sdp.SolveStatus.NUMERICAL_FAILURE
    assert deviation == max(0.0, _deviation(data, slack, state))
    # min_roc_from_data needs no phase 1 here, since sigma is a full-rank
    # state that matches the data
    result = min_roc_from_data(data, slack=1e-7)
    assert len(recorded_solves) == 2
    assert abs(result.value - 0.40605047) < 1e-8
    assert abs(roc_exact(result.state).value - result.value) < 1e-8  # both at tol 1e-8
    for obs, o_val in zip(data.observables, data.expectations):
        assert abs(np.trace(obs @ result.state).real - o_val) <= 1e-7 + 1e-7  # tolerance + slack


def _dependent_twins(extra):
    """A d = 3 dataset whose observables and the identity are linearly
    dependent (one observable listed twice, or the identity measured), and
    its twin without the extra row."""
    rng = np.random.default_rng(7)
    g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    obs = [as_hermitian(a + a.conj().T) for a in g]
    rho = random_state(3, seed=11)
    listed = [obs[0], obs[1], obs[0] if extra == "repeated" else np.eye(3), obs[2]]
    return WitnessDataset.from_state(rho, listed), WitnessDataset.from_state(rho, obs)


@pytest.mark.parametrize("extra", ["repeated", "identity"])
def test_min_roc_dependent_rows_give_the_twin_value(extra):
    # a row listed again is posed once, at its first listing, so both
    # datasets have the same coordinates to the bit, and the same answers
    data, twin = _dependent_twins(extra)
    space, twin_space = _least_squares(data, np.zeros(4)), _least_squares(twin, np.zeros(3))
    assert len(space.span) == 4 and len(space.null) == 5
    for name in ("sigma", "span", "null"):
        assert np.array_equal(getattr(space, name), getattr(twin_space, name))
    assert np.array_equal(np.delete(space.weights, 3, axis=0), twin_space.weights)
    assert not space.weights[3].any()
    result = min_roc_from_data(data)
    assert result.value == min_roc_from_data(twin).value
    assert _deviation(data, np.zeros(4), result.state) <= FEASIBILITY_TOL
    # the fit gives the repeated listing coefficient exactly 0
    fit, twin_fit = best_witness_from_data(data), best_witness_from_data(twin)
    assert fit.bound == twin_fit.bound
    assert fit.coefficients[2] == 0.0
    assert np.array_equal(np.delete(fit.coefficients, 2), twin_fit.coefficients)
    # with slack every row has its surplus variables, so nothing is dropped
    assert abs(min_roc_from_data(data, slack=0.01).value
               - min_roc_from_data(twin, slack=0.01).value) < 1e-6


def test_min_roc_inconsistent_data_raises(phase1_calls):
    data = WitnessDataset.build([PAULI_X], [2.0])
    with pytest.raises(InfeasibleDataError) as err:
        min_roc_from_data(data)
    # sigma matches <X> = 2 but is no state, so phase 1 measures the
    # deviation: the states nearest the data have <X> = 1
    assert len(phase1_calls) == 1
    assert abs(err.value.deviation - 1.0) < 1e-6


def test_min_roc_slack_relaxes_toward_zero():
    rho = maximally_coherent_state(2)
    data = WitnessDataset.from_state(rho, [PAULI_X])
    tight = min_roc_from_data(data)
    loose = min_roc_from_data(data, slack=0.4)
    fully = min_roc_from_data(data, slack=2.0)
    assert tight.value > 0.9
    assert loose.value < tight.value
    assert fully.value == 0.0
    with pytest.raises(ValueError):
        min_roc_from_data(data, slack=-0.1)


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), [0.1, float("nan")]])
def test_min_roc_rejects_non_finite_slack_before_solving(monkeypatch, slack):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with non-finite slack")

    monkeypatch.setattr(sdp, "solve", no_solve)
    data = WitnessDataset.build([PAULI_X, PAULI_Z], [0.5, 0.1])
    with pytest.raises(ValueError, match="slack"):
        min_roc_from_data(data, slack=slack)


def test_min_roc_minimizer_state_attains_reported_value():
    rho = random_state(3, seed=19)
    rng = np.random.default_rng(19)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = [as_hermitian((g + g.conj().T) / 2)]
    data = WitnessDataset.from_state(rho, obs)
    result = min_roc_from_data(data)
    assert result.value <= roc_exact(rho).value + 1e-6
    assert abs(roc_exact(result.state).value - result.value) < 1e-5


def _rank_one_qutrit_data():
    """A pure qutrit state and six random observables (they pin the state)."""
    rng = np.random.default_rng(0)
    rho = density_of(random_pure(3, seed=0))
    obs = []
    for _ in range(6):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs.append((g + g.conj().T) / 2)
    return WitnessDataset.from_state(rho, obs)


def _thin_qubit_data():
    """A qubit whose Bloch vector is 1e-6 inside the sphere, measured along x
    and z: the consistent states form a segment of length about 3e-3."""
    r = 1.0 - 1e-6
    rho = 0.5 * (np.eye(2) + r * (0.6 * PAULI_X + 0.8 * PAULI_Z))
    return WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z])


BRACKET_SLACK = 1e-3  # the --slack program's half-width in the bracket tests


def _joint(program, data):
    """(problem, bracket, slack) of min_roc_from_data's joint program for
    data: the --slack program at BRACKET_SLACK or the exact program."""
    k = len(data.observables)
    if program == "slack":
        slack = np.full(k, BRACKET_SLACK)
        return _joint_problem(data, slack), lambda sol: _joint_bracket(data, slack, sol), slack
    space = _least_squares(data, np.zeros(k))
    return _null_space_problem(space), lambda sol: _null_space_bracket(space, sol), np.zeros(k)


@pytest.mark.parametrize("make_data, program", [
    pytest.param(_rank_one_qutrit_data, "slack", id="_rank_one_qutrit_data"),
    pytest.param(_thin_qubit_data, "slack", id="_thin_qubit_data"),
    pytest.param(_rank_one_qutrit_data, "exact", id="exact-_rank_one_qutrit_data"),
    pytest.param(_thin_qubit_data, "exact", id="exact-_thin_qubit_data"),
])
@pytest.mark.parametrize("max_iter", [2, 5, 10])
def test_joint_bracket_holds_at_any_iterate(make_data, program, max_iter):
    data = make_data()
    problem, bracket, slack = _joint(program, data)
    optimal = min_roc_from_data(data, slack=slack).value
    lower, upper, state, sensitivity = bracket(sdp.solve(problem, max_iter=max_iter))
    assert lower <= optimal + 1e-9
    # the reference at the tightest tolerance, since roc_exact's value sits
    # above the robustness by up to its tolerance
    assert upper >= roc_exact(state, tol=TOL_FLOOR).value - 1e-9
    assert sensitivity > 0.0


@pytest.mark.parametrize("program", ["slack", "exact"])
def test_joint_bracket_closes_at_the_optimum(program):
    data = _thin_qubit_data()
    problem, bracket, slack = _joint(program, data)
    sol = sdp.solve(problem)
    assert sol.status is sdp.SolveStatus.OPTIMAL
    lower, upper, state, _ = bracket(sol)
    assert lower <= upper <= lower + CROSS_CHECK_TOL
    assert abs(upper - min_roc_from_data(data, slack=slack).value) < 1e-7
    assert _deviation(data, slack, state) <= FEASIBILITY_TOL


@pytest.mark.parametrize("program", ["slack", "exact"])
def test_min_roc_stalled_joint_solve_with_wide_bracket_raises(program, joint_solve_stopped):
    data = WitnessDataset.from_state(random_state(3, seed=4), [
        np.diag([1.0, -1.0, 0.0]),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ])
    _, bracket, slack = _joint(program, data)
    with pytest.raises(sdp.SolverError, match="status max_iter") as err:
        min_roc_from_data(data, slack=slack)
    sol = err.value.solution
    assert sol.iterations == 1
    lower, upper, _, _ = bracket(sol)
    assert upper > lower + CROSS_CHECK_TOL


def test_high_sensitivity_data_answer_inside_their_bracket(load_fixture, recorded_solves):
    # data_cli seed 2959 r15/consistent/d3: a data error delta moves the
    # least robustness by up to about 545 delta.  The program on every
    # observable row returned 0.94168008 here, below the lower end of its
    # own exact-data bracket, 0.94168305
    data = dataset_from_json(load_fixture("high_sensitivity_d3.json")["input"])
    result = min_roc_from_data(data)
    _, sol = recorded_solves[-1]
    assert sol.status is sdp.SolveStatus.OPTIMAL
    space = _least_squares(data, np.zeros(len(data.observables)))
    lower, upper, state, sensitivity = _null_space_bracket(space, sol)
    assert upper <= lower + CROSS_CHECK_TOL and sensitivity > 500.0
    assert lower <= result.value <= upper + 1e-12
    assert result.value > 0.94168305
    assert _deviation(data, np.zeros(len(data.observables)), state) <= FEASIBILITY_TOL


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8)
def test_data_program_chain(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    rho = random_state(d, seed=seed)
    obs = []
    for _ in range(int(rng.integers(1, 4))):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        obs.append((g + g.conj().T) / 2)
    data = WitnessDataset.from_state(rho, obs)
    witness_bound = best_witness_from_data(data).bound
    data_bound = min_roc_from_data(data).value
    exact = roc_exact(rho).value
    assert witness_bound <= data_bound + 1e-7
    assert data_bound <= exact + 1e-6
