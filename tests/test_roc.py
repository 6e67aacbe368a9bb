"""Robustness computation: closed forms, certificates, bounds, gap search."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohrob import sdp
from cohrob.jsonio import matrix_from_json
from cohrob.linalg import (
    dephase,
    density_of,
    l1_coherence,
    maximally_coherent_state,
    minimal_roc_mixture,
    random_pure,
    random_state,
    random_unitary,
)
from cohrob.roc import (
    FAST_PATH_CYCLE_TOL,
    FAST_PATH_ZERO,
    START_FLOOR,
    START_MIX,
    _roc_problem,
    aligning_phases,
    check_certificate,
    find_l1_gap_witness,
    roc_bounds,
    roc_exact,
    roc_fast_path,
    roc_value,
)
from cohrob.witness import validate_witness, witness_lower_bound

# -- exact solve: closed-form families ------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_maximally_coherent_reaches_dimension_bound(d):
    cert = roc_exact(maximally_coherent_state(d))
    assert abs(cert.value - (d - 1)) < 1e-7


def test_minimal_mixture_family_d4():
    cert = roc_exact(minimal_roc_mixture(4, 1.0 / 3.0))
    assert abs(cert.value - 1.0 / 3.0) < 1e-6


def test_diagonal_state_value_zero_with_trivial_witness():
    cert = roc_exact(np.diag([0.2, 0.3, 0.5]))
    assert cert.value == 0.0
    assert cert.noise_part is None
    assert validate_witness(cert.witness).valid
    # the zero witness is itself feasible at value zero
    assert witness_lower_bound(np.diag([0.2, 0.3, 0.5]), np.zeros((3, 3))) == 0.0


def _assert_refine_continues(solves):
    """The 1e-10 solve starts from the first solve's final iterate and
    finishes within 3 iterations."""
    assert [o.tol for o, _ in solves] == [1e-8, 1e-10]
    (_, first), (refine_opts, refined) = solves
    x0, y0, s0 = refine_opts.start
    assert x0 is first.x and y0 is first.y and s0 is first.s
    assert refined.status is sdp.SolveStatus.OPTIMAL
    assert refined.iterations <= 3


def test_near_incoherent_state_triggers_refine(recorded_solves):
    sigma = random_state(4, seed=6)
    rho = dephase(sigma) + 1e-9 * (sigma - dephase(sigma))
    cert = roc_exact(rho)
    _assert_refine_continues(recorded_solves)
    assert cert.value < 1e-8


def test_diagonal_state_refines_to_zero(recorded_solves):
    cert = roc_exact(np.diag([0.2, 0.3, 0.5]))
    _assert_refine_continues(recorded_solves)
    assert cert.value == 0.0
    assert cert.noise_part is None


def test_coherent_state_solves_once(recorded_solves):
    cert = roc_exact(random_state(4, seed=6))
    assert [o.tol for o, _ in recorded_solves] == [1e-8]
    assert cert.value > 0.1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qubit_closed_form(seed):
    rho = random_state(2, seed=seed)
    cert = roc_exact(rho)
    assert abs(cert.value - 2.0 * abs(rho[0, 1])) < 1e-7


@pytest.mark.parametrize("d,seed", [(3, 0), (5, 1), (7, 2)])
def test_pure_state_closed_form(d, seed):
    psi = random_pure(d, seed=seed)
    cert = roc_exact(density_of(psi))
    expected = float(np.sum(np.abs(psi))) ** 2 - 1.0
    assert abs(cert.value - expected) < 1e-6


# -- certificate contract --------------------------------------------------------------


@pytest.mark.parametrize("d,seed", [(2, 5), (3, 6), (4, 7), (6, 8)])
def test_certificate_invariants(d, seed):
    rho = random_state(d, seed=seed)
    cert = roc_exact(rho)
    assert cert.gap <= 1e-7
    diag = check_certificate(rho, cert)
    assert diag["witness_diag_peak"] <= 1e-8
    assert diag["witness_eig_excess"] <= 1e-8
    assert diag["value_mismatch"] <= 1e-6
    assert diag["reconstruction_err"] <= 1e-7
    assert diag["tau_eig_floor"] >= -1e-9
    assert diag["delta_pop_floor"] >= -1e-12
    assert validate_witness(cert.witness).valid


def test_certificate_reconstruction_explicit():
    rho = random_state(3, seed=12)
    cert = roc_exact(rho)
    s = cert.value
    recon = (1 + s) * cert.incoherent_part - s * cert.noise_part
    assert np.max(np.abs(recon - rho)) <= 1e-7
    assert abs(-np.vdot(cert.witness, rho).real - s) <= 1e-6


# -- start point --------------------------------------------------------------------------


def _identity_start(rho):
    """The start roc_exact used before its closed-form one, kept as the
    reference: Y = 1, D = 2 * 1, slack 2 * 1 - rho."""
    d = rho.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    return [eye], -2.0 * np.ones(d), [2.0 * eye - rho]


def _start_edge_states():
    """States whose start is easiest to get wrong: empty or tiny rows and
    entries, rank one, and the maximally coherent state."""
    zero_row = np.zeros((4, 4), dtype=np.complex128)
    zero_row[:3, :3] = random_state(3, seed=21)
    tiny_pop = random_pure(4, seed=22)
    tiny_pop[0] = 1e-6
    tiny_pop /= np.linalg.norm(tiny_pop)
    sigma = random_state(5, seed=23)
    tiny_off = dephase(sigma) + 1e-12 * (sigma - dephase(sigma)) / np.max(np.abs(sigma))
    return {
        "zero_population_row": zero_row,
        "populations_1e-12": density_of(tiny_pop),
        "off_diagonals_1e-12": tiny_off,
        "pure": density_of(random_pure(6, seed=24)),
        "maximally_coherent": maximally_coherent_state(5),
    }


@pytest.mark.parametrize("kind", list(_start_edge_states()))
def test_start_is_strictly_feasible(kind):
    rho = _start_edge_states()[kind]
    problem, start = _roc_problem(rho)
    [y0], dual, [s0] = start
    assert np.all(np.diag(y0) == 1.0)
    assert np.allclose(y0, y0.conj().T, rtol=0.0, atol=1e-15)
    assert np.linalg.eigvalsh(y0)[0] >= 1.0 - START_MIX - 1e-12
    # the slack is exactly the dual residual's complement, D0 - rho
    assert np.array_equal(s0, np.diag(-dual).astype(np.complex128) - rho)
    assert np.linalg.eigvalsh(s0)[0] >= START_FLOOR - 1e-12
    assert sdp.solve(problem, start=start).status is sdp.SolveStatus.OPTIMAL


def test_start_takes_fewer_iterations_than_the_identity_start():
    rng = np.random.default_rng(25)
    closed_form = identity = 0
    for d in (16, 24, 32):
        for rank in (d, 2):
            rho = random_state(d, rank=rank, seed=int(rng.integers(2 ** 31)))
            problem, start = _roc_problem(rho)
            closed_form += sdp.solve(problem, start=start).iterations
            identity += sdp.solve(problem, start=_identity_start(rho)).iterations
    assert closed_form < identity


# -- analytic fast path ----------------------------------------------------------------


def test_fast_path_pure_state():
    psi = random_pure(4, seed=3)
    value = roc_fast_path(density_of(psi))
    assert value is not None
    assert abs(value - (float(np.sum(np.abs(psi))) ** 2 - 1.0)) < 1e-12


def test_fast_path_qubit():
    rho = random_state(2, seed=9)
    value = roc_fast_path(rho)
    assert value is not None
    assert abs(value - 2.0 * abs(rho[0, 1])) < 1e-12


def test_fast_path_rejects_inconsistent_phase_cycle():
    # off-diagonal phases 0, 0, pi/2 cannot be aligned: the cycle sum is pi/2
    rho = np.array(
        [
            [0.4, 0.1, 0.1j],
            [0.1, 0.3, 0.1],
            [-0.1j, 0.1, 0.3],
        ]
    )
    assert roc_fast_path(rho) is None


def test_fast_path_accepts_alignable_phases():
    # phases 0.3, 0.4 on adjacent pairs force 0.7 on the closing pair
    mags = {(0, 1): 0.10, (1, 2): 0.08, (0, 2): 0.05}
    rho = np.diag([0.4, 0.35, 0.25]).astype(np.complex128)
    rho[0, 1] = mags[(0, 1)] * np.exp(1j * 0.3)
    rho[1, 2] = mags[(1, 2)] * np.exp(1j * 0.4)
    rho[0, 2] = mags[(0, 2)] * np.exp(1j * 0.7)
    rho = rho + rho.conj().T - np.diag(np.diag(rho).real)
    value = roc_fast_path(rho)
    assert value is not None
    assert abs(value - l1_coherence(rho)) < 1e-12
    # and the full solve agrees
    assert abs(roc_exact(rho).value - value) < 1e-6


def test_fast_path_handles_disconnected_blocks():
    # two decoupled coherent sectors: phases only need consistency per component
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[:2, :2] = 0.3 * np.array([[1.0, np.exp(2.1j)], [np.exp(-2.1j), 1.0]])
    rho[2:, 2:] = 0.2 * np.array([[1.0, np.exp(-0.9j)], [np.exp(0.9j), 1.0]])
    value = roc_fast_path(rho)
    assert value is not None
    assert abs(value - l1_coherence(rho)) < 1e-12


def _loop_aligning_phases(a):
    """The edge-by-edge search aligning_phases replaced, kept as the
    reference: the same arithmetic, one entry at a time."""
    d = a.shape[0]
    mags = np.abs(a)
    thr = FAST_PATH_ZERO * float(np.max(mags))
    edges = [(k, l) for k in range(d) for l in range(k + 1, d) if mags[k, l] > thr]
    adj = [[] for _ in range(d)]
    for k, l in edges:
        adj[k].append(l)
        adj[l].append(k)
    phi = np.full(d, np.nan)
    for root in range(d):
        if not np.isnan(phi[root]):
            continue
        phi[root] = 0.0
        queue = [root]
        while queue:
            k = queue.pop()
            for l in adj[k]:
                if np.isnan(phi[l]):
                    ang = np.angle(a[k, l]) if k < l else -np.angle(a[l, k])
                    phi[l] = phi[k] + ang
                    queue.append(l)
    for k, l in edges:
        res = (phi[k] - phi[l] + np.angle(a[k, l]) + np.pi) % (2.0 * np.pi) - np.pi
        if abs(res) > FAST_PATH_CYCLE_TOL:
            return None
    return phi


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_aligning_phases_matches_the_loop_reference(d):
    sigma = random_state(d, seed=30 + d)
    x_shaped = np.diag(np.diag(sigma)) + np.fliplr(np.diag(np.diag(np.fliplr(sigma))))
    states = [
        density_of(random_pure(d, seed=d)),
        sigma,
        x_shaped,
        dephase(sigma),
        dephase(sigma) + 1e-11 * (sigma - dephase(sigma)),
    ]
    for rho in states:
        expected = _loop_aligning_phases(rho)
        phi = aligning_phases(rho)
        assert (phi is None) == (expected is None)
        if phi is not None:
            assert np.array_equal(phi, expected)


def test_roc_value_selects_route():
    pure = density_of(random_pure(3, seed=4))
    value, route = roc_value(pure)
    assert route == "fast_path"
    gapped = matrix_from_json_fixture_state()
    value2, route2 = roc_value(gapped)
    assert route2 == "sdp"
    assert value2 < l1_coherence(gapped)


def matrix_from_json_fixture_state():
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "fixtures", "gap_qutrit.json")
    with open(path) as fh:
        return matrix_from_json(json.load(fh)["input"])


# -- bound chain ------------------------------------------------------------------------


def assert_bracketed(rep, value):
    """The chain is ordered to 1e-12 and brackets value to 1e-7."""
    assert rep.lower_gap_over_peak_population >= rep.lower_gap_over_population_norm - 1e-12
    assert rep.lower_gap_over_population_norm >= rep.lower_gap - 1e-12
    assert rep.lower_dim - 1e-7 <= value <= rep.upper + 1e-7
    assert value >= rep.lower_gap_over_peak_population - 1e-7


def test_bounds_pure_state_upper_tight():
    rho = density_of(random_pure(4, seed=6))
    cert = roc_exact(rho)
    rep = roc_bounds(rho)
    assert abs(rep.upper - cert.value) < 1e-6
    assert_bracketed(rep, cert.value)


def test_bounds_minimal_mixture_lower_tight():
    for d in (3, 4, 5):
        p = 0.2 if d > 3 else 0.3
        rho = minimal_roc_mixture(d, p)
        cert = roc_exact(rho)
        rep = roc_bounds(rho)
        assert abs(rep.lower_dim - cert.value) < 1e-6
        assert_bracketed(rep, cert.value)


def test_bounds_diagonal_all_zero():
    rep = roc_bounds(np.diag([0.5, 0.25, 0.25]))
    assert rep.upper == 0.0
    assert rep.lower_dim == 0.0
    assert rep.lower_gap == 0.0
    assert rep.lower_gap_over_peak_population == 0.0
    assert rep.lower_gap_over_population_norm == 0.0
    assert_bracketed(rep, 0.0)


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_bound_chain_random_states(d, seed):
    rho = random_state(d, seed=seed)
    cert = roc_exact(rho)
    rep = roc_bounds(rho)
    assert rep.lower_dim - 1e-7 <= cert.value <= rep.upper + 1e-7
    assert cert.value >= rep.lower_gap_over_peak_population - 1e-9
    assert rep.lower_gap_over_peak_population >= rep.lower_gap_over_population_norm - 1e-12
    assert rep.lower_gap_over_population_norm >= rep.lower_gap - 1e-12


# -- faithfulness and free-operation invariance ------------------------------------------


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_faithfulness(d, seed):
    rho = random_state(d, seed=seed)
    value = roc_exact(rho).value
    off_peak = np.max(np.abs(rho - dephase(rho)))
    if off_peak <= 1e-9:
        assert value <= 1e-7
    else:
        assert value > 1e-7 or off_peak < 1e-6  # tiny coherence may round to zero
    assert roc_exact(dephase(rho)).value == 0.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8)
def test_diagonal_unitary_covariance(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(3, seed=seed)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    u = np.diag(phases)
    rotated = u @ rho @ u.conj().T
    assert abs(roc_exact(rotated).value - roc_exact(rho).value) < 1e-7


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8)
def test_fast_path_agrees_with_sdp_when_defined(seed):
    psi = random_pure(3, seed=seed)
    rho = density_of(psi)
    fast = roc_fast_path(rho)
    assert fast is not None
    assert abs(fast - roc_exact(rho).value) < 1e-6


def test_near_maximal_continuity():
    # mixing a sliver of white noise into the maximal state keeps the value
    # within ten epsilons of the top
    eps = 1e-3
    for d in (3, 4):
        t = eps / (d - 1)
        rho = (1 - t) * maximally_coherent_state(d) + t * np.eye(d) / d
        assert l1_coherence(rho) >= d - 1 - eps - 1e-12
        assert roc_exact(rho).value >= d - 1 - 10 * eps


def test_convexity_on_sampled_pairs():
    rng = np.random.default_rng(0)
    for trial in range(5):
        rho1 = random_state(3, seed=100 + trial)
        rho2 = random_state(3, seed=200 + trial)
        p = float(rng.uniform())
        mix = p * rho1 + (1 - p) * rho2
        lhs = roc_exact(mix).value
        rhs = p * roc_exact(rho1).value + (1 - p) * roc_exact(rho2).value
        assert lhs <= rhs + 1e-7


# -- strict gap between the l1 norm and the exact value -----------------------------------


def test_gap_search_reproduces_frozen_state(load_fixture):
    fix = load_fixture("gap_qutrit.json")
    out = find_l1_gap_witness(trials=fix["trials_used"], seed=fix["seed"])
    assert out is not None
    assert out.trials_used == fix["trials_used"]
    frozen = matrix_from_json(fix["input"])
    assert np.max(np.abs(out.state - frozen)) < 1e-12
    assert abs(out.l1 - fix["value"]["l1"]) < fix["tol"]
    assert abs(out.roc - fix["value"]["roc"]) < fix["tol"]
    assert abs(out.gap - fix["value"]["gap"]) < fix["tol"]
    assert out.gap > 1e-4


def test_gap_never_appears_for_pure_or_alignable_states():
    for seed in range(3):
        rho = density_of(random_pure(3, seed=seed))
        assert l1_coherence(rho) - roc_exact(rho).value < 1e-6
    aligned = np.full((3, 3), 1.0 / 3.0) * 0.9 + 0.1 * np.eye(3) / 3
    assert roc_fast_path(aligned) is not None
    assert l1_coherence(aligned) - roc_exact(aligned).value < 1e-6


def test_gap_search_budget_exhaustion_returns_none():
    # qubits never have a gap, so any budget must come back empty
    assert find_l1_gap_witness(trials=3, seed=0, dim=2) is None


# -- input validation ----------------------------------------------------------------------


def test_roc_exact_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(ValueError):
        roc_exact(np.ones((2, 3)))
    with pytest.raises(ValueError):
        roc_exact(np.array([[0.5, 0.5], [0.0, 0.5]]))
