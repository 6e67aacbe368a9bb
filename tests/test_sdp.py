"""Conic solver: standard-form construction, realification, duality, statuses."""
import numpy as np
import pytest

from cohrob import sdp
from cohrob.games import (
    _measurement_problem,
    random_channel_game,
    random_phase_game,
    success_probability,
)
from cohrob.jsonio import matrix_from_json
from cohrob.linalg import (
    as_hermitian,
    dephase,
    jacobi_eigvalsh,
    maximally_coherent_state,
    random_state,
)
from cohrob.roc import VALUE_FLOOR, _roc_problem, check_certificate, roc_exact
from cohrob.sdp import (
    NONNEG,
    PSD,
    ConicProblem,
    SolveStatus,
    SolverError,
    entry_coords,
    hermitian_basis,
    hermitian_coords,
    hermitian_from_coords,
    realify,
    solve,
    solve_or_raise,
    unrealify,
)
from cohrob.witness import WitnessDataset, best_witness_from_data, min_roc_from_data

# -- realification ------------------------------------------------------------------


def test_realify_real_symmetric_block_duplicate():
    a = np.array([[1.0, 2.0], [2.0, -3.0]])
    r = realify(a)
    assert r.shape == (4, 4)
    assert np.array_equal(r[:2, :2], a)
    assert np.array_equal(r[2:, 2:], a)
    assert np.array_equal(r[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(r[2:, :2], np.zeros((2, 2)))


def test_realify_pauli_y_spectrum():
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    r = realify(y)
    assert np.max(np.abs(r.T - r)) == 0.0
    w = np.sort(np.linalg.eigvalsh(r))
    assert np.max(np.abs(w - np.array([-1.0, -1.0, 1.0, 1.0]))) < 1e-12


def test_realify_spectrum_doubles_frozen_d3(load_fixture):
    fix = load_fixture("realify_spectrum_d3.json")
    m = matrix_from_json(fix["input"])
    expected = np.asarray(fix["value"])
    w_complex = jacobi_eigvalsh(m)
    assert np.max(np.abs(w_complex - expected)) < fix["tol"]
    w_real = np.sort(np.linalg.eigvalsh(realify(m)))
    assert np.max(np.abs(w_real - np.repeat(expected, 2))) < fix["tol"]


def test_realify_trace_doubles_and_unrealify_roundtrip():
    m = as_hermitian(random_state(4, seed=5))
    r = realify(m)
    assert abs(np.trace(r) - 2 * np.trace(m).real) < 1e-14
    back = unrealify(r)
    assert np.max(np.abs(back - m)) < 1e-14


# -- basis / coordinate helpers ------------------------------------------------------


def test_entry_coords_layout_and_adjoint_identity():
    m = as_hermitian(random_state(4, seed=8) - np.eye(4) / 4)
    coords = entry_coords(m)
    assert coords.shape == (16,)
    assert np.max(np.abs(coords[:4] - np.diag(m).real)) < 1e-14
    # pair coordinates carry twice the real/imaginary parts (frame inner products)
    k, l = 0, 1
    assert abs(coords[4] - 2 * m[k, l].real) < 1e-14
    assert abs(coords[5] - 2 * m[k, l].imag) < 1e-14
    # the two maps are adjoint: <from_coords(y), m> = y . entry_coords(m)
    rng = np.random.default_rng(8)
    y = rng.normal(size=16)
    lhs = float(np.trace(hermitian_from_coords(y, 4) @ m).real)
    assert abs(lhs - float(y @ coords)) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_hermitian_coords_invert_from_coords(d):
    # a dual point Q enters the solver as the coefficients of -Q, which
    # entry_coords (the adjoint, doubling the pairs) does not give
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = g + g.conj().T
    y0 = hermitian_coords(-q)
    assert np.max(np.abs(hermitian_from_coords(y0, d) + q)) <= 1e-15
    assert np.array_equal(hermitian_coords(hermitian_from_coords(y0, d)), y0)
    assert np.array_equal(entry_coords(q)[:d], hermitian_coords(q)[:d])
    assert np.array_equal(entry_coords(q)[d:], 2.0 * hermitian_coords(q)[d:])


def _hermitian_basis_by_loop(d):
    # reference: one d x d matrix per basis element, stacked at the end
    mats = []
    for j in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[j, j] = 1.0
        mats.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            h = np.zeros((d, d), dtype=np.complex128)
            h[k, l] = 1.0
            h[l, k] = 1.0
            mats.append(h)
            g = np.zeros((d, d), dtype=np.complex128)
            g[k, l] = 1.0j
            g[l, k] = -1.0j
            mats.append(g)
    return np.stack(mats)


@pytest.mark.parametrize("d", range(1, 7))
def test_hermitian_basis_matches_loop_builder_and_is_read_only(d):
    basis = hermitian_basis(d)
    ref = _hermitian_basis_by_loop(d)
    assert basis.dtype == ref.dtype and basis.shape == ref.shape
    assert basis.tobytes() == ref.tobytes()
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0


def test_hermitian_basis_is_orthogonal_frame():
    basis = hermitian_basis(3)
    assert basis.shape == (9, 3, 3)
    flat = basis.reshape(9, -1)
    gram = (flat @ flat.conj().T).real
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-14
    # coordinates against this frame reproduce the matrix
    m = as_hermitian(random_state(3, seed=1))
    recon = np.tensordot(entry_coords(m) / np.array([1.0] * 3 + [2.0] * 6),
                         basis, axes=1)
    assert np.max(np.abs(recon - m)) < 1e-14


# -- construction checks --------------------------------------------------------------


def test_build_rejects_nonhermitian_coefficient():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="constraint data not Hermitian"):
        ConicProblem.build(
            blocks=[(PSD, 2)],
            cost=[np.eye(2)],
            rhs=[1.0],
            stacks=[bad[None]],
        )
    with pytest.raises(ValueError, match="cost data not Hermitian"):
        ConicProblem.build(
            blocks=[(PSD, 2)],
            cost=[np.eye(2) + 1e-9j * bad],
            rhs=[1.0],
            stacks=[np.eye(2)[None]],
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("spot", ["psd_cost", "nonneg_cost", "rhs", "psd_stack", "nonneg_stack"])
def test_build_rejects_non_finite_data(spot, bad):
    # one_dim_bound_problem's data with one entry made non-finite
    cost = [np.array([[1.0]]), np.zeros(1)]
    stacks = [np.ones((1, 1, 1)), np.array([[-1.0]])]
    rhs = np.ones(1)
    target = {"psd_cost": cost[0], "nonneg_cost": cost[1], "rhs": rhs,
              "psd_stack": stacks[0], "nonneg_stack": stacks[1]}[spot]
    target.flat[0] = bad
    with pytest.raises(ValueError, match="not finite"):
        ConicProblem.build(blocks=[(PSD, 1), (NONNEG, 1)], cost=cost, rhs=rhs, stacks=stacks)


def test_build_rejects_shape_mismatch_and_empty():
    with pytest.raises(ValueError):
        ConicProblem.build(blocks=[(PSD, 2)], cost=[np.eye(3)], rhs=[1.0],
                           stacks=[np.eye(2)[None]])
    with pytest.raises(ValueError):
        ConicProblem.build(blocks=[], cost=[], rhs=[1.0], stacks=[])
    with pytest.raises(ValueError):
        ConicProblem.build(blocks=[("cone", 2)], cost=[np.ones(2)], rhs=[1.0],
                           stacks=[np.ones((1, 2))])


def test_build_rejects_psd_block_after_nonneg_block():
    # the solver keeps the PSD blocks as one stack ahead of the nonneg list
    with pytest.raises(ValueError, match="PSD blocks must come before"):
        ConicProblem.build(
            blocks=[(NONNEG, 1), (PSD, 1)],
            cost=[np.zeros(1), np.array([[1.0]])],
            rhs=[1.0],
            stacks=[np.array([[-1.0]]), np.ones((1, 1, 1))],
        )


def test_build_rejects_psd_blocks_of_different_sizes():
    with pytest.raises(ValueError, match="same size"):
        ConicProblem.build(
            blocks=[(PSD, 2), (PSD, 3)],
            cost=[np.eye(2), np.eye(3)],
            rhs=[1.0],
            stacks=[np.eye(2)[None], np.eye(3)[None]],
        )


# -- reference programs ----------------------------------------------------------------


def one_dim_bound_problem():
    """min x over x >= 1: PSD 1x1 variable with a nonnegative surplus."""
    return ConicProblem.build(
        blocks=[(PSD, 1), (NONNEG, 1)],
        cost=[np.array([[1.0]]), np.zeros(1)],
        rhs=[1.0],
        stacks=[np.ones((1, 1, 1)), np.array([[-1.0]])],
    )


def unit_diagonal_problem(rho):
    """max Tr[Y rho] over Y >= 0 with unit diagonal, as a minimization."""
    d = rho.shape[0]
    problem = ConicProblem.build_unit_diagonal(-as_hermitian(rho))
    start = (
        [np.eye(d, dtype=np.complex128)],
        -2.0 * np.ones(d),
        [2.0 * np.eye(d, dtype=np.complex128) - rho],
    )
    return problem, start


def stacked_rows(problem):
    """A unit-diagonal problem posed through ConicProblem.build with its rows
    E_jj as a constraint stack: the same program in the stacked row form."""
    d = problem.rhs.size
    rows = np.zeros((d, d, d), dtype=np.complex128)
    rows[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    return ConicProblem.build(problem.blocks, problem.cost, problem.rhs, [rows])


def entrywise_roc_problem(rho):
    """The robustness posed as diag(t) - Z = rho entrywise: d^2 rows over a
    PSD block Z and a nonnegative block t, objective sum(t) = Tr D."""
    d = rho.shape[0]
    m = d * d
    t_stack = np.zeros((m, d))
    t_stack[:d, :] = np.eye(d)
    problem = ConicProblem.build(
        blocks=[(PSD, d), (NONNEG, d)],
        cost=[np.zeros((d, d), dtype=np.complex128), np.ones(d)],
        rhs=entry_coords(rho),
        stacks=[-hermitian_basis(d), t_stack],
    )
    # strictly feasible start: t = diag(rho) + 2, Z = diag(t) - rho >= 1;
    # dual start Y = I/2 with slack 1/2 on the diagonal bound
    t0 = np.diag(rho).real + 2.0
    z0 = np.diag(t0).astype(np.complex128) - rho
    y0 = np.zeros(m)
    y0[:d] = 0.5
    start = ([z0, t0], y0, [0.5 * np.eye(d, dtype=np.complex128), 0.5 * np.ones(d)])
    return problem, start


def test_scalar_lower_bound_program():
    sol = solve_or_raise(one_dim_bound_problem())
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert abs(float(sol.x[0][0, 0].real) - 1.0) < 1e-6


def test_unit_diagonal_maximally_coherent_d3():
    problem, start = unit_diagonal_problem(maximally_coherent_state(3))
    sol = solve_or_raise(problem, start=start)
    assert abs(-sol.primal_value - 3.0) < 1e-7  # best correlation value d
    assert abs(-sol.primal_value - 1.0 - 2.0) < 1e-7  # robustness d - 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_unit_diagonal_qubit_closed_form(seed):
    rho = random_state(2, seed=seed)
    problem, start = unit_diagonal_problem(rho)
    sol = solve_or_raise(problem, start=start)
    assert abs(-sol.primal_value - (1.0 + 2.0 * abs(rho[0, 1]))) < 1e-7


def test_pure_linear_program():
    sol = solve_or_raise(ConicProblem.build(
        blocks=[(NONNEG, 2)],
        cost=[np.array([1.0, 2.0])],
        rhs=[1.0],
        stacks=[np.array([[1.0, 1.0]])],
    ))
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert np.max(np.abs(sol.x[0] - np.array([1.0, 0.0]))) < 1e-6


# -- solution invariants ---------------------------------------------------------------


def residuals(problem, sol):
    m = problem.rhs.size
    applied = np.zeros(m)
    for (kind, _), st, x in zip(problem.blocks, problem.stacks, sol.x):
        flat = st.reshape(m, -1)
        xf = np.asarray(x).reshape(-1)
        if kind == PSD:
            applied += (flat @ xf.conj()).real
        else:
            applied += flat @ xf
    primal_res = np.linalg.norm(problem.rhs - applied) / (1 + np.linalg.norm(problem.rhs))
    dual_parts = []
    for (kind, _), st, c, s in zip(problem.blocks, problem.stacks, problem.cost, sol.s):
        aty = np.tensordot(sol.y, st, axes=1)
        dual_parts.append(np.asarray(c - aty - s).reshape(-1))
    dual_res = np.linalg.norm(np.concatenate(dual_parts))
    return primal_res, dual_res


def test_optimal_solution_invariants():
    rho = random_state(4, seed=17)
    problem, start = unit_diagonal_problem(rho)
    # residuals reads the constraint stacks, which the unit-diagonal form does
    # not hold: both forms' solutions are checked against the stacked build
    reference = stacked_rows(problem)
    for sol in (solve_or_raise(problem, start=start), solve_or_raise(reference, start=start)):
        check_optimal_solution(reference, sol)


def check_optimal_solution(problem, sol):
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.gap <= 1e-8
    primal_res, dual_res = residuals(problem, sol)
    assert primal_res <= 1e-7
    assert dual_res <= 1e-7
    for x, s in zip(sol.x, sol.s):
        wx = np.linalg.eigvalsh(x) if np.asarray(x).ndim == 2 else np.asarray(x)
        ws = np.linalg.eigvalsh(s) if np.asarray(s).ndim == 2 else np.asarray(s)
        assert np.min(wx) >= -1e-9
        assert np.min(ws) >= -1e-9
        # complementary slackness per block
        inner = (
            float(np.sum(np.asarray(x) * np.asarray(s).conj()).real)
            if np.asarray(x).ndim == 2
            else float(np.asarray(x) @ np.asarray(s))
        )
        assert abs(inner) <= 1e-7


def test_weak_duality_along_feasible_path():
    rho = random_state(3, seed=23)
    problem, start = _roc_problem(rho)
    sol = solve_or_raise(problem, start=start)
    assert len(sol.history) >= 2
    for entry in sol.history:
        assert entry["primal"] >= entry["dual"] - 1e-12


def scaled_cost_solves(rho, lam):
    problem, start = unit_diagonal_problem(rho)
    base = solve_or_raise(problem, start=start)
    scaled_problem = ConicProblem.build_unit_diagonal(lam * problem.cost[0])
    x0, y0, s0 = start
    scaled_start = ([b.copy() for b in x0], lam * np.asarray(y0), [lam * b for b in s0])
    scaled = solve_or_raise(scaled_problem, start=scaled_start)
    return problem, base, scaled


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_scaling_invariance_of_argmin(seed):
    lam = 3.7
    _, base, scaled = scaled_cost_solves(random_state(3, seed=seed), lam)
    assert abs(scaled.primal_value - lam * base.primal_value) < 1e-6
    assert np.max(np.abs(scaled.x[0] - base.x[0])) < 1e-6


def test_scaling_invariance_of_argmin_set_on_flat_face():
    # near-degenerate optimal face: the minimizer set, not any single point,
    # is the scale-invariant object; the scaled argmin must still be optimal
    # for the unscaled cost
    lam = 3.7
    problem, base, scaled = scaled_cost_solves(random_state(3, seed=31), lam)
    value_at_scaled_argmin = float(np.vdot(problem.cost[0], scaled.x[0]).real)
    assert abs(scaled.primal_value - lam * base.primal_value) < 1e-6
    assert abs(value_at_scaled_argmin - base.primal_value) < 1e-6


def permute_rows(problem, start, perm):
    """The same program and start with the constraint rows in the order perm."""
    permuted = ConicProblem.build(
        blocks=problem.blocks,
        cost=problem.cost,
        rhs=problem.rhs[perm],
        stacks=[st[perm] for st in problem.stacks],
    )
    x0, y0, s0 = start
    return permuted, (x0, np.asarray(y0)[perm], s0)


def test_constraint_permutation_invariance():
    rho = random_state(3, seed=37)
    problem, start = entrywise_roc_problem(rho)
    base = solve_or_raise(problem, start=start)
    perm = np.array([4, 0, 7, 2, 6, 1, 8, 3, 5])
    permuted, permuted_start = permute_rows(problem, start, perm)
    other = solve_or_raise(permuted, start=permuted_start)
    assert abs(other.primal_value - base.primal_value) < 1e-9
    assert abs(other.dual_value - base.dual_value) < 1e-9


def near_diagonal_state(d, seed):
    """Mixture (1 - eps) dephase(sigma) + eps sigma: off-diagonals 1e-9 times
    the populations' scale, robustness near the reporting floor."""
    sigma = random_state(d, seed=seed)
    return dephase(sigma) + 1e-9 * (sigma - dephase(sigma))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["full", "rank1", "rank2", "near_diagonal"])
def test_roc_exact_agrees_with_entrywise_formulation(d, kind):
    for seed in (0, 1):
        if kind == "near_diagonal":
            rho = near_diagonal_state(d, seed)
        else:
            rank = {"full": d, "rank1": 1, "rank2": 2}[kind]
            rho = random_state(d, rank=rank, seed=seed)
        problem, start = entrywise_roc_problem(rho)
        ref = solve_or_raise(problem, tol=1e-10, start=start).primal_value - 1.0
        cert = roc_exact(rho)
        # Tr D - 1 bounds the optimum from above and Tr[Y rho] - 1 from below;
        # the tighter entrywise optimum must fall inside that bracket, up to
        # the reporting floor below which values are clamped to zero
        assert cert.value - cert.gap - VALUE_FLOOR <= ref <= cert.value + VALUE_FLOOR


def test_roc_problem_has_one_row_per_diagonal_entry():
    problem, _ = _roc_problem(random_state(16, seed=4))
    assert problem.rhs.size == 16
    assert problem.blocks == ((PSD, 16),)


# -- unit-diagonal row form -------------------------------------------------------------


def test_only_the_unit_diagonal_builder_poses_the_unit_diagonal_form():
    rho = random_state(4, seed=3)
    problem, _ = _roc_problem(rho)
    assert problem.unit_diagonal and problem.stacks == ()
    assert problem.blocks == ((PSD, 4),) and np.array_equal(problem.rhs, np.ones(4))
    assert unit_diagonal_problem(rho)[0].unit_diagonal
    # the same rows E_jj passed to build are a constraint stack like any other
    assert not stacked_rows(problem).unit_diagonal
    assert not entrywise_roc_problem(rho)[0].unit_diagonal


@pytest.mark.parametrize("cost", [
    np.ones((2, 3)),
    np.ones(3),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["rectangular", "vector", "not_hermitian", "nan", "inf"])
def test_unit_diagonal_builder_rejects_bad_cost(cost):
    with pytest.raises(ValueError):
        ConicProblem.build_unit_diagonal(cost)


def test_games_and_data_programs_take_the_stacked_rows(monkeypatch):
    solved = []
    real_solve = sdp.solve

    def recording(problem, **options):
        solved.append(problem)
        return real_solve(problem, **options)

    monkeypatch.setattr(sdp, "solve", recording)
    probe = random_state(3, seed=2)
    success_probability(random_phase_game(3, 3, seed=1), probe)
    success_probability(random_channel_game(3, outcomes=3, seed=1), probe)
    rng = np.random.default_rng(5)
    obs = [as_hermitian(g + g.conj().T) for g in
           rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))]
    data = WitnessDataset.from_state(random_state(3, seed=5), obs)
    best_witness_from_data(data)
    min_roc_from_data(data)
    min_roc_from_data(data, slack=0.01)
    # the joint program for each data solve (sigma is a full-rank state
    # that matches the data, so phase 1 does not run), plus the fit and the
    # two measurement programs (three hypotheses each, so neither game is
    # answered in closed form): none is the robustness program
    assert len(solved) >= 5
    assert not any(problem.unit_diagonal for problem in solved)


@pytest.mark.parametrize("d", range(2, 9))
def test_unit_diagonal_rows_match_stacked_assembly(d):
    rng = np.random.default_rng(100 + d)
    problem, _ = _roc_problem(random_state(d, seed=d))
    fast, ref = sdp._UnitDiagonalRows(problem), sdp._StackedRows(stacked_rows(problem))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T + 0.1 * np.eye(d)  # random Hermitian positive definite
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = h + h.conj().T
    y = rng.normal(size=d)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)

    # the stacked rows act on the realified image, which doubles traces
    # (both forms take the PSD blocks as a stack, here a stack of one)
    assert close(ref.schur(realify(w)[None], []), 2.0 * fast.schur(w[None], []))
    assert close(ref.apply(realify(x)[None], []), 2.0 * fast.apply(x[None], []))
    assert close(ref.adjoint(y)[0][0], realify(fast.adjoint(y)[0][0]))
    vec_fast, vec_ref = np.zeros(d), np.zeros(d)
    fast.add_scaled(vec_fast, w[None], x[None], [], [])
    ref.add_scaled(vec_ref, realify(w)[None], realify(x)[None], [], [])
    assert close(vec_ref, 2.0 * vec_fast)


@pytest.mark.parametrize(("rank", "d"), [
    *[(rank, d) for d in (2, 3, 5, 8) for rank in (1, 2, "full")],
    *[(rank, d) for d in (16, 32) for rank in (2, "full")],
])
def test_roc_exact_at_benchmark_sizes(rank, d):
    rho = random_state(d, rank=d if rank == "full" else rank, seed=d + 3)
    cert = roc_exact(rho)
    # the benchmark's bounds (bench/checks.py): 1e-6 relative on values,
    # 1e-9 on diagonals, 1e-7 on eigenvalue floors
    tol = 1e-6 * max(1.0, cert.value)
    report = check_certificate(rho, cert)
    assert report["witness_diag_peak"] <= 1e-9
    assert report["witness_eig_excess"] <= 1e-6
    assert report["value_mismatch"] <= tol
    assert report["reconstruction_err"] <= tol
    assert report["tau_eig_floor"] >= -1e-7
    assert report["delta_pop_floor"] >= -1e-9
    # the robustness program runs on the complex d x d block
    problem, start = _roc_problem(rho)
    sol = solve_or_raise(problem, start=start)
    assert sol.x[0].dtype == np.complex128 and sol.x[0].shape == (d, d)
    # the same program posed through build takes the realified stacked rows;
    # its bracket [Tr[Y rho] - 1, Tr D - 1] is the reference.  Both solves
    # follow the same central path in exact arithmetic and take the same
    # iterations, so their upper ends differ by roundoff, not by the 1e-8
    # gap: at most 2.5e-11 on 180 seeded states (d = 2..32, ranks 1, 2 and
    # full, seeds 35..40)
    reference = stacked_rows(problem)
    assert not reference.unit_diagonal
    ref = solve_or_raise(reference, start=start)
    assert -ref.primal_value - 1.0 <= cert.value <= -ref.dual_value - 1.0 + 1e-10


# -- batched PSD stack ---------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_batched_kernels_equal_per_matrix_calls(dtype):
    # the premise of solving all PSD blocks as one stack: on this numpy and
    # BLAS, every kernel the interior-point loop batches gives each matrix of
    # a stack the bits of a call on that matrix alone
    rng = np.random.default_rng(7)

    def draw(*shape):
        a = rng.normal(size=shape)
        return a + 1j * rng.normal(size=shape) if dtype is np.complex128 else a

    for n in range(2, 13):
        for m in range(1, 8):
            g, a, b = draw(m, n, n), draw(m, n, n), draw(m, n, n)
            pd = g @ sdp._h(g) + n * np.eye(n)
            chol = np.linalg.cholesky(pd)
            # each kernel takes a stack or one matrix alike
            kernels = {
                "cholesky": (np.linalg.cholesky, (pd,)),
                "svd.U": (lambda x: np.linalg.svd(x).U, (a,)),
                "svd.S": (lambda x: np.linalg.svd(x).S, (a,)),
                "svd.Vh": (lambda x: np.linalg.svd(x).Vh, (a,)),
                "eigvalsh": (lambda x: np.linalg.eigvalsh(x + sdp._h(x)), (a,)),
                "solve": (np.linalg.solve, (chol, a)),
                "matmul": (lambda x, y: x @ y @ sdp._h(x), (a, b)),
                "gram": (lambda x: x @ sdp._h(x), (a,)),
            }
            for name, (kernel, args) in kernels.items():
                stacked = kernel(*args)
                for k in range(m):
                    alone = kernel(*(arg[k] for arg in args))
                    assert _same_bits(stacked[k], alone), (name, n, m, k)


def test_jitter_ladder_runs_per_block():
    # a stack that does not factor as a whole gives each matrix the first
    # rung of the ladder that factors it alone
    pd = np.array([[2.0, 0.5], [0.5, 1.0]])
    singular = np.ones((2, 2))  # needs the first nonzero rung
    got = sdp._chol(np.stack([pd, singular]), 1e-300, sdp.BLOCK_JITTER)
    assert _same_bits(got[0], np.linalg.cholesky(pd))
    rung = sdp.BLOCK_JITTER[1]
    assert _same_bits(got[1], np.linalg.cholesky(singular + rung * 1.0 * np.eye(2)))
    assert sdp._chol(np.stack([pd, -np.eye(2)]), 1e-300, sdp.BLOCK_JITTER) is None


def test_jitter_ladder_of_a_stack_of_one_skips_the_failed_rung(monkeypatch):
    # the stack's own unjittered factorization was the matrix's rung 0, so the
    # fallback starts at rung 1 and gives the bits of the full ladder
    singular = np.ones((2, 2))
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    got = sdp._chol(singular[None], 1.0, sdp.SCHUR_JITTER)
    rung = sdp.SCHUR_JITTER[1]
    assert _same_bits(got[0], cholesky(singular + rung * 1.0 * np.eye(2)))
    assert len(calls) == 2  # the whole stack, then rung 1
    assert sdp._chol(-np.eye(2)[None], 1.0, sdp.SCHUR_JITTER) is None
    assert len(calls) == 2 + len(sdp.SCHUR_JITTER)


def test_step_length_test_breakdown_is_none():
    # a nan direction makes eigvalsh raise LinAlgError or return nan; either
    # way the solve ends as numerical_failure instead of raising
    l = np.linalg.cholesky(np.eye(2))[None]
    for bad in (np.nan, np.inf):
        assert sdp._max_step_psd(l, np.full((1, 2, 2), bad)) is None
    assert sdp._max_step_psd(l, -np.eye(2)[None]) == [1.0]


def test_shared_constraint_stack_changes_no_bits():
    # the measurement program poses one stack for every block; the solver
    # holds it once and broadcasts A^T y, which must give the bits of holding
    # one copy per block, from the start the program runs
    rho = random_state(3, seed=12)
    game = random_phase_game(3, 4, seed=5)
    weighted = [p * st for p, st in zip(game.priors, game.states(rho))]
    posed, start = _measurement_problem(weighted)
    basis = hermitian_basis(3)
    assert posed.shared_stack and all(st is basis for st in posed.stacks)

    def solved(stacks, shared=None):
        problem = ConicProblem.build(blocks=posed.blocks, cost=posed.cost,
                                     rhs=posed.rhs, stacks=stacks)
        if shared is not None:  # hold the stack once per block
            object.__setattr__(problem, "shared_stack", shared)
        assert problem.shared_stack == (shared is None)
        return solve_or_raise(problem, start=start)

    m = len(weighted)
    one = solved((basis,) * m)
    for other in (solved([basis.copy() for _ in range(m)]), solved((basis,) * m, shared=False)):
        assert other.iterations == one.iterations
        assert _same_bits(other.y, one.y)
        for xa, xb, sa, sb in zip(one.x, other.x, one.s, other.s):
            assert _same_bits(xa, xb) and _same_bits(sa, sb)


def test_psd_blocks_factored_once_per_iterate(monkeypatch):
    calls = []
    chol = sdp._chol

    def counted(m, ridge_scale, ladder):
        calls.append(ladder)
        return chol(m, ridge_scale, ladder)

    monkeypatch.setattr(sdp, "_chol", counted)
    problem, start = _roc_problem(random_state(4, seed=6))
    sol = solve_or_raise(problem, start=start)
    # NT scaling factors x and s once each, the step lengths reuse them, and
    # the Schur complement goes through the same routine once per iterate
    assert sol.iterations > 0
    assert calls.count(sdp.BLOCK_JITTER) == 2 * sol.iterations
    assert calls.count(sdp.SCHUR_JITTER) == sol.iterations


def test_solver_deterministic():
    rho = random_state(3, seed=41)
    problem, start = unit_diagonal_problem(rho)
    a = solve_or_raise(problem, start=start)
    b = solve_or_raise(problem, start=start)
    assert a.primal_value == b.primal_value
    assert a.iterations == b.iterations
    assert np.array_equal(a.x[0], b.x[0])


def test_honest_max_iter_status_and_raise():
    problem, start = unit_diagonal_problem(random_state(3, seed=2))
    sol = solve(problem, max_iter=1, start=start)
    assert sol.status is SolveStatus.MAX_ITER
    with pytest.raises(SolverError):
        solve_or_raise(problem, max_iter=1, start=start)


def test_iterate_log_dump():
    problem, start = unit_diagonal_problem(random_state(2, seed=3))
    lines = solve_or_raise(problem, start=start).history
    assert len(lines) >= 2
    assert all(set(entry) == {"iteration", "primal", "dual", "gap"} for entry in lines)
    assert lines[-1]["gap"] <= 1e-8


def test_tight_tolerance_still_converges():
    problem, start = unit_diagonal_problem(random_state(3, seed=9))
    sol = solve_or_raise(problem, tol=1e-10, start=start)
    assert sol.gap <= 1e-10
