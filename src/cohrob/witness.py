"""Coherence witnesses: validation, lower bounds, and device-data programs.

A coherence witness W is a Hermitian observable whose diagonal is entrywise
nonnegative and whose largest eigenvalue is at most 1.  For any such W and
any state, max(0, -Tr[rho W]) never exceeds the robustness of coherence, so
a measured expectation certifies coherence quantitatively.

Two data-driven programs operate on expectation datasets: the best witness
that is a linear combination of the measured observables (a lower bound from
data alone), and the exact minimum robustness among all states consistent
with the data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .games import CROSS_CHECK_TOL
from .linalg import (as_density, as_hermitian, dephase, jacobi_eigh, jacobi_eigvalsh,
                     l1_coherence)
from .roc import VALUE_FLOOR, roc_exact, solve_robustness

DIAG_TOL = 1e-10
EIG_TOL = 1e-10
FEASIBILITY_TOL = 1e-7
GRAM_RANK_TOL = 1e-8


class InfeasibleDataError(ValueError):
    """No quantum state reproduces the measured expectations within tolerance."""

    def __init__(self, deviation: float):
        super().__init__(
            f"no state matches the expectations: smallest achievable "
            f"worst-case deviation is {deviation:.3e}"
        )
        self.deviation = deviation


# -- validation and direct bounds -------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Diagnostics from witness validation.

    diag_min: smallest diagonal entry (must be >= -1e-10).
    eig_excess: largest eigenvalue minus 1 (must be <= 1e-10).
    """

    valid: bool
    diag_min: float
    eig_excess: float


def validate_witness(witness) -> WitnessReport:
    """Check the two witness conditions: nonnegative diagonal, eigenvalues <= 1."""
    w = as_hermitian(witness)
    diag_min = float(np.min(np.diag(w).real))
    eig_excess = float(jacobi_eigvalsh(w)[-1]) - 1.0
    return WitnessReport(
        valid=diag_min >= -DIAG_TOL and eig_excess <= EIG_TOL,
        diag_min=diag_min,
        eig_excess=eig_excess,
    )


class InvalidWitnessError(ValueError):
    """A witness fails validate_witness; carries the WitnessReport."""

    def __init__(self, report: WitnessReport):
        super().__init__(
            f"invalid witness: smallest diagonal {report.diag_min:.3e}, "
            f"eigenvalue excess {report.eig_excess:.3e}"
        )
        self.report = report


def witness_lower_bound(rho, witness) -> float:
    """Lower bound max(0, -Tr[rho W]) on the robustness of coherence of rho;
    raises InvalidWitnessError unless W passes validate_witness."""
    rho = as_density(rho)
    w = as_hermitian(witness)
    if w.shape != rho.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]} vs witness {w.shape[0]}")
    report = validate_witness(w)
    if not report.valid:
        raise InvalidWitnessError(report)
    return max(0.0, -float(np.trace(rho @ w).real))


def population_gap_witness(rho) -> np.ndarray:
    """The witness (dephase(rho) - rho) / max population.

    Always valid: its diagonal is zero and its largest eigenvalue is at most
    1 because the dephased part dominates and the state is PSD.  Its bound
    equals the squared off-diagonal weight over the peak population.
    """
    rho = as_density(rho)
    peak = float(np.max(np.diag(rho).real))
    return (dephase(rho) - rho) / peak


# -- datasets ---------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessDataset:
    """Measured expectations o_i = Tr[O_i rho] of Hermitian observables O_i."""

    dim: int
    observables: tuple
    expectations: tuple

    @staticmethod
    def build(observables, expectations) -> "WitnessDataset":
        obs = tuple(as_hermitian(o) for o in observables)
        if not obs:
            raise ValueError("at least one observable is required")
        d = obs[0].shape[0]
        if any(o.shape != (d, d) for o in obs):
            raise ValueError("observables must share one dimension")
        vals = tuple(float(e) for e in expectations)
        if len(vals) != len(obs):
            raise ValueError(
                f"{len(obs)} observables but {len(vals)} expectations"
            )
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("expectations must be finite reals")
        return WitnessDataset(dim=d, observables=obs, expectations=vals)

    @staticmethod
    def from_state(rho, observables) -> "WitnessDataset":
        rho = as_density(rho)
        obs = tuple(as_hermitian(o) for o in observables)
        vals = [float(np.trace(o @ rho).real) for o in obs]
        return WitnessDataset.build(obs, vals)


# -- best witness compatible with a dataset --------------------------------------


def _realified_rows(data: WitnessDataset) -> np.ndarray:
    """The identity and the observables as rows of their real and imaginary
    parts: row . (Re X, Im X) is Tr X, then Tr[O_i X], for Hermitian X."""
    rows = np.stack([np.eye(data.dim, dtype=np.complex128), *data.observables])
    return np.concatenate([rows.real.reshape(len(rows), -1),
                           rows.imag.reshape(len(rows), -1)], axis=1)


def _least_squares(data: WitnessDataset, slack: np.ndarray) -> tuple:
    """(kept, index, sigma, deviation, complete) from one least-squares solve
    over the identity and every observable of data (_realified_rows).

    sigma is sigma_ls, the unit-trace Hermitian matrix nearest 1/d in
    Frobenius norm with Tr[O_i sigma] = o_i, and deviation is
    _deviation(data, slack, sigma) over every row.  complete says that the
    solve's rank is d^2: the rows span the Hermitian matrices, and the
    solve's solution, sigma, is the only matrix that can match them all.

    The rows are independent when the solve's least singular value squared
    (the Gram matrix's least eigenvalue) exceeds GRAM_RANK_TOL times the
    largest squared row norm; kept is then data itself.  Else an observable
    is dropped when its squared distance to the span of the identity and the
    observables kept before it is at most that floor, and sigma of
    incomplete data is the kept rows' least-squares point.  index lists the
    kept observables' positions in data.  This is the package's one rank
    rule: the exact joint program and the witness fit pose only the kept
    rows, and the engine makes no rank test of its own.

    deviation <= FEASIBILITY_TOL shows, outside any solve, that a unit-trace
    Hermitian matrix matches the data.  When lambda_min(sigma) exceeds
    FEASIBILITY_TOL as well, sigma is a full-rank state that matches them:
    the data are consistent, and they pin no pure state.
    """
    d = data.dim
    flat = _realified_rows(data)
    centre = np.eye(d) / d
    target = np.array([1.0, *data.expectations]) - flat[:, :d * d] @ centre.ravel()
    step, _, rank, singular = np.linalg.lstsq(flat, target, rcond=None)
    floor = GRAM_RANK_TOL * float(np.max(np.sum(flat * flat, axis=1)))
    kept = list(range(len(flat)))
    if float(singular[-1]) ** 2 <= floor:  # each squared distance is at least this
        kept = [0]
        for i in range(1, len(flat)):
            span = flat[kept].T
            residual = flat[i] - span @ np.linalg.lstsq(span, flat[i], rcond=None)[0]
            if float(residual @ residual) > floor:
                kept.append(i)
        if rank < d * d:
            step = np.linalg.lstsq(flat[kept], target[kept], rcond=None)[0]
    step = (step[:d * d] + 1j * step[d * d:]).reshape(d, d)
    sigma = centre + 0.5 * (step + step.conj().T)  # the rows see only the Hermitian part
    index = [i - 1 for i in kept[1:]]
    deviation = _deviation(data, slack, sigma)
    if len(kept) < len(flat):
        data = WitnessDataset(dim=d, observables=tuple(data.observables[i] for i in index),
                              expectations=tuple(data.expectations[i] for i in index))
    return data, index, sigma, deviation, rank == d * d


@dataclass(frozen=True)
class WitnessFit:
    """Best data-built witness: W = sum_i c_i O_i + m * identity, with one
    coefficient per observable of the dataset (0 for a dropped one)."""

    bound: float
    coefficients: np.ndarray
    offset: float
    witness: np.ndarray


def best_witness_from_data(data: WitnessDataset, tol: float = 1e-8) -> WitnessFit:
    """Maximize -(sum_i c_i o_i + m) over valid witnesses sum c_i O_i + m*1.

    The witness coefficients live in the solver's dual vector: one row per
    observable that _least_squares keeps and one for the identity (the
    offset), a PSD d block for W <= 1 and a nonnegative d block for
    diag W >= 0.  The primal, min Tr X over X >= 0 and x >= 0 with
    Tr[O_i X] - <diag O_i, x> = -o_i and Tr X - sum x = -1, is strictly
    feasible at X = t*1 - sigma_ls, x = t with t = lambda_max(sigma_ls) + 1,
    the solve's start with the dual point c = 0, m = 1/2.  A dropped
    observable gets coefficient 0.  When sigma_ls misses a row, the data are
    checked by phase 1 and InfeasibleDataError carries its deviation, as in
    min_roc_from_data.

    The solve is checked outside the engine before anything is returned: the
    witness must pass validate_witness, else SolverError names the failing
    quantity.  The bound is recomputed from the data, -(sum_i c_i o_i + m).
    """
    d, k = data.dim, len(data.observables)
    kept, index, sigma, deviation, _ = _least_squares(data, np.zeros(k))
    if deviation > FEASIBILITY_TOL:
        _phase1_deviation(data, np.zeros(k), tol)  # raises unless a state matches

    n = len(index)
    eye = np.eye(d, dtype=np.complex128)
    rows = np.stack([*kept.observables, eye])
    problem = sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d), (sdp.NONNEG, d)],
        cost=[eye, np.zeros(d)],
        rhs=-np.array([*kept.expectations, 1.0]),
        stacks=(rows, -np.diagonal(rows, axis1=1, axis2=2).real),
    )
    t = float(jacobi_eigvalsh(sigma)[-1]) + 1.0
    start = ([t * eye - sigma, np.full(d, t)], np.append(np.zeros(n), 0.5),
             [0.5 * eye, np.full(d, 0.5)])
    sol = sdp.solve_or_raise(problem, tol=tol, start=start)

    coeffs = np.zeros(k)
    coeffs[index] = sol.y[:n]
    offset = float(sol.y[n])
    witness = as_hermitian(sum(c * o for c, o in zip(coeffs, data.observables)) + offset * eye)
    report = validate_witness(witness)
    if not report.valid:
        raise sdp.SolverError(f"fitted witness is invalid: diag_min={report.diag_min:.3e}, "
                              f"eig_excess={report.eig_excess:.3e}")
    bound = -(float(coeffs @ np.asarray(data.expectations)) + offset)
    return WitnessFit(bound=max(0.0, bound), coefficients=coeffs, offset=offset,
                      witness=witness)


# -- minimal robustness compatible with a dataset ---------------------------------


@dataclass(frozen=True)
class DataRocResult:
    """Minimum robustness among states matching the data, with a minimizer."""

    value: float
    state: np.ndarray
    deviation: float


def _deviation(data: WitnessDataset, slack: np.ndarray, rho: np.ndarray) -> float:
    """max_i (|Tr[O_i rho] - o_i| - slack_i), computed outside the solver."""
    return max(abs(float(np.trace(o @ rho).real) - e) - s
               for o, e, s in zip(data.observables, data.expectations, slack))


def _unit_trace_psd_part(x: np.ndarray) -> tuple:
    """(rho, trace): the PSD part of a Hermitian iterate divided by its trace,
    and that trace."""
    w, v = jacobi_eigh(x)
    rho = (v * np.maximum(w, 0.0)) @ v.conj().T
    trace = np.trace(rho).real
    return rho / trace, trace


def _phase1_deviation(data: WitnessDataset, slack: np.ndarray, tol: float) -> tuple:
    """Smallest worst-case |Tr[O_i rho'] - o_i| - slack_i over states rho',
    floored at 0, and a state that attains it; InfeasibleDataError when that
    deviation exceeds FEASIBILITY_TOL.

    A solve that stalls answers from its best iterate: the PSD part of its
    state, scaled to trace 1, is accepted when _deviation puts it within
    FEASIBILITY_TOL of the data, and that deviation is reported."""
    d, k = data.dim, len(data.observables)
    obs, vals, i = np.stack(data.observables), np.asarray(data.expectations), np.arange(k)
    psd_stack = np.concatenate([obs, obs, np.eye(d, dtype=np.complex128)[None]])
    u_stack = np.zeros((2 * k + 1, k))
    u_stack[i, i] = 1.0
    v_stack = np.zeros((2 * k + 1, k))
    v_stack[k + i, i] = -1.0
    eta_stack = np.concatenate([-np.ones(k), np.ones(k), [0.0]])[:, None]
    rhs = np.concatenate([vals + slack, vals - slack, [1.0]])

    problem = sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d), (sdp.NONNEG, k), (sdp.NONNEG, k), (sdp.NONNEG, 1)],
        cost=[np.zeros((d, d), dtype=np.complex128), np.zeros(k), np.zeros(k), np.ones(1)],
        rhs=rhs,
        stacks=(psd_stack, u_stack, v_stack, eta_stack),
    )
    traces = np.array([float(np.trace(o).real) for o in data.observables]) / d
    resid, resid2 = rhs[:k] - traces, rhs[k:2 * k] - traces
    eta0 = float(max(np.max(np.abs(resid)), np.max(np.abs(resid2)))) + 1.0
    eps = min(0.1, 0.25 / k)
    y0 = np.concatenate([-eps * np.ones(k), eps * np.ones(k), [-1.0]])
    start = (
        [np.eye(d, dtype=np.complex128) / d, resid + eta0, eta0 - resid2, np.array([eta0])],
        y0,
        [np.eye(d, dtype=np.complex128), eps * np.ones(k), eps * np.ones(k),
         np.array([1.0 - 2 * k * eps])],
    )
    sol = sdp.solve(problem, tol=tol, start=start)
    if sol.status is sdp.SolveStatus.OPTIMAL:
        deviation = float(sol.primal_value)
        if deviation > FEASIBILITY_TOL:
            raise InfeasibleDataError(deviation)
        return max(0.0, deviation), sol.x[0]
    rho, _ = _unit_trace_psd_part(sol.x[0])
    deviation = _deviation(data, slack, rho)
    if not deviation <= FEASIBILITY_TOL:
        raise sdp.SolverError(f"solve ended with status {sol.status.value}")
    return max(0.0, deviation), rho


def _pinned_state(data: WitnessDataset, slack: np.ndarray, state: np.ndarray):
    """The pure state vv^H when it is the only state matching the data, else None.

    `state` is phase 1's interior-point solution, so it has the largest rank
    of any consistent state: when its second eigenvalue vanishes, the
    consistent set is the single point vv^H, which is then checked against
    every expectation outside the solver.
    """
    lam, vecs = jacobi_eigh(state)
    if lam.size < 2 or lam[-2] > FEASIBILITY_TOL:
        return None
    pure = np.outer(vecs[:, -1], vecs[:, -1].conj())
    return pure if _deviation(data, slack, pure) <= FEASIBILITY_TOL else None


def _joint_problem(data: WitnessDataset, slack: np.ndarray) -> sdp.ConicProblem:
    """min Tr Z + Tr rho over Z, rho >= 0 with Z + rho diagonal, Tr rho = 1
    and the observable rows.

    D = diag(Z + rho) then majorizes rho, so the primal value is Tr D.  Rows:
    one per off-diagonal element of hermitian_basis(d), acting on both
    blocks (rhs 0), then the trace row, then Tr[O_i rho] (+ a_i) =
    o_i + slack_i for each i, and with slack the rows Tr[O_i rho] - b_i =
    o_i - slack_i on surplus blocks a, b >= 0.
    """
    d, k = data.dim, len(data.observables)
    off_diagonal = sdp.hermitian_basis(d)[d:]
    n_off = off_diagonal.shape[0]
    relaxed = bool(np.any(slack > 0.0))
    m = n_off + 1 + (2 * k if relaxed else k)

    z_stack = np.zeros((m, d, d), dtype=np.complex128)
    z_stack[:n_off] = off_diagonal
    rho_stack = z_stack.copy()
    rho_stack[n_off] = np.eye(d)
    rhs = np.zeros(m)
    rhs[n_off] = 1.0
    upper = n_off + 1 + np.arange(k)
    rho_stack[upper] = data.observables
    rhs[upper] = np.asarray(data.expectations) + slack

    eye = np.eye(d, dtype=np.complex128)
    blocks = [(sdp.PSD, d), (sdp.PSD, d)]
    cost = [eye, eye]
    stacks = [z_stack, rho_stack]
    if relaxed:
        lower = upper + k
        a_stack = np.zeros((m, k))
        a_stack[upper, np.arange(k)] = 1.0
        b_stack = np.zeros((m, k))
        b_stack[lower, np.arange(k)] = -1.0
        rho_stack[lower] = data.observables
        rhs[lower] = np.asarray(data.expectations) - slack
        blocks += [(sdp.NONNEG, k), (sdp.NONNEG, k)]
        cost += [np.zeros(k), np.zeros(k)]
        stacks += [a_stack, b_stack]
    return sdp.ConicProblem.build(blocks=blocks, cost=cost, rhs=rhs, stacks=stacks)


def _joint_bracket(data: WitnessDataset, slack: np.ndarray, sol: sdp.ConicSolution) -> tuple:
    """(lower, upper, state, sensitivity) from any iterate of _joint_problem.

    lower bounds the robustness of every state within the slack: the dual
    vector gives the unit-diagonal G = 1 - sum_i y_i B_i over the
    off-diagonal rows, the trace multiplier lam and the observable
    multipliers c_i (upper plus lower row), and G shifted by e =
    max(0, -lambda_min(G)) and rescaled is a feasible dual point of the
    robustness program.  upper is at least the robustness of state, the PSD
    part of the rho block scaled to trace 1, since D = diag(Z + rho) scaled
    alike and lifted by its eigenvalue defect majorizes it.  sensitivity
    sum_i |c_i| bounds how far lower moves per unit of data mismatch.
    """
    d, k = data.dim, len(data.observables)
    n_off = d * d - d
    y = sol.y
    coeffs = y[n_off + 1:n_off + 1 + k].copy()
    if y.size > n_off + 1 + k:
        coeffs += y[n_off + 1 + k:]
    eye = np.eye(d, dtype=np.complex128)
    g = eye - np.tensordot(y[:n_off], sdp.hermitian_basis(d)[d:], axes=1)
    shift = max(0.0, -float(jacobi_eigvalsh(g)[0]))
    s = g - y[n_off] * eye - np.tensordot(coeffs, np.stack(data.observables), axes=1)
    lower = (min(0.0, float(jacobi_eigvalsh(s)[0])) + float(y[n_off])
             + float(coeffs @ np.asarray(data.expectations))
             - float(np.abs(coeffs) @ slack) + shift) / (1.0 + shift) - 1.0

    state, trace = _unit_trace_psd_part(sol.x[1])
    majorant = np.diag(np.diag(sol.x[0] + sol.x[1]).real / trace)
    defect = max(0.0, -float(jacobi_eigvalsh(majorant - state)[0]))
    upper = float(np.trace(majorant).real) + d * defect - 1.0
    return lower, upper, state, float(np.sum(np.abs(coeffs)))


def min_roc_from_data(data: WitnessDataset, slack=0.0, tol: float = 1e-8) -> DataRocResult:
    """Exact minimum robustness of coherence among states matching the data.

    First decides whether a state matches the data, raising
    InfeasibleDataError when even the best state misses some expectation by
    more than FEASIBILITY_TOL; then solves _joint_problem: the least Tr D
    over diagonal D >= rho, jointly over the state and D, under the
    expectation constraints.  `slack` relaxes each equality to an interval
    of that half-width (scalar or per-observable).  Values below 1e-6 are
    refined and values at or below 1e-9 are 0, as in `roc_exact`.

    The decision takes no solve when sigma_ls is a full-rank state that
    matches every row (_least_squares): the data are then consistent and pin
    no pure state, and `deviation` is sigma_ls's, floored at 0.  When the
    identity and the observables also have rank d^2, exact data are
    complete: sigma_ls is the only consistent state, and the answer is
    roc_exact(sigma_ls) with sigma_ls as the state and no joint program.
    Otherwise phase 1 (_phase1_deviation) measures the deviation.  When it
    shows that the data pin down a single pure state, the joint program has
    no interior point and the value is that state's l1 coherence, its
    robustness (the one-point case of facial reduction).

    When the joint solve stalls, its best iterate answers if _joint_bracket
    closes: its state matches the data within FEASIBILITY_TOL (mismatch
    delta) and lower - delta * sensitivity <= upper <= lower +
    CROSS_CHECK_TOL; the value is then upper, the robustness bound of that
    state.  Otherwise the SolverError is raised.

    Exact data (no slack) whose observables and the identity are linearly
    dependent pose the joint program on the rows that _least_squares keeps,
    and the state it returns must match every observable within
    FEASIBILITY_TOL, else SolverError.
    """
    k = len(data.observables)
    slack_arr = np.broadcast_to(np.asarray(slack, dtype=float), (k,)).copy()
    if not np.all(np.isfinite(slack_arr)) or np.any(slack_arr < 0.0):
        raise ValueError("slack must be finite and nonnegative")
    relaxed = bool(np.any(slack_arr > 0.0))

    kept, _, sigma, deviation, complete = _least_squares(data, slack_arr)
    if deviation <= FEASIBILITY_TOL and float(jacobi_eigvalsh(sigma)[0]) > FEASIBILITY_TOL:
        deviation = max(0.0, deviation)
        if not relaxed and complete:
            return DataRocResult(value=roc_exact(sigma, tol).value, state=sigma,
                                 deviation=deviation)
    else:
        deviation, phase1_state = _phase1_deviation(data, slack_arr, tol)
        pinned = _pinned_state(data, slack_arr, phase1_state)
        if pinned is not None:
            value = l1_coherence(pinned)  # a pure state's robustness is its l1 coherence
            return DataRocResult(value=value if value > VALUE_FLOOR else 0.0, state=pinned,
                                 deviation=deviation)

    # only the exact program lacks a surplus variable per observable row, so
    # it alone drops the rows that others span; every row was checked above
    if relaxed:
        kept = data
    kept_slack = slack_arr[:len(kept.observables)]
    problem = _joint_problem(kept, kept_slack)
    try:
        sol, value = solve_robustness(problem, None, tol,
                                      lambda sol: float(sol.primal_value) - 1.0)
        state, _ = _unit_trace_psd_part(sol.x[1])
    except sdp.SolverError as exc:
        # a stalled solve answers from its best iterate when the bracket closes
        lower, upper, state, sensitivity = _joint_bracket(kept, kept_slack, exc.solution)
        delta = _deviation(kept, kept_slack, state)
        if not (delta <= FEASIBILITY_TOL
                and lower - delta * sensitivity <= upper <= lower + CROSS_CHECK_TOL):
            raise
        value = upper if upper > VALUE_FLOOR else 0.0
    if kept is not data:
        delta = _deviation(data, slack_arr, state)
        if not delta <= FEASIBILITY_TOL:
            raise sdp.SolverError(f"the state misses a dropped observable row by {delta:.3e}")
    return DataRocResult(value=value, state=state, deviation=deviation)
