"""Coherence witnesses: validation, lower bounds, and device-data programs.

A coherence witness W is a Hermitian observable whose diagonal is entrywise
nonnegative and whose largest eigenvalue is at most 1.  For any such W and
any state, max(0, -Tr[rho W]) never exceeds the robustness of coherence, so
a measured expectation certifies coherence quantitatively.

Two data-driven programs operate on expectation datasets: the best witness
that is a linear combination of the measured observables (a lower bound from
data alone), and the exact minimum robustness among all states consistent
with the data.  Both read the data through one SVD of the identity and the
observables (_least_squares): the fit works on the row space that the SVD
keeps, and the exact program on its null space.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import sdp
from .games import CROSS_CHECK_TOL
from .linalg import (as_density, as_hermitian, dephase, jacobi_eigh, jacobi_eigvalsh,
                     l1_coherence)
from .roc import VALUE_FLOOR, roc_exact, solve_robustness

DIAG_TOL = 1e-10
EIG_TOL = 1e-10
FEASIBILITY_TOL = 1e-7
# the most any row may change, for a state, along the singular directions
# that _least_squares drops; sigma of consistent data misses a row by at most
# as much, so each state of the reduced set matches every row within half of
# FEASIBILITY_TOL
DROP_TOL = 0.25 * FEASIBILITY_TOL


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


# -- the data rows in coordinates --------------------------------------------------


@lru_cache(maxsize=32)
def _orthonormal_basis(d: int) -> np.ndarray:
    """hermitian_basis(d) with its off-diagonal elements scaled by 1/sqrt 2:
    an orthonormal basis of the Hermitian d x d matrices under Tr[A B]."""
    scale = np.full(d * d, np.sqrt(0.5))
    scale[:d] = 1.0
    out = sdp.hermitian_basis(d) * scale[:, None, None]
    out.setflags(write=False)
    return out


def _coords(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Tr[B_a M] for each matrix M of a (..., d, d) stack and each B_a of basis."""
    n = basis.shape[-1] ** 2
    flat = mats.reshape(-1, n) @ basis.reshape(-1, n).conj().T
    return flat.real.reshape(mats.shape[:-2] + (-1,))


def _matrices(coords: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_a c_a B_a for each coordinate vector c of coords, shaped (..., d, d)."""
    d = basis.shape[-1]
    return (coords @ basis.reshape(-1, d * d)).reshape(coords.shape[:-1] + (d, d))


class _DataSpace(NamedTuple):
    """The data rows in coordinates (_least_squares).

    sigma: the unit-trace Hermitian point nearest 1/d on the kept directions.
    deviation: _deviation(data, slack, sigma) over every row.
    span: an orthonormal basis P_1..P_r of the kept row space, (r, d, d).
    null: an orthonormal basis N_1..N_n of its complement, n = d^2 - r.
    weights: (k + 1, r); W = sum_j a_j P_j is m * 1 + sum_i c_i O_i with
        (m, c) = weights @ a, the minimum-norm such (m, c).
    """

    sigma: np.ndarray
    deviation: float
    span: np.ndarray
    null: np.ndarray
    weights: np.ndarray


def _least_squares(data: WitnessDataset, slack: np.ndarray) -> _DataSpace:
    """One SVD of the identity and the observables, written in
    _orthonormal_basis coordinates, decides the row space of the data.

    A row listed twice, or the identity measured, is posed once (its first
    listing), so it changes no bit of either program.  The smallest singular
    directions are dropped while every row's component along the dropped
    ones, sqrt(sum_j (U_ij s_j)^2), is at most DROP_TOL.  A state differs
    from 1/d along them by at most ||rho - 1/d||_F < 1, so every state that
    matches the kept directions matches every row within sigma's deviation
    plus DROP_TOL: no row needs a check of its own.  sigma is the
    pseudo-inverse point around 1/d over the kept directions.

    deviation <= FEASIBILITY_TOL shows, outside any solve, that a unit-trace
    Hermitian matrix matches the data.  When lambda_min(sigma) exceeds
    FEASIBILITY_TOL as well, sigma is a full-rank state that matches them:
    the data are consistent, and they pin no pure state.
    """
    d = data.dim
    basis = _orthonormal_basis(d)
    rows = _coords(np.stack([np.eye(d, dtype=np.complex128), *data.observables]), basis)
    repeated = np.triu((rows[:, None] == rows[None]).all(axis=2), 1).any(axis=0)
    first = np.flatnonzero(~repeated)
    u, sv, vt = np.linalg.svd(rows[first])
    u = u[:, :sv.size]
    # tail[i, j]: row i's squared component along directions j, j + 1, ...
    tail = np.cumsum(((u * sv) ** 2)[:, ::-1], axis=1)[:, ::-1]
    rank = int(np.count_nonzero(np.max(tail, axis=0) > DROP_TOL ** 2))
    centre = rows[0] / d
    target = np.array([1.0, *data.expectations])[first] - rows[first] @ centre
    step = vt[:rank].T @ ((u[:, :rank].T @ target) / sv[:rank])
    sigma = _matrices(centre + step, basis)
    weights = np.zeros((len(rows), rank))
    weights[first] = u[:, :rank] / sv[:rank]
    return _DataSpace(sigma=sigma, deviation=_deviation(data, slack, sigma),
                      span=_matrices(vt[:rank], basis), null=_matrices(vt[rank:], basis),
                      weights=weights)


# -- best witness compatible with a dataset --------------------------------------


@dataclass(frozen=True)
class WitnessFit:
    """Best data-built witness W = sum_i c_i O_i + m * identity, with one
    coefficient per observable of the dataset (0 for a repeated listing).
    witness is W as the solve gives it in row-space coordinates; the
    coefficients give it up to their roundoff, which grows as the inverse of
    the least singular value that _least_squares keeps."""

    bound: float
    coefficients: np.ndarray
    offset: float
    witness: np.ndarray


def best_witness_from_data(data: WitnessDataset, tol: float = 1e-8) -> WitnessFit:
    """Maximize -Tr[W sigma] over W = sum_j a_j P_j in the row space of the
    data (_least_squares) with W <= 1 and diag W >= 0.

    Every W of the row space is m * 1 + sum_i c_i O_i, and Tr[W sigma] is
    then sum_i c_i o_i + m, so this is the best valid witness built from the
    data.  The coordinates a live in the solver's dual vector, one
    orthonormal row per P_j, with a PSD d block for W <= 1 and a nonnegative
    d block for diag W >= 0.  The primal, min Tr X over X >= 0 and x >= 0
    with Tr[P_j X] - <diag P_j, x> = -Tr[P_j sigma], is strictly feasible at
    X = t*1 - sigma, x = t with t = lambda_max(sigma) + 1, the solve's start
    with W = 1/2 projected onto the row space.  The coefficients are the
    minimum-norm (m, c) that give W.  When sigma misses a row, the data are
    checked by phase 1 and InfeasibleDataError carries its deviation, as in
    min_roc_from_data.

    The solve is checked outside the engine before anything is returned: the
    witness must pass validate_witness, else SolverError names the failing
    quantity.  The bound is recomputed from the data, -(sum_i c_i o_i + m).
    """
    d, k = data.dim, len(data.observables)
    space = _least_squares(data, np.zeros(k))
    if space.deviation > FEASIBILITY_TOL:
        _phase1_deviation(data, np.zeros(k), tol)  # raises unless a state matches

    span, sigma = space.span, space.sigma
    eye = np.eye(d, dtype=np.complex128)
    diag = np.diagonal(span, axis1=1, axis2=2).real
    problem = sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d), (sdp.NONNEG, d)],
        cost=[eye, np.zeros(d)],
        rhs=-_coords(sigma, span),
        stacks=(span, -diag),
    )
    t = float(jacobi_eigvalsh(sigma)[-1]) + 1.0
    a0 = 0.5 * _coords(eye, span)
    start = ([t * eye - sigma, np.full(d, t)], a0,
             [eye - _matrices(a0, span), a0 @ diag])
    sol = sdp.solve_or_raise(problem, tol=tol, start=start)

    witness = as_hermitian(_matrices(sol.y, span))
    offset, *coeffs = space.weights @ sol.y
    coeffs = np.array(coeffs)
    report = validate_witness(witness)
    if not report.valid:
        raise sdp.SolverError(f"fitted witness is invalid: diag_min={report.diag_min:.3e}, "
                              f"eig_excess={report.eig_excess:.3e}")
    bound = -(float(coeffs @ np.asarray(data.expectations)) + offset)
    return WitnessFit(bound=max(0.0, bound), coefficients=coeffs, offset=float(offset),
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
    """The --slack program: min Tr Z + Tr rho over Z, rho >= 0 with Z + rho
    diagonal, Tr rho = 1 and |Tr[O_i rho] - o_i| <= slack_i.

    D = diag(Z + rho) then majorizes rho, so the primal value is Tr D.  Rows:
    one per off-diagonal element of hermitian_basis(d), acting on both
    blocks (rhs 0), then the trace row, then Tr[O_i rho] + a_i = o_i +
    slack_i and Tr[O_i rho] - b_i = o_i - slack_i on surplus blocks a, b >= 0.
    """
    d, k = data.dim, len(data.observables)
    off_diagonal = sdp.hermitian_basis(d)[d:]
    n_off = off_diagonal.shape[0]
    m = n_off + 1 + 2 * k

    z_stack = np.zeros((m, d, d), dtype=np.complex128)
    z_stack[:n_off] = off_diagonal
    rho_stack = z_stack.copy()
    rho_stack[n_off] = np.eye(d)
    rhs = np.zeros(m)
    rhs[n_off] = 1.0
    upper = n_off + 1 + np.arange(k)
    lower = upper + k
    rho_stack[upper] = data.observables
    rho_stack[lower] = data.observables
    rhs[upper] = np.asarray(data.expectations) + slack
    rhs[lower] = np.asarray(data.expectations) - slack
    a_stack = np.zeros((m, k))
    a_stack[upper, np.arange(k)] = 1.0
    b_stack = np.zeros((m, k))
    b_stack[lower, np.arange(k)] = -1.0
    eye = np.eye(d, dtype=np.complex128)
    return sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d), (sdp.PSD, d), (sdp.NONNEG, k), (sdp.NONNEG, k)],
        cost=[eye, eye, np.zeros(k), np.zeros(k)], rhs=rhs,
        stacks=[z_stack, rho_stack, a_stack, b_stack])


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
    coeffs = y[n_off + 1:n_off + 1 + k] + y[n_off + 1 + k:]
    eye = np.eye(d, dtype=np.complex128)
    g = eye - np.tensordot(y[:n_off], sdp.hermitian_basis(d)[d:], axes=1)
    shift = max(0.0, -float(jacobi_eigvalsh(g)[0]))
    s = g - y[n_off] * eye - np.tensordot(coeffs, np.stack(data.observables), axes=1)
    lower = (min(0.0, float(jacobi_eigvalsh(s)[0])) + float(y[n_off])
             + float(coeffs @ np.asarray(data.expectations))
             - float(np.abs(coeffs) @ slack) + shift) / (1.0 + shift) - 1.0
    state, trace = _unit_trace_psd_part(sol.x[1])
    upper = _majorant_bound(np.diag(sol.x[0] + sol.x[1]).real, state, trace)
    return lower, upper, state, float(np.sum(np.abs(coeffs)))


def _null_space_problem(space: _DataSpace) -> sdp.ConicProblem:
    """The exact program on the data's null space: max -Tr D over the
    engine's dual vector y = (D, t), subject to Diag(D) - sigma - N(t) >= 0
    and sigma + N(t) >= 0, with N(t) = sum_l t_l N_l (_least_squares).

    Every state that matches the kept directions is sigma + N(t) for one t,
    and D then majorizes it, so the value is the least Tr D - 1.  Two PSD d
    blocks and d + n rows.  The engine's primal, min Tr[sigma (X - Y)] over
    Y, X >= 0 with diag Y = 1 and Y - X orthogonal to every N_l, is
    strictly feasible at its default start Y = X = 1.
    """
    sigma, null = space.sigma, space.null
    d = sigma.shape[0]
    units = sdp.hermitian_basis(d)[:d]
    return sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d), (sdp.PSD, d)], cost=[-sigma, sigma],
        rhs=np.concatenate([-np.ones(d), np.zeros(len(null))]),
        stacks=[np.concatenate([-units, null]), np.concatenate([np.zeros_like(units), -null])])


def _null_space_bracket(space: _DataSpace, sol: sdp.ConicSolution) -> tuple:
    """(lower, upper, state, sensitivity) from any iterate of
    _null_space_problem.

    upper is at least the robustness of state, the PSD part of sigma + N(t)
    scaled to trace 1, since Diag(D) scaled alike and lifted by its
    eigenvalue defect majorizes it.  lower bounds the robustness of every
    state that matches the kept directions: with Y the primal's first block
    (its diagonal set to exactly 1), e = max(0, -lambda_min(Y)), G the
    projection of Y - X onto the row space and s = max(0, -lambda_min(Y -
    G)), (Y + e 1)/(1 + e) is a feasible dual point of the robustness
    program and Tr[G rho] = Tr[G sigma] for every such state, so lower =
    (Tr[G sigma] - s + e)/(1 + e) - 1.  G = m 1 + sum_i c_i O_i is built
    from the data, and sensitivity sum_i |c_i| bounds how far lower moves
    per unit of data mismatch.
    """
    d = space.sigma.shape[0]
    rho = space.sigma + _matrices(sol.y[d:], space.null)
    state, trace = _unit_trace_psd_part(rho)
    upper = _majorant_bound(sol.y[:d], state, trace)
    y_mat = sol.x[0] + np.diag(1.0 - np.diag(sol.x[0]))
    a = _coords(y_mat - sol.x[1], space.span)
    g = _matrices(a, space.span)
    shift = max(0.0, -float(jacobi_eigvalsh(y_mat)[0]))
    s = max(0.0, -float(jacobi_eigvalsh(y_mat - g)[0]))
    lower = (float(np.trace(g @ space.sigma).real) - s + shift) / (1.0 + shift) - 1.0
    return lower, upper, state, float(np.sum(np.abs((space.weights @ a)[1:])))


def _majorant_bound(diagonal: np.ndarray, state: np.ndarray, trace: float) -> float:
    """Tr D + d * defect - 1 with D = Diag(diagonal) / trace and defect =
    max(0, -lambda_min(D - state)): at least the robustness of state."""
    majorant = np.diag(diagonal / trace)
    defect = max(0.0, -float(jacobi_eigvalsh(majorant - state)[0]))
    return float(np.trace(majorant).real) + len(diagonal) * defect - 1.0


def min_roc_from_data(data: WitnessDataset, slack=0.0, tol: float = 1e-8) -> DataRocResult:
    """Exact minimum robustness of coherence among states matching the data.

    First decides whether a state matches the data, raising
    InfeasibleDataError when even the best state misses some expectation by
    more than FEASIBILITY_TOL; then solves a joint program for the least
    Tr D over diagonal D >= rho, jointly over the state and D, under the
    expectation constraints.  `slack` relaxes each equality to an interval
    of that half-width (scalar or per-observable), and poses _joint_problem;
    exact data pose _null_space_problem.  Values below 1e-6 are refined and
    values at or below 1e-9 are 0, as in `roc_exact`.

    The decision takes no solve when sigma (_least_squares) is a full-rank
    state that matches every row: the data are then consistent and pin no
    pure state, and `deviation` is sigma's, floored at 0.  Otherwise phase 1
    (_phase1_deviation) measures the deviation.  When it shows that the data
    pin down a single pure state, the joint program has no interior point
    and the value is that state's l1 coherence, its robustness (the
    one-point case of facial reduction).  Exact data whose rows span the
    Hermitian matrices (a null space of dimension 0) are answered by
    roc_exact(sigma), with sigma as the state and no joint program.  When
    phase 1 stalls off the data, the joint program still runs, and its
    answer stands when its state matches every row within FEASIBILITY_TOL:
    that state shows the data consistent, and its mismatch is `deviation`.
    Otherwise phase 1's SolverError is raised.

    When the joint solve stalls, its best iterate answers if the program's
    bracket (_joint_bracket, _null_space_bracket) closes: its state matches
    the data within FEASIBILITY_TOL (mismatch delta) and lower - delta *
    sensitivity <= upper <= lower + CROSS_CHECK_TOL; the value is then
    upper, the robustness bound of that state.  Otherwise the SolverError
    is raised.
    """
    d, k = data.dim, len(data.observables)
    slack_arr = np.broadcast_to(np.asarray(slack, dtype=float), (k,)).copy()
    if not np.all(np.isfinite(slack_arr)) or np.any(slack_arr < 0.0):
        raise ValueError("slack must be finite and nonnegative")
    relaxed = bool(np.any(slack_arr > 0.0))

    space = _least_squares(data, slack_arr)
    stalled = None
    if (space.deviation <= FEASIBILITY_TOL
            and float(jacobi_eigvalsh(space.sigma)[0]) > FEASIBILITY_TOL):
        deviation = max(0.0, space.deviation)
    else:
        try:
            deviation, phase1_state = _phase1_deviation(data, slack_arr, tol)
        except sdp.SolverError as exc:
            # the joint program's state, checked below, can show consistency
            stalled = exc
        else:
            pinned = _pinned_state(data, slack_arr, phase1_state)
            if pinned is not None:
                value = l1_coherence(pinned)  # a pure state's robustness is its l1 coherence
                return DataRocResult(value=value if value > VALUE_FLOOR else 0.0, state=pinned,
                                     deviation=deviation)

    if relaxed:
        problem = _joint_problem(data, slack_arr)
        bracket = partial(_joint_bracket, data, slack_arr)
    elif len(space.null) == 0:
        if stalled is not None:
            raise stalled
        return DataRocResult(value=roc_exact(space.sigma, tol).value, state=space.sigma,
                             deviation=deviation)
    else:
        problem = _null_space_problem(space)
        bracket = partial(_null_space_bracket, space)
    # Tr D - 1: the --slack program's primal value, or the exact program's D
    excess = ((lambda sol: float(sol.primal_value) - 1.0) if relaxed
              else (lambda sol: float(np.sum(sol.y[:d])) - 1.0))
    try:
        sol, value = solve_robustness(problem, None, tol, excess)
        state = bracket(sol)[2]
    except sdp.SolverError as exc:
        # a stalled solve answers from its best iterate when the bracket closes
        lower, upper, state, sensitivity = bracket(exc.solution)
        delta = _deviation(data, slack_arr, state)
        if not (delta <= FEASIBILITY_TOL
                and lower - delta * sensitivity <= upper <= lower + CROSS_CHECK_TOL):
            raise
        value = upper if upper > VALUE_FLOOR else 0.0
    if stalled is not None:
        deviation = _deviation(data, slack_arr, state)
        if not deviation <= FEASIBILITY_TOL:
            raise stalled
        deviation = max(0.0, deviation)
    return DataRocResult(value=value, state=state, deviation=deviation)
