"""Robustness of coherence: exact values with certificates, fast paths, bounds.

The robustness of a state rho is the least s >= 0 such that mixing rho with
weight-s times some state tau yields a diagonal (incoherent) state.  It is
computed here as the optimum of a pair of semidefinite programs:

    primal:  minimize Tr D - 1   over diagonal D >= rho
    dual:    maximize Tr[Y rho] - 1   over Y >= 0 with unit diagonal

Both come from one solve of the dual in the engine's standard form, which
has one PSD block and one constraint row per diagonal entry (d rows, not
d^2).  The dual solution yields an optimal witness W = 1 - Y with zero
diagonal; the engine's dual vector yields D and with it the pseudomixture
rho = (1+s) delta - s tau with delta = D / Tr D diagonal and tau a state.

The closed form seeds the solve.  D_cf = l1_majorant(rho), with
D_jj = rho_jj + sum_{l != j} |rho_jl|, is primal-feasible for every state
(D_cf - rho is diagonally dominant), and for a phase-alignable state it is
optimal together with the witness 1 - vv†, v the aligning phases.  The
solve starts from a scaled D_cf and from Y leaning towards vv† (towards the
phases of rho's top eigenvector when no aligning phases exist), strictly
inside both cones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (
    as_hermitian,
    jacobi_eigh,
    jacobi_eigvalsh,
    l1_coherence,
    random_state,
)

VALUE_FLOOR = 1e-9  # at or below this the state counts as incoherent; no tau part
NEAR_ZERO = 1e-6  # a first-solve value below this is refined at TOL_FLOOR
TOL_FLOOR = 1e-10  # the smallest solver tolerance: refines and the CLI's --tol floor


@dataclass
class RocCertificate:
    """Exact value plus dual witness and primal pseudomixture.

    value: the robustness (clamped to >= 0).
    gap: absolute primal-dual difference of the underlying solve.
    method: "sdp", the route that produced the value.
    witness: Hermitian W with zero diagonal and W <= 1; -Tr[W rho] = value.
    incoherent_part: diagonal state delta with (1+value) delta = rho + value tau.
    noise_part: state tau, or None when value <= 1e-9.
    iterations: interior-point iterations of the solve.
    """

    value: float
    gap: float
    method: str
    witness: np.ndarray
    incoherent_part: np.ndarray
    noise_part: np.ndarray | None
    iterations: int = 0


# The start point: D0 = START_SCALE * D_cf + START_FLOOR with D_cf the
# l1 majorant, and Y0 = (1 - START_MIX) 1 + START_MIX vv† with unit diagonal.
START_SCALE = 1.25
START_MIX = 0.3
START_FLOOR = 0.01


def _roc_problem(rho: np.ndarray):
    d = rho.shape[0]
    # min <-rho, Y> over Y >= 0 with diag(Y) = 1: the engine's x is Y (the
    # witness is 1 - Y), its y gives D = diag(-y) >= rho, and its slack is
    # -rho - diag(y) = D - rho, the unnormalised tau.  d rows, so the Schur
    # complement is d x d.
    problem = sdp.ConicProblem.build_unit_diagonal(-rho)
    # strictly feasible start near the closed form (the diagonally dominant
    # start of Helmberg, Rendl, Vanderbei & Wolkowicz 1996): D_cf - rho is
    # diagonally dominant and D_cf >= 0, so the slack D0 - rho >= START_FLOOR;
    # Y0 leans towards vv†, with v the aligning phases when they exist (then
    # 1 - vv† is the optimal witness) and the phases of rho's top eigenvector
    # otherwise, and its eigenvalues stay >= 1 - START_MIX
    d0 = START_SCALE * l1_majorant(rho) + START_FLOOR
    phi = aligning_phases(rho)
    if phi is None:
        phi = -np.angle(jacobi_eigh(rho)[1][:, -1])
    v = np.exp(-1j * phi)
    y0 = (1.0 - START_MIX) * np.eye(d) + START_MIX * np.outer(v, v.conj())
    np.fill_diagonal(y0, 1.0)
    start = ([y0], -d0, [np.diag(d0) - rho])
    return problem, start


def solve_robustness(problem, start, tol: float, excess) -> tuple:
    """(solution, value) of a robustness program whose Tr D - 1 is excess(sol).
    A value below NEAR_ZERO continues the same solve from its final iterate to
    TOL_FLOOR, kept if OPTIMAL; a value at or below VALUE_FLOOR is exactly 0."""
    sol = sdp.solve_or_raise(problem, tol=tol, start=start)
    if excess(sol) < NEAR_ZERO and tol > TOL_FLOOR:
        refined = sdp.solve(problem, tol=TOL_FLOOR, start=(sol.x, sol.y, sol.s))
        if refined.status is sdp.SolveStatus.OPTIMAL:
            sol = refined
    value = excess(sol)
    return sol, (value if value > VALUE_FLOOR else 0.0)


def roc_exact(rho, tol: float = 1e-8) -> RocCertificate:
    """Certified robustness of coherence of a valid state via one SDP solve."""
    rho = as_hermitian(rho)
    d = rho.shape[0]
    problem, start = _roc_problem(rho)
    sol, value = solve_robustness(problem, start, tol, lambda sol: float(np.sum(-sol.y)) - 1.0)
    d_diag = -sol.y
    trace_d = float(np.sum(d_diag))

    y_mat = sol.x[0]
    y_mat = y_mat + np.diag(1.0 - np.diag(y_mat))  # lift diagonal to exactly 1
    witness = np.eye(d, dtype=np.complex128) - y_mat

    delta = np.diag(d_diag / trace_d).astype(np.complex128)
    z_star = np.diag(d_diag) - rho
    tau = z_star / float(np.trace(z_star).real) if value > 0.0 else None
    return RocCertificate(
        value=value,
        gap=abs(sol.primal_value - sol.dual_value),
        method="sdp",
        witness=witness,
        incoherent_part=delta,
        noise_part=tau,
        iterations=sol.iterations,
    )


# -- closed-form fast path -------------------------------------------------------

FAST_PATH_ZERO = 1e-10  # off-diagonals below this fraction of the peak are zero
FAST_PATH_CYCLE_TOL = 1e-8


def l1_majorant(rho) -> np.ndarray:
    """D_jj = rho_jj + sum_{l != j} |rho_jl|, the closed-form primal point.

    D - rho is diagonally dominant, so D >= rho, and Tr D = 1 + l1 for a
    state: the robustness program's value at D is the l1 coherence.
    """
    mags = np.abs(rho)
    return np.diag(rho).real + np.sum(mags, axis=1) - np.diag(mags)


def _coherent_pairs(a: np.ndarray) -> tuple:
    """Index arrays (k, l), k < l, of the off-diagonals above FAST_PATH_ZERO
    of the peak entry."""
    mags = np.abs(a)
    return np.nonzero(np.triu(mags > FAST_PATH_ZERO * float(np.max(mags)), 1))


def aligning_phases(rho) -> np.ndarray | None:
    """Phases phi with e^{i(phi_k - phi_l)} rho_kl = |rho_kl|, or None.

    Only the off-diagonals above FAST_PATH_ZERO of the peak entry count.  A
    search through them fixes phi (0 at the root of each connected part);
    every entry must then close its cycle within FAST_PATH_CYCLE_TOL.  With
    v_j = e^{-i phi_j}, W = 1 - vv† is an optimal witness and D = l1_majorant
    an optimal primal point (qubits, pure states, X-shaped states, ...).
    """
    a = np.asarray(rho)
    d = a.shape[0]
    ks, ls = _coherent_pairs(a)
    linked = np.zeros((d, d), dtype=bool)
    linked[ks, ls] = linked[ls, ks] = True
    # step[k, l]: phi_l - phi_k wanted, arg(rho_kl) for k < l, -arg(rho_lk) else
    step = np.triu(np.angle(a), 1)
    step = step - step.T
    phi = np.full(d, np.nan)
    for root in range(d):
        if not np.isnan(phi[root]):
            continue
        phi[root] = 0.0
        queue = [root]
        while queue:
            k = queue.pop()
            reached = np.flatnonzero(linked[k] & np.isnan(phi))
            phi[reached] = phi[k] + step[k, reached]
            queue.extend(reached.tolist())
    res = phi[ks] - phi[ls] + step[ks, ls]
    res = (res + np.pi) % (2.0 * np.pi) - np.pi
    return None if np.any(np.abs(res) > FAST_PATH_CYCLE_TOL) else phi


def roc_fast_path(rho) -> float | None:
    """l1 off-diagonal norm when a diagonal unitary aligns all entries.

    When aligning_phases finds phases the robustness equals the l1
    coherence and is returned (0 when no off-diagonal counts); otherwise
    returns None.
    """
    a = as_hermitian(rho)
    if _coherent_pairs(a)[0].size == 0:
        return 0.0
    return None if aligning_phases(a) is None else l1_coherence(a)


def roc_value(rho) -> tuple[float, str]:
    """Robustness value by the cheapest available route: fast path, else SDP."""
    fast = roc_fast_path(rho)
    if fast is not None:
        return fast, "fast_path"
    return roc_exact(rho).value, "sdp"


# -- bound chain -----------------------------------------------------------------

@dataclass
class BoundReport:
    """Cheap two-sided bounds; all lower bounds are valid simultaneously.

    upper: l1 off-diagonal norm.
    lower_dim: l1 / (d - 1).
    lower_gap_over_peak_population: purity gap over the largest population.
    lower_gap_over_population_norm: purity gap over the population 2-norm.
    lower_gap: the purity gap Tr[rho^2] - Tr[dephase(rho)^2] itself.
    """

    upper: float
    lower_dim: float
    lower_gap_over_peak_population: float
    lower_gap_over_population_norm: float
    lower_gap: float


def roc_bounds(rho) -> BoundReport:
    a = as_hermitian(rho)
    d = a.shape[0]
    l1 = l1_coherence(a)
    pops = np.diag(a).real
    off = a - np.diag(np.diag(a))
    gap = float(np.sum(np.abs(off) ** 2))  # = Tr[rho^2] - Tr[dephase(rho)^2]
    peak = float(np.max(pops))
    pop_norm = float(np.linalg.norm(pops))
    return BoundReport(
        upper=l1,
        lower_dim=l1 / (d - 1) if d > 1 else 0.0,
        lower_gap_over_peak_population=gap / peak if peak > 0 else 0.0,
        lower_gap_over_population_norm=gap / pop_norm if pop_norm > 0 else 0.0,
        lower_gap=gap,
    )


# -- strict l1 gap search ----------------------------------------------------------

@dataclass
class GapWitness:
    state: np.ndarray
    l1: float
    roc: float
    gap: float
    trials_used: int


def find_l1_gap_witness(
    trials: int = 10000, seed: int = 0, min_gap: float = 1e-4, dim: int = 3
) -> GapWitness | None:
    """Search random states for a strict gap between the l1 norm and the value.

    At dim >= 3 the two measures genuinely separate; this returns the first
    sampled state whose gap exceeds min_gap, or None if the trial budget is
    exhausted (the search is probabilistic, not a fixed target).
    """
    for trial in range(trials):
        rho = random_state(dim, seed=seed + trial)
        l1 = l1_coherence(rho)
        value = roc_exact(rho).value
        gap = l1 - value
        if gap > min_gap:
            return GapWitness(state=rho, l1=l1, roc=value, gap=gap, trials_used=trial + 1)
    return None


# -- certificate checking -----------------------------------------------------------

def check_certificate(rho, cert: RocCertificate) -> dict:
    """Diagnostics for the certificate invariants; all should be near zero.

    Returns witness diagonal peak, witness eigenvalue excess over 1, the
    mismatch between -Tr[W rho] and the value, the worst entrywise
    pseudomixture reconstruction error, and eigenvalue floors of the parts.
    """
    a = np.asarray(rho, dtype=np.complex128)
    w = cert.witness
    diag_peak = float(np.max(np.abs(np.diag(w)))) if w.size else 0.0
    eig_excess = float(np.max(jacobi_eigvalsh(w)) - 1.0)
    value_mismatch = abs(-float(np.trace(w @ a).real) - cert.value)
    s = cert.value
    recon = (1.0 + s) * cert.incoherent_part
    if cert.noise_part is not None:
        recon = recon - s * cert.noise_part
    recon_err = float(np.max(np.abs(recon - a)))
    tau_floor = (
        float(jacobi_eigvalsh(cert.noise_part)[0]) if cert.noise_part is not None else 0.0
    )
    delta_floor = float(np.min(np.diag(cert.incoherent_part).real))
    return {
        "pd_gap": cert.gap,
        "witness_diag_peak": diag_peak,
        "witness_eig_excess": eig_excess,
        "value_mismatch": value_mismatch,
        "reconstruction_err": recon_err,
        "tau_eig_floor": tau_floor,
        "delta_pop_floor": delta_floor,
    }
