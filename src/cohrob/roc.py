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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (
    as_hermitian,
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


def _roc_problem(rho: np.ndarray):
    d = rho.shape[0]
    # min <-rho, Y> over Y >= 0 with <E_jj, Y> = 1: the engine's x is Y (the
    # witness is 1 - Y), its y gives D = diag(-y) >= rho, and its slack is
    # -rho - diag(y) = D - rho, the unnormalised tau.  d rows, so the Schur
    # complement is d x d.
    rows = np.zeros((d, d, d), dtype=np.complex128)
    rows[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    problem = sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d)],
        cost=[-rho],
        rhs=np.ones(d),
        stacks=[rows],
    )
    # strictly feasible start: Y = I, D = 2I, slack 2I - rho > 0 since
    # lambda_max(rho) <= 1
    eye = np.eye(d, dtype=np.complex128)
    start = ([eye], -2.0 * np.ones(d), [2.0 * eye - rho])
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


def roc_fast_path(rho) -> float | None:
    """l1 off-diagonal norm when a diagonal unitary aligns all entries.

    Searches for phases phi with e^{i(phi_k - phi_l)} rho_kl = |rho_kl| on
    every nonzero off-diagonal.  When they exist (qubits, pure states,
    X-shaped states, ...) the robustness equals the l1 coherence and is
    returned; otherwise returns None.
    """
    a = as_hermitian(rho)
    d = a.shape[0]
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        return 0.0
    thr = FAST_PATH_ZERO * peak
    mags = np.abs(a)
    edges = [(k, l) for k in range(d) for l in range(k + 1, d) if mags[k, l] > thr]
    if not edges:
        return 0.0
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
                    # want phi_k - phi_l + arg(rho_kl) = 0 for k < l
                    ang = np.angle(a[k, l]) if k < l else -np.angle(a[l, k])
                    phi[l] = phi[k] + ang
                    queue.append(l)
    phi = np.where(np.isnan(phi), 0.0, phi)
    for k, l in edges:
        res = phi[k] - phi[l] + np.angle(a[k, l])
        res = (res + np.pi) % (2.0 * np.pi) - np.pi
        if abs(res) > FAST_PATH_CYCLE_TOL:
            return None
    return l1_coherence(a)


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
