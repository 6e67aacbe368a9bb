"""Randomized invariant audit: one JSON-able pass/fail report per run.

Each check samples deterministic random states, evaluates an invariant the
library promises (closed forms, bound chains, duality certificates, the
operational theorem, oracle agreement), and reports its worst deviation
against the advertised tolerance.
"""
from __future__ import annotations

import numpy as np

from .linalg import l1_coherence, random_pure, random_state
from .oracle import roc_descent_oracle
from .roc import check_certificate, roc_bounds, roc_exact, roc_fast_path
from .witness import InvalidWitnessError, population_gap_witness, witness_lower_bound
from .games import advantage_ratio, canonical_game


def _check(name: str, worst: float, tol: float) -> dict:
    return {"name": name, "worst": float(worst), "tol": float(tol),
            "passed": bool(worst <= tol)}


def audit(dim: int = 3, samples: int = 10, seed: int = 0) -> dict:
    """Run the invariant suite on `samples` random states of dimension `dim`."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if samples < 1:
        raise ValueError("at least one sample is required")
    rng = np.random.default_rng(seed)
    base_seeds = [int(rng.integers(2 ** 31)) for _ in range(samples)]

    states = [random_state(dim, seed=s) for s in base_seeds]
    certs = [roc_exact(rho) for rho in states]

    checks = []

    if dim == 2:
        worst = max(
            abs(cert.value - 2.0 * abs(rho[0, 1]))
            for rho, cert in zip(states, certs)
        )
        checks.append(_check("qubit_closed_form", worst, 1e-7))

    # value between the dimensional lower bound and the off-diagonal sum
    worst = 0.0
    for rho, cert in zip(states, certs):
        l1 = l1_coherence(rho)
        worst = max(worst, l1 / (dim - 1) - cert.value, cert.value - l1)
    checks.append(_check("l1_sandwich", worst, 1e-7))

    # gap-based lower bound chain is ordered and below the value
    worst = 0.0
    for rho, cert in zip(states, certs):
        rep = roc_bounds(rho)
        chain = (rep.lower_gap_over_peak_population,
                 rep.lower_gap_over_population_norm, rep.lower_gap)
        worst = max(worst,
                    chain[1] - chain[0], chain[2] - chain[1],
                    chain[0] - cert.value)
    checks.append(_check("gap_chain", worst, 1e-9))

    # duality gap and certificate consistency
    worst = 0.0
    for rho, cert in zip(states, certs):
        diag = check_certificate(rho, cert)
        worst = max(worst, diag["pd_gap"], diag["witness_diag_peak"],
                    diag["witness_eig_excess"], diag["value_mismatch"],
                    diag["reconstruction_err"])
    checks.append(_check("duality_certificate", worst, 1e-6))

    # witness returned by the exact solver validates and saturates its bound
    worst = 0.0
    for rho, cert in zip(states, certs):
        try:
            worst = max(worst, abs(witness_lower_bound(rho, cert.witness) - cert.value))
        except InvalidWitnessError as exc:
            worst = max(worst, abs(exc.report.diag_min), exc.report.eig_excess)
    checks.append(_check("optimal_witness", worst, 1e-6))

    # the population-gap witness is valid and never exceeds the value
    worst = 0.0
    for rho, cert in zip(states, certs):
        w2 = population_gap_witness(rho)
        try:
            worst = max(worst, witness_lower_bound(rho, w2) - cert.value)
        except InvalidWitnessError:
            worst = max(worst, 1.0)
    checks.append(_check("population_gap_witness", worst, 1e-7))

    # aligned-phase fast path agrees with the solver on pure states
    worst = 0.0
    for s in base_seeds[: min(samples, 5)]:
        psi = random_pure(dim, seed=s)
        rho = np.outer(psi, psi.conj())
        fast = roc_fast_path(rho)
        if fast is None:
            worst = max(worst, 1.0)
        else:
            worst = max(worst, abs(fast - roc_exact(rho).value))
    checks.append(_check("fast_path_agreement", worst, 1e-6))

    # canonical-game advantage equals 1 + value
    worst = 0.0
    for rho, cert in zip(states[: min(samples, 3)], certs[: min(samples, 3)]):
        ratio = advantage_ratio(rho, canonical_game(dim))
        worst = max(worst, abs(ratio - (1.0 + cert.value)))
    checks.append(_check("canonical_game_equality", worst, 1e-5))

    if dim <= 3:
        worst = 0.0
        for rho, cert, s in zip(states[: min(samples, 3)],
                                certs[: min(samples, 3)], base_seeds):
            ub = roc_descent_oracle(rho, seed=s)
            worst = max(worst, abs(ub - cert.value) / max(1.0, cert.value))
        checks.append(_check("descent_oracle_agreement", worst, 1e-4))

    return {
        "dim": int(dim),
        "samples": int(samples),
        "seed": int(seed),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
