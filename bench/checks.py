"""Correctness checks on returned values, written with numpy alone.

None of these calls into cohrob: each recomputes what a result promises
from the benchmark's own copy of the input.  Every function returns a list
of problems; an empty list means the result passed.
"""
from __future__ import annotations

import numpy as np

VALUE_TOL = 1e-6        # absolute, scaled by max(1, |value|)
DIAG_TOL = 1e-9         # witness diagonal and pseudomixture populations
PSD_TOL = 1e-7          # eigenvalue floors of returned PSD parts
POVM_TOL = 1e-7         # POVM positivity and completeness


def _tol(*values) -> float:
    return VALUE_TOL * max(1.0, *(abs(float(v)) for v in values))


def l1_coherence(rho) -> float:
    a = np.asarray(rho)
    return float(np.sum(np.abs(a - np.diag(np.diag(a)))))


def trace_norm(h) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def roc_certificate(rho, cert) -> list:
    """Witness, pseudomixture and l1 sandwich of a robustness certificate."""
    problems = []
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    s = float(cert.value)
    w = np.asarray(cert.witness)
    if float(np.max(np.abs(np.diag(w)))) > DIAG_TOL:
        problems.append("witness diagonal is not zero")
    w_top = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T))[-1])
    if w_top > 1.0 + _tol(1.0):
        problems.append(f"witness lambda_max {w_top!r} exceeds 1")
    achieved = -float(np.trace(w @ rho).real)
    if abs(achieved - s) > _tol(s):
        problems.append(f"-Tr[W rho] = {achieved!r} but value is {s!r}")
    delta = np.asarray(cert.incoherent_part)
    if float(np.max(np.abs(delta - np.diag(np.diag(delta))))) > DIAG_TOL:
        problems.append("incoherent part is not diagonal")
    if float(np.min(np.diag(delta).real)) < -DIAG_TOL:
        problems.append("incoherent part has a negative population")
    recon = (1.0 + s) * delta
    if cert.noise_part is not None:
        tau = np.asarray(cert.noise_part)
        recon = recon - s * tau
        tau_low = float(np.linalg.eigvalsh(0.5 * (tau + tau.conj().T))[0])
        if tau_low < -PSD_TOL:
            problems.append(f"tau has eigenvalue {tau_low!r}")
        if abs(float(np.trace(tau).real) - 1.0) > _tol(1.0):
            problems.append("tau does not have unit trace")
    err = float(np.max(np.abs(recon - rho)))
    if err > _tol(s):
        problems.append(f"pseudomixture misses rho by {err!r}")
    l1 = l1_coherence(rho)
    if not l1 / (d - 1) - _tol(l1) <= s <= l1 + _tol(l1):
        problems.append(f"value {s!r} outside [l1/(d-1), l1] = [{l1 / (d - 1)!r}, {l1!r}]")
    return problems


def close(label: str, got: float, want: float) -> list:
    if abs(float(got) - float(want)) > _tol(want):
        return [f"{label}: got {float(got)!r}, expected {float(want)!r}"]
    return []


def helstrom(priors, states) -> float:
    """Optimal two-outcome success probability 1/2 (1 + ||p0 r0 - p1 r1||_1)."""
    return 0.5 * (1.0 + trace_norm(priors[0] * states[0] - priors[1] * states[1]))


def povm_result(priors, states, p, povm) -> list:
    """The POVM is a measurement, achieves p, and p lies in [max prior, 1]."""
    problems = []
    d = states[0].shape[0]
    if len(povm) != len(states):
        return [f"{len(povm)} POVM elements for {len(states)} hypotheses"]
    total = np.zeros((d, d), dtype=np.complex128)
    achieved = 0.0
    for k, (m, prior, st) in enumerate(zip(povm, priors, states)):
        m = np.asarray(m)
        low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if low < -POVM_TOL:
            problems.append(f"POVM element {k} has eigenvalue {low!r}")
        total += m
        achieved += prior * float(np.trace(m @ st).real)
    if float(np.max(np.abs(total - np.eye(d)))) > POVM_TOL:
        problems.append("POVM elements do not sum to the identity")
    problems += close("POVM success probability", achieved, p)
    problems += probability_range(priors, p)
    return problems


def probability_range(priors, p) -> list:
    top = float(np.max(priors))
    if not top - _tol(1.0) <= p <= 1.0 + _tol(1.0):
        return [f"success probability {p!r} outside [max prior {top!r}, 1]"]
    return []


def data_bounds(l1_true, bound, min_roc, min_roc_slack) -> list:
    """bound <= min_roc <= l1 of the true state; the relaxed value is below both."""
    problems = []
    if bound > min_roc + _tol(min_roc):
        problems.append(f"witness bound {bound!r} above min_roc {min_roc!r}")
    if min_roc > l1_true + _tol(l1_true):
        problems.append(f"min_roc {min_roc!r} above l1 of the true state {l1_true!r}")
    if not 0.0 <= min_roc_slack <= min_roc + _tol(min_roc):
        problems.append(f"relaxed min_roc {min_roc_slack!r} not in [0, {min_roc!r}]")
    return problems
