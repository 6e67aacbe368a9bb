"""Phase- and channel-discrimination games and their coherence advantage.

A phase game applies one of several diagonal phase unitaries exp(i N phi_k)
(N the number operator) to a probe state, a channel game applies one of
several trace-preserving channels; the player then measures to guess which
one acted.  The best success probability is a semidefinite program over
measurements.  It is answered by one of three routes chosen from the game's
data, and every answer is checked by the same dual certificate:
two-hypothesis games by Helstrom's closed form, with no solve; the canonical
uniform game over the d clock phases by the robustness program, whose
program it is, in closed form for a phase-alignable probe and by one solve
otherwise; every other game by one solve of the measurement program,
started strictly feasible at the least-trace closed-form dominating
operator of the branch and bound below.  The advantage over the best
incoherent probe is capped by one plus the robustness of coherence, with
equality at the canonical uniform-phase game.
For a channel game the best incoherent probe is found by branch and bound
over the d basis probes: a closed-form dominating operator bounds each
probe's success from above, and a probe is solved only while its bound could
still beat the best value found.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import as_density, as_hermitian, basis_projector, jacobi_eigh, jacobi_eigvalsh
from .roc import aligning_phases, l1_majorant, roc_exact

PRIOR_SUM_TOL = 1e-12
PHASE_DISTINCT_TOL = 1e-12
TRACE_PRESERVING_TOL = 1e-10
CROSS_CHECK_TOL = 1e-7
POVM_ELEMENT_FLOOR = -1e-9
POVM_COMPLETENESS_TOL = 1e-9
BRANCH_DROP_TOL = 1e-12
EQUALITY_TOL = 1e-5  # verify_operational_theorem: canonical ratio vs 1 + value
BOUND_SLACK = 1e-6  # verify_operational_theorem: sampled ratios vs the cap 1 + value
START_SHIFT = 0.01  # _measurement_problem: least eigenvalue of every start slack


# -- channels ---------------------------------------------------------------------


def phase_channel(d: int, phi: float) -> np.ndarray:
    """Diagonal unitary exp(i N phi) with N = sum_j j |j><j|."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.diag(np.exp(1j * float(phi) * np.arange(d)))


def generalized_phase(d: int, k: int) -> np.ndarray:
    """k-th power of the clock unitary: diag entries exp(i 2 pi j k / d)."""
    return phase_channel(d, 2.0 * np.pi * int(k) / d)


def _check_priors(priors) -> tuple:
    p = tuple(float(x) for x in priors)
    # written as "not within" so that a nan prior or sum fails
    if not all(-PRIOR_SUM_TOL <= x <= 1.0 + PRIOR_SUM_TOL for x in p):
        raise ValueError("priors must lie in [0, 1]")
    if not abs(sum(p) - 1.0) <= PRIOR_SUM_TOL:
        raise ValueError(f"priors sum to {sum(p)!r}, not 1")
    return tuple(max(0.0, x) for x in p)


def _probe(game, rho) -> np.ndarray:
    """The probe rho validated as a state of the game's dimension."""
    rho = as_density(rho)
    if rho.shape[0] != game.dim:
        raise ValueError(f"dimension mismatch: game {game.dim} vs state {rho.shape[0]}")
    return rho


class _Game:
    """The priors, and states that validate the probe once for _images."""

    @property
    def priors(self) -> np.ndarray:
        return np.array([p for p, _ in self.entries])

    def states(self, rho) -> list:
        return self._images(_probe(self, rho))


def _weighted(game, rho) -> list:
    """The weighted states p_k rho_k of an already validated probe rho."""
    return [p * s for p, s in zip(game.priors, game._images(rho))]


@dataclass(frozen=True)
class PhaseGame(_Game):
    """Ensemble of phase unitaries: entries (prior, phase) on dimension dim."""

    dim: int
    entries: tuple  # of (prior, phase in [0, 2pi))

    @staticmethod
    def build(dim: int, entries) -> "PhaseGame":
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        raw = list(entries)
        if not raw:
            raise ValueError("at least one game entry is required")
        priors = _check_priors([e[0] for e in raw])
        phases = [float(e[1]) for e in raw]
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        phases = [phi % (2.0 * np.pi) for phi in phases]
        for a in range(len(phases)):
            for b in range(a + 1, len(phases)):
                delta = abs(phases[a] - phases[b])
                delta = min(delta, 2.0 * np.pi - delta)
                if delta <= PHASE_DISTINCT_TOL:
                    raise ValueError(
                        f"phases {a} and {b} coincide within {PHASE_DISTINCT_TOL}"
                    )
        return PhaseGame(dim=int(dim), entries=tuple(zip(priors, phases)))

    def _images(self, rho) -> list:
        out = []
        for _, phi in self.entries:
            u = phase_channel(self.dim, phi)
            out.append(u @ rho @ u.conj().T)
        return out


@dataclass(frozen=True)
class ChannelGame(_Game):
    """Ensemble of trace-preserving channels given by Kraus lists."""

    dim: int
    entries: tuple  # of (prior, tuple of Kraus matrices)

    @staticmethod
    def build(dim: int, entries) -> "ChannelGame":
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        raw = list(entries)
        if not raw:
            raise ValueError("at least one game entry is required")
        priors = _check_priors([e[0] for e in raw])
        channels = []
        for idx, (_, kraus) in enumerate(raw):
            ops = tuple(np.asarray(k, dtype=np.complex128) for k in kraus)
            if not ops or any(k.shape != (dim, dim) for k in ops):
                raise ValueError(f"channel {idx}: Kraus operators must be {dim}x{dim}")
            if not all(np.isfinite(k).all() for k in ops):
                raise ValueError(f"channel {idx}: Kraus operators must be finite")
            total = sum(k.conj().T @ k for k in ops)
            dev = float(np.max(np.abs(total - np.eye(dim))))
            if dev > TRACE_PRESERVING_TOL:
                raise ValueError(
                    f"channel {idx} is not trace preserving: deviation {dev:.3e}"
                )
            channels.append(ops)
        return ChannelGame(dim=int(dim), entries=tuple(zip(priors, channels)))

    def _images(self, rho) -> list:
        out = []
        for _, kraus in self.entries:
            out.append(as_hermitian(sum(k @ rho @ k.conj().T for k in kraus)))
        return out


def canonical_game(d: int) -> PhaseGame:
    """The uniform game over the d clock phases 2 pi k / d with priors 1/d."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return PhaseGame.build(d, [(1.0 / d, 2.0 * np.pi * k / d) for k in range(d)])


# -- optimal discrimination -------------------------------------------------------


def validate_povm(elements, d: int | None = None) -> None:
    """Raise unless elements are near-PSD and sum to the identity."""
    mats = [as_hermitian(m) for m in elements]
    if not mats:
        raise ValueError("empty measurement")
    n = mats[0].shape[0]
    if (d is not None and n != d) or any(m.shape != (n, n) for m in mats):
        raise ValueError("measurement dimension mismatch")
    low = jacobi_eigvalsh(np.stack(mats))[:, 0]
    failing = np.flatnonzero(low < POVM_ELEMENT_FLOOR)
    if failing.size:
        idx = failing[0]
        raise ValueError(f"measurement element {idx} has eigenvalue {low[idx]:.3e}")
    dev = float(np.max(np.abs(sum(mats) - np.eye(n))))
    if dev > POVM_COMPLETENESS_TOL:
        raise ValueError(f"measurement elements sum to identity only within {dev:.3e}")


def _measurement_problem(weighted, majorants=None):
    """The measurement program max sum_k <A_k, M_k> over POVMs, and its start.

    The engine minimizes sum_k <-A_k, M_k> subject to sum_k M_k = 1, posed
    on the hermitian_basis rows with one stack shared by the m blocks; its
    dual vector y gives Q = -sum_i y_i B_i.  The start is strictly feasible
    near a closed-form dual point (the diagonally dominant start of
    Helmberg, Rendl, Vanderbei & Wolkowicz 1996, as in roc._roc_problem):
    Q0 = Q_best + START_SHIFT * 1, with Q_best the _majorants point of least
    trace, so every slack Q0 - A_k has eigenvalues >= START_SHIFT, and
    M_k = 1/m.  y0 holds the coefficients of -Q0 (hermitian_coords), not
    its inner products with the basis (entry_coords).  majorants, when
    given, is _majorants(weighted) already computed by the caller.
    """
    m, d = len(weighted), weighted[0].shape[0]
    eye = np.eye(d, dtype=np.complex128)
    problem = sdp.ConicProblem.build(
        blocks=[(sdp.PSD, d)] * m,
        cost=[-a for a in weighted],
        rhs=sdp.entry_coords(eye),
        stacks=(sdp.hermitian_basis(d),) * m,
    )
    q = _majorants(weighted) if majorants is None else majorants
    q0 = as_hermitian(q[np.argmin(np.trace(q, axis1=-2, axis2=-1).real)]) + START_SHIFT * eye
    start = ([eye / m] * m, sdp.hermitian_coords(-q0), [as_hermitian(q0 - a) for a in weighted])
    return problem, start


def _optimal_measurement(weighted, tol: float, majorants=None):
    """max sum_k <A_k, M_k> over POVMs: the optimal measurement and the dual Q.

    The program's dual is min Tr Q subject to Q >= A_k for every k.  One
    solve from _measurement_problem's start, at the best closed-form
    majorant, gives both: the optimal Q is read off its dual vector,
    Q = -sum_i y_i B_i, and the POVM's small completeness defect is spread
    evenly over its elements.
    """
    m, d = len(weighted), weighted[0].shape[0]
    eye = np.eye(d, dtype=np.complex128)
    problem, start = _measurement_problem(weighted, majorants)
    sol = sdp.solve_or_raise(problem, tol=tol, start=start)
    povm = [as_hermitian(x) for x in sol.x]
    correction = (eye - sum(povm)) / m
    povm = [as_hermitian(p + correction) for p in povm]
    return povm, -sdp.hermitian_from_coords(sol.y, d)


def _helstrom_measurement(weighted):
    """Two hypotheses: the projector onto the positive part of A_1 - A_2.

    With A_1 - A_2 = V diag(w) V†, M_1 = P_+ projects onto w > 0 and
    M_2 = 1 - P_+; Q = A_2 + V max(w, 0) V† dominates both A_k and
    Tr Q = Tr A_2 + sum max(w, 0) is the value (Helstrom, 1976).
    """
    a1, a2 = weighted
    w, v = jacobi_eigh(a1 - a2)
    plus = v[:, w > 0.0]
    p_plus = plus @ plus.conj().T
    return [p_plus, np.eye(len(w)) - p_plus], a2 + (v * np.maximum(w, 0.0)) @ v.conj().T


def _is_canonical(game) -> bool:
    """True for d entries with priors 1/d and the phases 2 pi k / d in any order."""
    d = game.dim
    if not isinstance(game, PhaseGame) or len(game.entries) != d:
        return False
    phases = np.sort([phi for _, phi in game.entries])
    return bool(np.all(np.abs(game.priors - 1.0 / d) <= PRIOR_SUM_TOL)
                and np.all(np.abs(phases - 2.0 * np.pi * np.arange(d) / d)
                           <= PHASE_DISTINCT_TOL))


def _canonical_measurement(game, rho, tol: float):
    """The canonical game's pair from the robustness program's optimum.

    Covariance reduces the measurement program to max Tr[Y rho] / d over
    Y >= 0 with unit diagonal, the robustness program.  M_k = U_k Y U_k† / d
    sums to the identity because diag(Y) = 1, and Q = D / d dominates every
    U_k rho U_k† / d because D is diagonal and D >= rho.  An alignable probe
    takes the closed form Y = vv†, D = l1_majorant(rho) with no solve; any
    other probe takes one roc_exact solve.
    """
    d = game.dim
    phi = aligning_phases(rho)
    if phi is not None:
        v = np.exp(-1j * phi)
        y, majorant = np.outer(v, v.conj()), np.diag(l1_majorant(rho))
    else:
        cert = roc_exact(rho, tol=tol)
        y, majorant = np.eye(d) - cert.witness, (1.0 + cert.value) * cert.incoherent_part
    povm = []
    for _, phi_k in game.entries:
        u = phase_channel(d, phi_k)
        povm.append(u @ y @ u.conj().T / d)
    return povm, majorant / d


def _majorants(weighted) -> np.ndarray:
    """Dual-feasible points Q_r of the measurement program, one per r.

    weighted is a stack of the m weighted states A_k, shaped (..., m, d, d),
    and so is the result.  Q_r starts at A_r and takes every other A_k in
    cyclic order after r, Q_r <- Q_r + (A_k - Q_r)_+: each step keeps Q_r
    above what it already dominated and adds A_k, so Q_r dominates every
    A_k.  For two hypotheses Q_r is Helstrom's majorant.
    """
    a = np.asarray(weighted)
    q = a.copy()
    for step in range(1, a.shape[-3]):
        w, v = jacobi_eigh(np.roll(a, -step, axis=-3) - q)  # A_{r+step} - Q_r
        q = q + (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return q


def _majorant_bound(majorants) -> np.ndarray:
    """min_r Tr Q_r over a _majorants stack, one bound per leading index: an
    upper bound on the optimal success by weak duality, since Tr Q >= sum_k
    <A_k, M_k> for every POVM when Q dominates every A_k (Yuen, Kennedy &
    Lax, IEEE Trans. Inf. Theory 21, 1975)."""
    return np.min(np.trace(majorants, axis1=-2, axis2=-1).real, axis=-1)


def check_measurement_certificate(weighted, povm, majorant) -> float:
    """Check a primal-dual pair of the measurement program; return its value.

    The POVM must be valid, the majorant Q must dominate every weighted
    ensemble member A_k, and the bracket [sum_k <A_k, M_k>, Tr Q], which
    holds the optimum by weak duality, must be no wider than
    CROSS_CHECK_TOL.  Raises SolverError naming the failing quantity.
    """
    q = as_hermitian(majorant)
    try:
        validate_povm(povm, q.shape[0])
    except ValueError as exc:
        raise sdp.SolverError(f"invalid measurement: {exc}") from None
    low = jacobi_eigvalsh(q - np.stack(weighted))[:, 0]
    failing = np.flatnonzero(low < POVM_ELEMENT_FLOOR)
    if failing.size:
        k = failing[0]
        raise sdp.SolverError(
            f"majorant does not dominate ensemble member {k}: eigenvalue {low[k]:.3e}"
        )
    value = float(sum(np.vdot(a, mk).real for a, mk in zip(weighted, povm)))
    bound = float(np.trace(q).real)
    if abs(bound - value) > CROSS_CHECK_TOL:
        raise sdp.SolverError(
            f"duality bracket [{value!r}, {bound!r}] is wider than {CROSS_CHECK_TOL}"
        )
    return value


def success_probability(game, rho, tol: float = 1e-8):
    """Optimal guessing probability for the game on probe rho, with a POVM.

    The POVM and a dominating operator Q come from one of three routes,
    chosen from the game's data: two hypotheses take Helstrom's projector
    (no solve); the canonical game at d >= 3 (d entries, priors 1/d, the
    phases 2 pi k / d in any order) takes the robustness program's closed
    form for a phase-alignable probe and one roc_exact solve otherwise;
    every other game takes one solve of the measurement program.  Every
    route is checked outside the engine by the same certificate (see
    check_measurement_certificate): the POVM is valid, Q dominates every
    weighted state, and the value of the returned POVM and Tr Q agree
    within 1e-7.  rho is validated once, and that matrix feeds every route.
    """
    rho = _probe(game, rho)
    return _certified(game, rho, _weighted(game, rho), tol)


def _certified(game, rho, weighted, tol: float, majorants=None):
    """success_probability's route and check, for a validated probe rho and
    its weighted states; majorants is handed to _optimal_measurement."""
    if len(weighted) == 2:
        povm, majorant = _helstrom_measurement(weighted)
    elif _is_canonical(game):
        povm, majorant = _canonical_measurement(game, rho, tol)
    else:
        povm, majorant = _optimal_measurement(weighted, tol, majorants)
    return check_measurement_certificate(weighted, povm, majorant), povm


def incoherent_baseline(game, tol: float = 1e-8) -> float:
    """Best success probability achievable with an incoherent probe.

    Phase channels fix every diagonal state, so for phase games the answer
    is the largest prior.  For channel games the success probability is
    convex in the probe, so the maximum over the incoherent simplex sits at
    a basis projector.  The d basis probes are searched by branch and bound:
    each gets the certified upper bound of _majorant_bound, and they are
    visited in descending bound order (ties by index) through
    success_probability's route and check, on the weighted states and
    majorants the bound was built from (the measurement program starts at
    the least-trace one), until the next bound is at most the best value minus
    CROSS_CHECK_TOL.  A skipped probe's checked value could exceed its
    bound only by the certificate's 1e-9 tolerances, so it stays below the
    best, and the returned float is the maximum over all d probes.
    """
    if isinstance(game, PhaseGame):
        return float(np.max(game.priors))
    probes = [basis_projector(game.dim, j) for j in range(game.dim)]
    weighted = [_weighted(game, probe) for probe in probes]  # states by construction
    majorants = _majorants(weighted)
    bounds = _majorant_bound(majorants)
    best = 0.0
    for j in sorted(range(game.dim), key=lambda j: (-bounds[j], j)):
        if bounds[j] <= best - CROSS_CHECK_TOL:
            break
        value, _ = _certified(game, probes[j], weighted[j], tol, majorants[j])
        best = max(best, value)
    return best


def advantage_ratio(rho, game, tol: float = 1e-8) -> float:
    """Success probability of the probe divided by the incoherent baseline."""
    value, _ = success_probability(game, rho, tol=tol)
    return value / incoherent_baseline(game, tol=tol)


# -- the operational theorem ------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Advantage-ratio audit of one state: equality at the canonical game,
    inequality on sampled games."""

    roc: float
    canonical_ratio: float
    equality_gap: float
    equality_ok: bool
    phase_ratios: tuple
    channel_ratios: tuple
    bounds_ok: bool


def verify_operational_theorem(
    rho,
    phase_samples: int = 5,
    channel_samples: int = 2,
    seed: int = 0,
    tol: float = 1e-8,
) -> TheoremReport:
    """Check that the canonical-game ratio equals 1 + robustness, and that
    sampled games never beat that cap."""
    rho = as_density(rho)
    d = rho.shape[0]
    value = roc_exact(rho, tol=tol).value
    cap = 1.0 + value

    canonical_ratio = advantage_ratio(rho, canonical_game(d), tol=tol)
    equality_gap = abs(canonical_ratio - cap)

    rng = np.random.default_rng(seed)
    phase_ratios = []
    for _ in range(phase_samples):
        game = random_phase_game(d, outcomes=int(rng.integers(2, d + 2)),
                                 seed=int(rng.integers(2 ** 31)))
        phase_ratios.append(advantage_ratio(rho, game, tol=tol))
    channel_ratios = []
    for _ in range(channel_samples):
        game = random_channel_game(d, outcomes=int(rng.integers(2, 4)),
                                   kraus_count=2, seed=int(rng.integers(2 ** 31)))
        channel_ratios.append(advantage_ratio(rho, game, tol=tol))

    bounds_ok = all(r <= cap + BOUND_SLACK for r in phase_ratios + channel_ratios)
    return TheoremReport(
        roc=value,
        canonical_ratio=canonical_ratio,
        equality_gap=equality_gap,
        equality_ok=equality_gap <= EQUALITY_TOL,
        phase_ratios=tuple(phase_ratios),
        channel_ratios=tuple(channel_ratios),
        bounds_ok=bounds_ok,
    )


# -- random games and incoherent instruments --------------------------------------


def random_phase_game(d: int, outcomes: int, seed: int = 0) -> PhaseGame:
    """Random priors (flat simplex) and distinct uniform phases."""
    if outcomes < 1:
        raise ValueError("outcomes must be positive")
    rng = np.random.default_rng(seed)
    priors = rng.exponential(size=outcomes)
    priors /= priors.sum()
    while True:
        phases = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=outcomes))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
        if outcomes == 1 or float(np.min(gaps)) > 1e-6:
            break
    return PhaseGame.build(d, list(zip(priors, phases)))


def random_channel_game(d: int, outcomes: int, kraus_count: int = 2,
                        seed: int = 0) -> ChannelGame:
    """Random priors and Haar-style channels from isometry slices."""
    if outcomes < 1 or kraus_count < 1:
        raise ValueError("outcomes and kraus_count must be positive")
    rng = np.random.default_rng(seed)
    priors = rng.exponential(size=outcomes)
    priors /= priors.sum()
    entries = []
    for k in range(outcomes):
        g = rng.normal(size=(kraus_count * d, d)) + 1j * rng.normal(size=(kraus_count * d, d))
        q, _ = np.linalg.qr(g)
        kraus = [q[a * d:(a + 1) * d, :] for a in range(kraus_count)]
        entries.append((priors[k], kraus))
    return ChannelGame.build(d, entries)


def random_incoherent_instrument(d: int, m: int, seed: int = 0) -> list:
    """Random instrument whose Kraus operators are column-sparse.

    Each branch places one amplitude per column, with the target rows of a
    branch forming a permutation so the branch Gram matrix stays diagonal;
    per-column normalization across branches then gives exact trace
    preservation.  Every branch maps diagonal matrices to diagonal matrices.
    """
    if d < 1 or m < 1:
        raise ValueError("dimension and branch count must be positive")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=0, keepdims=True))
    kraus = []
    for l in range(m):
        rows = rng.permutation(d)
        k = np.zeros((d, d), dtype=np.complex128)
        k[rows, np.arange(d)] = amps[l]
        kraus.append(k)
    return kraus


def apply_instrument(kraus, rho) -> list:
    """Branch outcomes [(weight, normalized state)], dropping weights < 1e-12."""
    rho = as_density(rho)
    out = []
    for k in kraus:
        k = np.asarray(k, dtype=np.complex128)
        branch = k @ rho @ k.conj().T
        weight = float(np.trace(branch).real)
        if weight < BRANCH_DROP_TOL:
            continue
        out.append((weight, as_hermitian(branch / weight)))
    return out


def is_incoherent_instrument(kraus, tol: float = 1e-10) -> bool:
    """True when the Kraus list is trace preserving and column-sparse."""
    mats = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if not mats:
        return False
    d = mats[0].shape[0]
    if any(k.shape != (d, d) or not np.isfinite(k).all() for k in mats):
        return False
    total = sum(k.conj().T @ k for k in mats)
    if float(np.max(np.abs(total - np.eye(d)))) > tol:
        return False
    for k in mats:
        if np.any(np.sum(np.abs(k) > 1e-12, axis=0) > 1):
            return False
    return True
