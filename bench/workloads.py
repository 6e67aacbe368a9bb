"""Seeded inputs and operations of the four benchmark workloads.

Inputs are made here with numpy from the workload seed; cohrob receives only
the finished matrices, games and dataset files.  Every operation reaches
cohrob through module attributes looked up at call time, so the tracer's
wrappers see each call.  See README.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cohrob.cli
import cohrob.games
import cohrob.linalg
import cohrob.roc
import cohrob.sdp
import cohrob.witness

import checks


class ProgramError(RuntimeError):
    """The program refused or failed an input the benchmark considers valid."""


@dataclass
class Case:
    """One input and the operations run on it.

    calls: zero-argument callables, one per timed operation.
    check: maps the list of call outputs to a list of problems.
    """

    label: str
    dim: int
    calls: list
    check: Callable[[list], list]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _step(r: int, d: int, n: int) -> int:
    """Position r + d in a cycle of n.

    Structural choices (ranks, outcome and observable counts) follow this
    schedule rather than the seed, so every seed runs the same mix of problem
    shapes and the seed only fills in the values.
    """
    return (r + d) % n


# -- numpy input generators ---------------------------------------------------------

def _gaussian(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _random_state(rng, d, rank):
    g = _gaussian(rng, d, rank)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def _random_pure(rng, d):
    v = _gaussian(rng, d, 1)[:, 0]
    return v / np.linalg.norm(v)


def _random_hermitian(rng, d):
    g = _gaussian(rng, d, d)
    return 0.5 * (g + g.conj().T)


def _near_diagonal(rng, d, level):
    """Populations >= 1/(2d) plus off-diagonals of relative size 10^(1.5 level - 9)."""
    pops = 0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d
    h = _random_hermitian(rng, d)
    h -= np.diag(np.diag(h))
    h /= float(np.max(np.abs(np.linalg.eigvalsh(h))))
    eps = 10.0 ** (1.5 * level - 9.0)
    rho = np.diag(pops).astype(np.complex128) + eps * (0.5 / d) * h
    return rho / np.trace(rho).real


def _saturating_mixture(rng, d):
    """(1+p) I/d - p |u><u| with u uniform; its robustness is exactly p."""
    p = rng.uniform(0.05, 1.0) / (d - 1)
    rho = (1.0 + p) * np.eye(d, dtype=np.complex128) / d - p * np.ones((d, d)) / d
    return rho, p


def _phase_game(rng, d, outcomes):
    priors = rng.exponential(size=outcomes)
    priors /= priors.sum()
    while True:
        phases = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=outcomes))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
        if float(np.min(gaps)) > 1e-6:
            return priors, phases


def _channels(rng, d, outcomes, kraus_count=2):
    priors = rng.exponential(size=outcomes)
    priors /= priors.sum()
    channels = []
    for _ in range(outcomes):
        q, _ = np.linalg.qr(_gaussian(rng, kraus_count * d, d))
        channels.append([q[a * d:(a + 1) * d, :] for a in range(kraus_count)])
    return priors, channels


def _phase_states(phases, rho):
    n = np.arange(rho.shape[0])
    out = []
    for phi in phases:
        u = np.exp(1j * phi * n)
        out.append(u[:, None] * rho * u.conj()[None, :])
    return out


def _channel_states(channels, rho):
    return [sum(k @ rho @ k.conj().T for k in kraus) for kraus in channels]


# -- operations ----------------------------------------------------------------------

def _op_roc(matrix):
    rho = cohrob.linalg.as_density(matrix)
    cert = cohrob.roc.roc_exact(rho)
    diagnostics = cohrob.roc.check_certificate(rho, cert)
    return {"cert": cert, "diagnostics": diagnostics}


def _op_certify(matrix):
    rho = cohrob.linalg.as_density(matrix)
    value, route = cohrob.roc.roc_value(rho)
    cert = cohrob.roc.roc_exact(rho)
    diagnostics = cohrob.roc.check_certificate(rho, cert)
    report = cohrob.witness.validate_witness(cert.witness)
    bound = cohrob.witness.witness_lower_bound(rho, cert.witness)
    return {"value": value, "route": route, "cert": cert, "diagnostics": diagnostics,
            "witness_valid": report.valid, "bound": bound}


def _op_success(game, probe):
    p, povm = cohrob.games.success_probability(game, probe)
    return {"p": p, "povm": povm}


def _op_baseline(game):
    return {"p": cohrob.games.incoherent_baseline(game)}


def _op_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cohrob.cli.main(argv)
    if code in (cohrob.cli.EXIT_BAD_INPUT, cohrob.cli.EXIT_SOLVER_FAILURE):
        raise ProgramError(f"exit {code}: {err.getvalue().strip()}")
    return {"code": code, "stdout": out.getvalue()}


# -- roc_large ------------------------------------------------------------------------

ROC_LARGE_DIMS = (16, 24, 32)
# (d, rank) per round; "alt" is full rank in even rounds and rank 2 in odd
# ones.  Three d=24 ops per round put the median op inside the d=24 group.
ROC_LARGE_ROUND = ((24, "full"), (16, "full"), (24, 2), (32, "alt"),
                   (24, "alt"), (16, 2))


def _roc_large_round(seed, r):
    cases = []
    for j, (d, rank) in enumerate(ROC_LARGE_ROUND):
        if rank == "alt":
            rank = "full" if r % 2 == 0 else 2
        matrix = _random_state(_rng(seed, 1, r, j), d, d if rank == "full" else rank)

        def check(outputs, matrix=matrix):
            return checks.roc_certificate(matrix, outputs[0]["cert"])

        cases.append(Case(f"r{r}/rank-{rank}/d{d}/{j}", d,
                          [lambda m=matrix: _op_roc(m)], check))
    return cases


# -- certify_small --------------------------------------------------------------------

CERTIFY_DIMS = tuple(range(2, 9))
CERTIFY_KINDS = ("mixed", "low_rank", "near_diagonal", "pure", "saturating")


def _certify_check(matrix, kind, expected):
    def check(outputs):
        out = outputs[0]
        cert = out["cert"]
        problems = checks.roc_certificate(matrix, cert)
        problems += checks.close(f"roc_value ({out['route']})", out["value"], cert.value)
        problems += checks.close("witness lower bound", out["bound"], cert.value)
        if kind == "pure":
            problems += checks.close("pure-state value vs l1", cert.value, expected)
        if kind == "saturating":
            problems += checks.close("saturating-mixture value vs p", cert.value, expected)
        return problems
    return check


def _certify_round(seed, r):
    cases = []
    for d in CERTIFY_DIMS:
        for j, kind in enumerate(CERTIFY_KINDS):
            rng = _rng(seed, 2, r, d, j)
            expected = None
            if kind == "mixed":
                matrix = _random_state(rng, d, d)
            elif kind == "low_rank":
                matrix = _random_state(rng, d, 1 + _step(r, d, d - 1))
            elif kind == "near_diagonal":
                matrix = _near_diagonal(rng, d, _step(r, d, 5))
            elif kind == "pure":
                v = _random_pure(rng, d)
                matrix = np.outer(v, v.conj())
                expected = checks.l1_coherence(matrix)
            else:
                matrix, expected = _saturating_mixture(rng, d)
            cases.append(Case(f"r{r}/{kind}/d{d}", d,
                              [lambda m=matrix: _op_certify(m)],
                              _certify_check(matrix, kind, expected)))
    return cases


# -- games ------------------------------------------------------------------------------

GAME_DIMS = tuple(range(2, 7))
CHANNEL_DIMS = tuple(range(3, 7))


def _success_case(label, d, game, priors, states, probe, expected=None):
    def check(outputs):
        out = outputs[0]
        problems = checks.povm_result(priors, states, out["p"], out["povm"])
        if len(priors) == 2:
            problems += checks.close("Helstrom value", out["p"], checks.helstrom(priors, states))
        if expected is not None:
            problems += checks.close("canonical pure-probe value", out["p"], expected)
        return problems
    return Case(label, d, [lambda: _op_success(game, probe)], check)


def _baseline_case(label, d, game, priors, channels):
    def check(outputs):
        p = outputs[0]["p"]
        problems = checks.probability_range(priors, p)
        if len(priors) == 2:
            best = 0.0
            for j in range(d):
                probe = np.zeros((d, d), dtype=np.complex128)
                probe[j, j] = 1.0
                best = max(best, checks.helstrom(priors, _channel_states(channels, probe)))
            problems += checks.close("best basis-probe Helstrom value", p, best)
        return problems
    return Case(label, d, [lambda: _op_baseline(game)], check)


def _games_round(seed, r):
    cases = []
    for d in GAME_DIMS:
        rng = _rng(seed, 3, r, d)
        canonical = cohrob.games.canonical_game(d)
        c_priors = np.full(d, 1.0 / d)
        c_phases = 2.0 * np.pi * np.arange(d) / d
        priors, phases = _phase_game(rng, d, 2 + _step(r, d, d))
        game = cohrob.games.PhaseGame.build(d, list(zip(priors, phases)))
        v = _random_pure(rng, d)
        pure = np.outer(v, v.conj())
        mixed = _random_state(rng, d, d)
        expected = float(np.sum(np.abs(v))) ** 2 / d
        cases += [
            _success_case(f"r{r}/canonical/pure/d{d}", d, canonical, c_priors,
                          _phase_states(c_phases, pure), pure, expected),
            _success_case(f"r{r}/canonical/mixed/d{d}", d, canonical, c_priors,
                          _phase_states(c_phases, mixed), mixed),
            _success_case(f"r{r}/phase/pure/d{d}", d, game, priors,
                          _phase_states(phases, pure), pure),
            _success_case(f"r{r}/phase/mixed/d{d}", d, game, priors,
                          _phase_states(phases, mixed), mixed),
        ]
    for d in CHANNEL_DIMS:
        rng = _rng(seed, 4, r, d)
        priors, channels = _channels(rng, d, 2 + _step(r, d, 2))
        game = cohrob.games.ChannelGame.build(d, list(zip(priors, channels)))
        cases.append(_baseline_case(f"r{r}/channel_baseline/d{d}", d, game, priors, channels))
    return cases


# -- data_cli ---------------------------------------------------------------------------

DATA_DIMS = tuple(range(2, 9))
DATA_SLACK = "0.01"


def _matrix_json(m):
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _observables(rng, d, k):
    """Coherence observables on distinct pairs, topped up with random Hermitians."""
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    obs = []
    for idx in rng.choice(len(pairs), size=min(k // 2, len(pairs)), replace=False):
        a, b = pairs[idx]
        o = np.zeros((d, d), dtype=np.complex128)
        o[a, b] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        o[b, a] = np.conj(o[a, b])
        obs.append(o)
    while len(obs) < k:
        obs.append(_random_hermitian(rng, d))
    return obs


def _dataset_case(label, d, step, rng, path, consistent):
    rho = _random_state(rng, d, 1 + _step(step, d, d))
    # d to 2d observables, but at most d^2 - 1 so that they and the identity
    # stay linearly independent
    extra = min(2 * d, d * d - 1) - d + 1
    obs = _observables(rng, d, d + _step(step, d, extra))
    expectations = [float(np.trace(o @ rho).real) for o in obs]
    if not consistent:
        j = int(rng.integers(len(obs)))
        expectations[j] = float(np.linalg.eigvalsh(obs[j])[-1]) + rng.uniform(0.05, 0.2)
    # json.dumps runs the C encoder; json.dump(obj, fh) streams through the
    # pure-Python one, which made this pool's build about 1.7 times slower
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": d, "observables": [_matrix_json(o) for o in obs],
                             "expectations": expectations}))
    min_roc = ["min-roc-from-data", path, "--json"]
    relaxed = ["min-roc-from-data", path, "--slack", DATA_SLACK, "--json"]
    if not consistent:
        def check(outputs):
            return [f"inconsistent dataset exited {o['code']}, expected 4"
                    for o in outputs if o["code"] != cohrob.cli.EXIT_INFEASIBLE_DATA]
        return Case(label, d, [lambda: _op_cli(min_roc), lambda: _op_cli(relaxed)], check)

    l1_true = checks.l1_coherence(rho)

    def check(outputs):
        codes = [o["code"] for o in outputs]
        if any(c != cohrob.cli.EXIT_OK for c in codes):
            return [f"consistent dataset exited {codes}, expected 0"]
        exact, loose, fit = (json.loads(o["stdout"]) for o in outputs)
        problems = checks.data_bounds(l1_true, fit["bound"], exact["min_roc"], loose["min_roc"])
        if exact["deviation"] > checks.VALUE_TOL:
            problems.append(f"consistent dataset has deviation {exact['deviation']!r}")
        return problems

    witness = ["witness-from-data", path, "--json"]
    return Case(label, d, [lambda: _op_cli(min_roc), lambda: _op_cli(relaxed),
                           lambda: _op_cli(witness)], check)


def _data_round(seed, r, workdir):
    cases = []
    for d in DATA_DIMS:
        path = os.path.join(workdir, f"r{r}-d{d}.json")
        cases.append(_dataset_case(f"r{r}/consistent/d{d}", d, r, _rng(seed, 5, r, d),
                                   path, True))
    # two inconsistent datasets per round, rotating through the dimensions
    for i in (2 * r, 2 * r + 1):
        d = DATA_DIMS[i % len(DATA_DIMS)]
        path = os.path.join(workdir, f"r{r}-d{d}-inconsistent.json")
        cases.append(_dataset_case(f"r{r}/inconsistent/d{d}", d, i,
                                   _rng(seed, 6, r, i), path, False))
    return cases


# -- registry ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """pool_rounds: rounds made at set-up; the run cycles through them."""

    name: str
    dims: tuple
    pool_rounds: int
    make_round: Callable


WORKLOADS = {
    "roc_large": Workload("roc_large", ROC_LARGE_DIMS, 8,
                          lambda seed, r, workdir: _roc_large_round(seed, r)),
    "certify_small": Workload("certify_small", CERTIFY_DIMS, 24,
                              lambda seed, r, workdir: _certify_round(seed, r)),
    "games": Workload("games", GAME_DIMS, 16,
                      lambda seed, r, workdir: _games_round(seed, r)),
    "data_cli": Workload("data_cli", DATA_DIMS, 16, _data_round),
}

WARMUP_ROUND = 999_999  # round index of the untimed warm-up inputs; never measured


def make_pool(workload: Workload, seed: int, workdir: str) -> list:
    """The measured rounds, made from the seed, with data files under workdir."""
    return [workload.make_round(seed, r, workdir) for r in range(workload.pool_rounds)]


def warm_up(workload: Workload, seed: int, workdir: str) -> None:
    """Fill the hermitian_basis cache and run every code path once before timing.

    roc_large warms on its smallest size only: a full round costs as much as
    the measurement.
    """
    for d in workload.dims:
        cohrob.sdp.hermitian_basis(d)
    cases = workload.make_round(seed, WARMUP_ROUND, workdir)
    if workload.name == "roc_large":
        cases = [c for c in cases if c.dim == ROC_LARGE_DIMS[0]]
    for case in cases:
        for call in case.calls:
            try:
                call()
            except (cohrob.sdp.SolverError, ProgramError):
                pass
