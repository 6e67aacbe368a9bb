#!/usr/bin/env python3
"""Regenerate the frozen oracle fixtures under tests/fixtures/.

Every derived expected value used by the test suite is computed here, by
code paths independent of the implementation under test, and stored as
{seed, input, value, tol, oracle}.  All randomness is seeded, so rerunning
the script reproduces every input byte-for-byte; a value derived by a solver
(for example gap_qutrit.json's roc and gap) reproduces within its fixture's
tol, since its last digits follow the BLAS build and the solver's arithmetic.
"""
from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cohrob.jsonio import fixture_to_json, matrix_to_json  # noqa: E402
from cohrob.linalg import random_state  # noqa: E402
from cohrob.oracle import roc_descent_oracle  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def realify_spectrum_fixture(seed: int = 303) -> dict:
    """Spectrum of a random 3x3 Hermitian via LAPACK; the real embedding
    must reproduce it with multiplicity two."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (g + g.conj().T)
    value = [float(x) for x in np.linalg.eigvalsh(h)]
    return fixture_to_json(
        oracle="lapack_eigvalsh",
        seed=seed,
        input_obj=matrix_to_json(h),
        value=value,
        tol=1e-11,
    )


def descent_roc_fixtures() -> dict:
    """Penalized-descent upper bounds for full-rank qutrits (the independent
    route to the exact solver's value)."""
    cases = []
    for state_seed, oracle_seed in ((11, 1), (12, 2), (13, 3)):
        rho = random_state(3, seed=state_seed)
        value = roc_descent_oracle(rho, restarts=6, seed=oracle_seed)
        cases.append({
            "state_seed": state_seed,
            "oracle_seed": oracle_seed,
            "input": matrix_to_json(rho),
            "value": value,
        })
    return {
        "seed": [c["state_seed"] for c in cases],
        "input": [c["input"] for c in cases],
        "value": [c["value"] for c in cases],
        "tol": 1e-6,
        "oracle": "roc_descent_oracle(restarts=6)",
        "oracle_seeds": [c["oracle_seed"] for c in cases],
    }


def witness_grid_fixture() -> dict:
    """Best witness c*X + m*1 for the dataset {X: 1.0}, by brute-force grid.

    Validity for W = c X + m 1 means m >= 0 and m + |c| <= 1 (eigenvalues
    m +- |c|); the scan maximizes -(c + m) over the grid.
    """
    sigma_x = [[0.0, 1.0], [1.0, 0.0]]
    best = -np.inf
    best_c = best_m = 0.0
    for c in np.linspace(-2.0, 2.0, 8001):
        for m in (0.0,):  # any m > 0 only lowers -(c + m); scan confirms m* = 0
            if m < 0.0 or m + abs(c) > 1.0:
                continue
            score = -(c * 1.0 + m)
            if score > best:
                best, best_c, best_m = score, float(c), float(m)
    # exhaustive 2-D confirmation on a coarser grid
    for c in np.linspace(-1.5, 1.5, 601):
        for m in np.linspace(0.0, 1.0, 201):
            if m + abs(c) > 1.0:
                continue
            score = -(c + m)
            assert score <= best + 1e-12, (c, m, score, best)
    return fixture_to_json(
        oracle="coefficient_grid_scan",
        seed=None,
        input_obj={
            "dim": 2,
            "observables": [{"dim": 2, "re": sigma_x, "im": [[0.0, 0.0], [0.0, 0.0]]}],
            "expectations": [1.0],
        },
        value=best,
        tol=1e-6,
    ) | {"optimizer": {"c": best_c, "m": best_m}}


def gap_state_fixture() -> dict:
    """A qutrit whose off-diagonal sum strictly exceeds the exact value.

    The search itself is part of the library; the fixture freezes the first
    hit so other tests can reuse the state without re-searching.
    """
    from cohrob.roc import find_l1_gap_witness

    found = find_l1_gap_witness(trials=10000, seed=0, min_gap=1e-4, dim=3)
    return {
        "seed": 0,
        "input": matrix_to_json(found.state),
        "value": {"l1": found.l1, "roc": found.roc, "gap": found.gap},
        "tol": 1e-6,
        "oracle": "find_l1_gap_witness(trials=10000, seed=0)",
        "trials_used": found.trials_used,
    }


def high_sensitivity_fixture(seed: int = 2959, round_no: int = 15, dim: int = 3) -> dict:
    """The dataset that bench/workloads.py writes for the data_cli case
    r15/consistent/d3 of seed 2959: consistent data whose least robustness
    moves by up to about 545 per unit of data error."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        workloads.WORKLOADS["data_cli"].make_round(seed, round_no, workdir)
        with open(pathlib.Path(workdir) / f"r{round_no}-d{dim}.json", encoding="utf-8") as fh:
            dataset = json.load(fh)
    return {"seed": seed, "case": f"r{round_no}/consistent/d{dim}", "input": dataset,
            "oracle": "bench/workloads.py data_cli pool"}


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    files = {
        "realify_spectrum_d3.json": realify_spectrum_fixture(),
        "descent_roc_qutrits.json": descent_roc_fixtures(),
        "witness_grid_x.json": witness_grid_fixture(),
        "gap_qutrit.json": gap_state_fixture(),
        "high_sensitivity_d3.json": high_sensitivity_fixture(),
    }
    for name, payload in files.items():
        path = FIXTURES / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
