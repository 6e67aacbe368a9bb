#!/usr/bin/env python3
"""Run every case of a benchmark workload's pool once and fingerprint the outputs.

    python3 scripts/census.py WORKLOAD SEED [SEED ...] [--cases LABEL,LABEL,...]

For each seed this builds the pool that bench/workloads.py makes (data files
go to a temporary directory), runs each case once, untimed and untraced,
through bench/run.py's run_case with one BLAS thread, and prints one JSON
line: the op count, the failed ops, the failed and wrong cases, and a sha256
over the per-case output digests.  Two checkouts that print the same line
compute bit-identical outputs and fail the same cases on that pool.  With
--cases the whole pool is still built, but only the cases with those labels
(for example r8/consistent/d8) run; each must be in every named seed's pool.
Run it from the root of a source checkout; it imports cohrob from ./src and
reads bench/ without changing it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402  (bench/run.py; imports nothing numerical)


def census(workload, seed: int, labels=None) -> dict:
    """Fingerprint one seed's pool, or only the cases named in labels."""
    import workloads

    results, ops = [], []
    with tempfile.TemporaryDirectory(prefix="cohrob-census-") as workdir:
        pool = workloads.make_pool(workload, seed & (2 ** 63 - 1), workdir)
        if labels is not None:
            missing = set(labels) - {case.label for cases in pool for case in cases}
            if missing:
                raise ValueError(f"seed {seed} has no case {', '.join(sorted(missing))}")
        for round_no, cases in enumerate(pool):
            for case in cases:
                if labels is None or case.label in labels:
                    results.append(run.run_case(case, round_no, ops))
    ok, errors, wrong = run.outcome(results)
    h = hashlib.sha256()
    for res in results:
        h.update(res["case"].label.encode() + b"\0" + res["digest"].encode() + b"\n")
    return {
        "workload": workload.name,
        "seed": seed,
        "cases": len(results),
        "ops": len(ok),
        "failed_ops": len(ok) - sum(ok),
        "failed_cases": [e["case"] for e in errors],
        "wrong_cases": [w["case"] for w in wrong],
        "sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=run.WORKLOAD_NAMES)
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--cases", type=lambda text: set(text.split(",")), metavar="LABELS",
                        help="comma-separated case labels: run only these")
    args = parser.parse_args(argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS  # before numpy is first imported
    run.load_program()
    import workloads

    for seed in args.seeds:
        try:
            line = census(workloads.WORKLOADS[args.workload], seed, args.cases)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
