#!/usr/bin/env python3
"""Run every case of a benchmark workload's pool once and fingerprint the outputs.

    python3 scripts/census.py WORKLOAD SEED [SEED ...]

For each seed this builds the pool that bench/workloads.py makes (data files
go to a temporary directory), runs each case once, untimed and untraced,
through bench/run.py's run_case with one BLAS thread, and prints one JSON
line: the op count, the failed ops, the failed and wrong cases, and a sha256
over the per-case output digests.  Two checkouts that print the same line
compute bit-identical outputs and fail the same cases on that pool.  Run it
from the root of a source checkout; it imports cohrob from ./src and reads
bench/ without changing it.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402  (bench/run.py; imports nothing numerical)


def census(workload, seed: int) -> dict:
    import workloads

    results, ops = [], []
    with tempfile.TemporaryDirectory(prefix="cohrob-census-") as workdir:
        pool = workloads.make_pool(workload, seed & (2 ** 63 - 1), workdir)
        for round_no, cases in enumerate(pool):
            for case in cases:
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
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[0] not in run.WORKLOAD_NAMES:
        print(f"usage: census.py {{{','.join(run.WORKLOAD_NAMES)}}} SEED [SEED ...]",
              file=sys.stderr)
        return 1
    try:
        seeds = [int(s) for s in argv[1:]]
    except ValueError:
        print("seeds must be integers", file=sys.stderr)
        return 1
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS  # before numpy is first imported
    run.load_program()
    import workloads

    for seed in seeds:
        print(json.dumps(census(workloads.WORKLOADS[argv[0]], seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
