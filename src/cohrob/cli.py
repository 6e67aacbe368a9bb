"""Command-line front end.

Subcommands cover the exact solver, bound reports, witness evaluation, the
device-data programs, discrimination games, the operational-advantage check,
a qubit Bloch-ball sweep, and the randomized invariant audit.

Exit codes: 0 success; 1 malformed input, malformed command line or
dimension mismatch; 2 solver failure, including a LAPACK breakdown; 3
invalid witness; 4 data inconsistent with any quantum state; 5
operational-theorem mismatch beyond tolerance.

Human-readable output uses fixed 6-decimal formatting; --json emits full
precision.  Diagnostics go to stderr only.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import jsonio
from .audit import audit
from .games import incoherent_baseline, success_probability, verify_operational_theorem
from .linalg import as_density, l1_coherence
from .roc import TOL_FLOOR, roc_bounds, roc_exact, roc_fast_path, roc_value
from .sdp import SolverError
from .witness import (
    InfeasibleDataError,
    InvalidWitnessError,
    best_witness_from_data,
    min_roc_from_data,
    witness_lower_bound,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_SOLVER_FAILURE = 2
EXIT_INVALID_WITNESS = 3
EXIT_INFEASIBLE_DATA = 4
EXIT_THEOREM_MISMATCH = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a malformed command line, the code this CLI keeps
    for solver failure; these parsers exit EXIT_BAD_INPUT instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _tol(text: str) -> float:
    """--tol: a relative tolerance in (0, 1), floored at TOL_FLOOR.  At 1 or
    more the solver's stopping test already holds at its starting point."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a number in (0, 1), got {text!r}")
    return max(value, TOL_FLOOR)


def _load_state(path: str) -> np.ndarray:
    mat = jsonio.matrix_from_json(jsonio.load_json_file(path), where=path)
    try:
        return as_density(mat)
    except ValueError as exc:
        raise jsonio.InputFormatError(f"{path}: not a density matrix: {exc}") from None


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _cmd_roc(args) -> int:
    rho = _load_state(args.state)
    if args.fast_path_only:
        value = roc_fast_path(rho)
        if value is None:
            raise jsonio.InputFormatError(
                f"{args.state}: off-diagonal phases are not alignable; "
                "the fast path does not apply"
            )
        _emit(args, {"value": value, "method": "fast_path"},
              [f"value {value:.6f}", "method fast_path"])
        return EXIT_OK
    cert = roc_exact(rho, tol=args.tol)
    if args.certificate:
        payload = jsonio.certificate_to_json(cert)
        print(json.dumps(payload) if args.json else json.dumps(payload, indent=1))
        return EXIT_OK
    _emit(args, {"value": cert.value, "method": cert.method, "gap": cert.gap},
          [f"value {cert.value:.6f}", f"method {cert.method}"])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rho = _load_state(args.state)
    print(json.dumps(asdict(roc_bounds(rho))))
    return EXIT_OK


def _cmd_witness_bound(args) -> int:
    rho = _load_state(args.state)
    w = jsonio.matrix_from_json(jsonio.load_json_file(args.witness), where=args.witness)
    bound = witness_lower_bound(rho, w)
    _emit(args, {"bound": bound}, [f"bound {bound:.6f}"])
    return EXIT_OK


def _cmd_witness_from_data(args) -> int:
    data = jsonio.dataset_from_json(jsonio.load_json_file(args.dataset), where=args.dataset)
    fit = best_witness_from_data(data, tol=args.tol)
    payload = {
        "bound": fit.bound,
        "coefficients": fit.coefficients.tolist(),
        "offset": fit.offset,
    }
    coeff_text = " ".join(f"{c:.6f}" for c in fit.coefficients)
    _emit(args, payload,
          [f"bound {fit.bound:.6f}",
           f"coefficients {coeff_text}",
           f"offset {fit.offset:.6f}"])
    return EXIT_OK


def _cmd_min_roc_from_data(args) -> int:
    data = jsonio.dataset_from_json(jsonio.load_json_file(args.dataset), where=args.dataset)
    result = min_roc_from_data(data, slack=args.slack, tol=args.tol)
    _emit(args, {"min_roc": result.value, "deviation": result.deviation},
          [f"min_roc {result.value:.6f}"])
    return EXIT_OK


def _cmd_game(args) -> int:
    game = jsonio.game_from_json(jsonio.load_json_file(args.game), where=args.game)
    rho = _load_state(args.state)
    p_succ, _ = success_probability(game, rho, tol=args.tol)
    baseline = incoherent_baseline(game, tol=args.tol)
    ratio = p_succ / baseline
    _emit(args, {"p_succ": p_succ, "baseline": baseline, "ratio": ratio},
          [f"p_succ {p_succ:.6f}", f"baseline {baseline:.6f}", f"ratio {ratio:.6f}"])
    return EXIT_OK


def _cmd_verify_teo(args) -> int:
    rho = _load_state(args.state)
    report = verify_operational_theorem(
        rho,
        phase_samples=args.phase_samples,
        channel_samples=args.channel_samples,
        seed=args.seed,
        tol=args.tol,
    )
    _emit(args, asdict(report),
          [f"roc {report.roc:.6f}",
           f"canonical_ratio {report.canonical_ratio:.6f}",
           f"equality_gap {report.equality_gap:.6f}",
           f"equality_ok {report.equality_ok}",
           f"bounds_ok {report.bounds_ok}"])
    if not (report.equality_ok and report.bounds_ok):
        print(
            f"advantage mismatch: canonical gap {report.equality_gap:.3e}, "
            f"sampled bounds ok: {report.bounds_ok}",
            file=sys.stderr,
        )
        return EXIT_THEOREM_MISMATCH
    return EXIT_OK


def _cmd_sweep_qubit(args) -> int:
    if args.steps < 2:
        raise jsonio.InputFormatError("--steps must be at least 2")
    grid = np.linspace(-1.0, 1.0, args.steps)
    lines = ["r1,r2,r3,roc,l1"]
    for r1 in grid:
        for r2 in grid:
            for r3 in grid:
                if r1 * r1 + r2 * r2 + r3 * r3 > 1.0 + 1e-12:
                    continue
                rho = 0.5 * np.array(
                    [[1.0 + r3, r1 - 1j * r2], [r1 + 1j * r2, 1.0 - r3]],
                    dtype=np.complex128,
                )
                value, _ = roc_value(rho)
                lines.append(
                    f"{r1:.12f},{r2:.12f},{r3:.12f},{value:.12f},{l1_coherence(rho):.12f}"
                )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_audit(args) -> int:
    report = audit(dim=args.dim, samples=args.samples, seed=args.seed)
    print(json.dumps(report))
    return EXIT_OK if report["passed"] else EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohrob",
        description="Robustness-of-coherence toolkit: exact values, "
        "certificates, bounds, data programs, and discrimination games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solves=True):
        p.add_argument("--json", action="store_true", help="full-precision JSON output")
        if solves:
            p.add_argument("--tol", type=_tol, default=1e-8,
                           help="solver tolerance in (0, 1), floored at 1e-10")

    p = sub.add_parser("roc", help="robustness of coherence of a state")
    p.add_argument("state", help="density-matrix JSON file")
    p.add_argument("--certificate", action="store_true",
                   help="also print witness and pseudomixture parts as JSON")
    p.add_argument("--fast-path-only", action="store_true",
                   help="only use the aligned-phase closed form; fail if inapplicable")
    add_common(p)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("bounds", help="upper/lower bound report (JSON)")
    p.add_argument("state")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("witness-bound", help="lower bound from a given witness")
    p.add_argument("state")
    p.add_argument("witness")
    add_common(p, solves=False)
    p.set_defaults(func=_cmd_witness_bound)

    p = sub.add_parser("witness-from-data", help="best witness built from expectations")
    p.add_argument("dataset")
    add_common(p)
    p.set_defaults(func=_cmd_witness_from_data)

    p = sub.add_parser("min-roc-from-data",
                       help="minimum robustness among states matching the data")
    p.add_argument("dataset")
    p.add_argument("--slack", type=float, default=0.0,
                   help="half-width tolerance on each expectation")
    add_common(p)
    p.set_defaults(func=_cmd_min_roc_from_data)

    p = sub.add_parser("game", help="optimal success probability and advantage ratio")
    p.add_argument("game")
    p.add_argument("state")
    add_common(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("verify-teo",
                       help="check the canonical-game advantage equality and sampled bounds")
    p.add_argument("state")
    p.add_argument("--phase-samples", type=int, default=5)
    p.add_argument("--channel-samples", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_verify_teo)

    p = sub.add_parser("sweep-qubit", help="Bloch-ball grid CSV: r1,r2,r3,roc,l1")
    p.add_argument("--steps", type=int, default=11, help="grid points per axis")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(func=_cmd_sweep_qubit, json=False)

    p = sub.add_parser("audit", help="randomized invariant suite (JSON report)")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit, json=True)

    return parser


# main's parser: built on main's first call, not at import, and reused by
# every later call; parse_args fills a fresh namespace each time
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleDataError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE_DATA
    except InvalidWitnessError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID_WITNESS
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but it is a numerical breakdown
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (jsonio.InputFormatError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
