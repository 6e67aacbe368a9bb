#!/usr/bin/env python3
"""Run one cohrob benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run it from the root of a source checkout; cohrob is imported from ./src.
One closed-loop caller issues each op only when the previous one has
returned.  Inputs come from the seed alone, every output is checked with
numpy, and times are calibrated against a fixed kernel (speed.py).
--seconds defaults to run_seconds in BENCHMARK.json.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end set; with --trace 1
every case runs twice, traced and untraced, the side that goes first
alternating from case to case, and the run reports the per-layer set.  The
line before it is a report with the environment, raw times and every failed
case.  Results and spans are also written under .bench_out/.  The exit code is 1 when an output fails
its check or the traced and untraced outputs differ, and 2 when the program
cannot be loaded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("roc_large", "certify_small", "games", "data_cli")
SETUP_PROBES = 15
# One BLAS thread: the op then runs on one core, as the speed kernel does, so
# the kernel tracks the op's speed; two threads made run-to-run spreads wider.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_seconds() -> float:
    """The run length BENCHMARK.json sets for every run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import and build the inputs under DIR, then exit")
    return parser.parse_args(argv)


def load_program():
    """Import cohrob from this checkout's src directory, and nowhere else."""
    sys.path.insert(0, SRC)
    import cohrob

    if os.path.dirname(os.path.abspath(cohrob.__file__)) != os.path.join(SRC, "cohrob"):
        raise ImportError(f"cohrob was imported from {cohrob.__file__}, not {SRC}")


# -- environment -----------------------------------------------------------------------

def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain source tree; git would look in the directories above
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


# -- set-up --------------------------------------------------------------------------------

class SetupProbes:
    """Fresh interpreters that import cohrob and build the inputs, spread over a run.

    A probe is due every `seconds`/SETUP_PROBES of measuring and runs between
    cases, so the probes see the machine over the whole run, as the ops do.
    Each probe's set-up time runs from launch until the child has its pool
    ready, on the system-wide monotonic clock.  The child then times the
    speed kernel itself, and its set-up time is scaled by that sample.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.interval = args.seconds / SETUP_PROBES
        self.scaled, self.raw = [], []
        self.spent = 0.0  # seconds spent in probes, left out of the measuring clock

    def run_if_due(self, measured_s):
        while len(self.raw) < SETUP_PROBES and measured_s >= (len(self.raw) + 0.5) * self.interval:
            self.run_one()

    def finish(self):
        while len(self.raw) < SETUP_PROBES:
            self.run_one()

    def run_one(self):
        import speed

        workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}-{len(self.raw)}")
        os.makedirs(workdir)
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(self.cmd + [workdir], cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            self.spent += time.clock_gettime(time.CLOCK_MONOTONIC) - launch
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds = probe["ready"] - launch
        self.raw.append(seconds)
        self.scaled.append(seconds * speed.KERNEL_REF_S / probe["kernel_s"])


def setup_probe(workload, seed, workdir):
    """The child side of a set-up probe: build the pool, then time the kernel."""
    import speed
    import workloads

    workloads.make_pool(workload, seed, workdir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "kernel_s": speed.sample()[1]}))


# -- the closed loop -------------------------------------------------------------------------

def _digest(obj, h):
    """Feed a canonical byte form of an op output into hash h."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _digest(item, h)
    elif hasattr(obj, "__dataclass_fields__"):
        _digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())


def run_case(case, round_no, ops, tracer=None):
    """Run one case's calls back to back, then check its outputs untimed.

    With a tracer, it is installed for the calls only.
    """
    outputs, errors = [], []
    if tracer is not None:
        tracer.install()
    try:
        for call in case.calls:
            if tracer is not None:
                tracer.op = len(ops)
            start = time.perf_counter()
            try:
                out, err = call(), None
            except Exception as exc:  # a failed op is counted and listed, not raised
                out, err = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            ops.append({"case": case.label, "dim": case.dim, "round": round_no,
                        "start": start, "end": end, "seconds": end - start, "error": err})
            outputs.append(out)
            if err is not None:
                errors.append(err)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = []
    if not errors:
        try:
            problems = case.check(outputs)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    h = hashlib.sha256()
    _digest([outputs, errors], h)
    return {"case": case, "calls": len(case.calls), "errors": errors,
            "problems": problems, "digest": h.hexdigest()}


def measure(pool, seconds, tracer=None, probes=None):
    """Whole rounds from the pool until `seconds` of measuring have passed.

    Returns (ops, results) of the untraced side, (ops, results) of the traced
    side, and the number of rounds.  Without a tracer the traced side stays
    empty.  With one, every case runs traced and untraced back to back, and
    the side that goes first alternates from case to case, so neither side
    always meets the machine or the allocator in the state the other left.
    Set-up probes run between cases, outside the measuring clock.  Each op
    also gets "scaled", its wall time at the calibrated machine speed.
    """
    import speed

    untraced, traced = ([], []), ([], [])
    sides = [(untraced, None)] if tracer is None else [(traced, tracer), (untraced, None)]
    log = speed.SpeedLog()
    log.sample_if_due()
    start = time.perf_counter()

    def measured_s():
        return time.perf_counter() - start - (probes.spent if probes else 0.0)

    r = n = 0
    while True:
        for case in pool[r % len(pool)]:
            for (ops, results), side_tracer in (sides if n % 2 == 0 else sides[::-1]):
                results.append(run_case(case, r, ops, side_tracer))
            n += 1
            log.sample_if_due()
            if probes is not None:
                probes.run_if_due(measured_s())
        r += 1
        if measured_s() >= seconds:
            break
    if probes is not None:
        probes.finish()
    for ops, _ in (untraced, traced):
        for op in ops:
            op["scaled"] = op["seconds"] * log.scale(op["start"], op["end"])
    return untraced, traced, r


# -- metrics -----------------------------------------------------------------------------------

def outcome(results):
    """Mark each op ok or not, and list failed and wrong cases."""
    ok, errors, wrong = [], [], []
    for res in results:
        passed = not res["errors"] and not res["problems"]
        ok += [passed] * res["calls"]
        if res["errors"]:
            errors.append({"case": res["case"].label, "errors": res["errors"]})
        if res["problems"]:
            wrong.append({"case": res["case"].label, "problems": res["problems"]})
    return ok, errors, wrong


P90_MIN_OPS = 100  # a 90th percentile needs ten samples beyond it


def time_metrics(ops, ok, key) -> dict:
    """Throughput and latency from each op's time under `key` ("scaled" or "seconds").

    op_p90_ms is given only for runs with at least P90_MIN_OPS ops.
    """
    lat = [op[key] for op in ops]
    metrics = {
        "ops_per_s": (sum(ok) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
    }
    if len(lat) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = (1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8], "ms")
    return metrics


def op_ms_by_dim(ops, key) -> dict:
    dims = sorted({op["dim"] for op in ops})
    return {f"d{d}": 1e3 * statistics.median([op[key] for op in ops if op["dim"] == d])
            for d in dims}


def trace_overhead(traced_ops, untraced_ops) -> dict:
    """Calibrated time inside ops, traced over untraced, as a paired comparison.

    The two lists pair op by op; every run traces at least one round, so
    there are several pairs.  The overhead is resolved only when the
    difference of the sums exceeds twice its standard error, taken from the
    spread of the per-op differences; otherwise it is within the noise of
    the run.
    """
    t = [op["scaled"] for op in traced_ops]
    u = [op["scaled"] for op in untraced_ops]
    diffs = [a - b for a, b in zip(t, u)]
    two_se = 2.0 * statistics.stdev(diffs) * len(diffs) ** 0.5
    return {
        "traced_s": sum(t), "untraced_s": sum(u),
        "trace_overhead_pct": 100.0 * (sum(t) / sum(u) - 1.0),
        "trace_overhead_2se_pct": 100.0 * two_se / sum(u),
        "trace_overhead_resolved": abs(sum(diffs)) > two_se,
    }


# -- entry point -----------------------------------------------------------------------------

def _write_json(name, payload):
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    try:
        load_program()
    except ImportError as exc:
        print(f"cannot load cohrob from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed & (2 ** 63 - 1)
    if args.setup_probe:
        setup_probe(workload, seed, args.setup_probe)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"data-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    probes = None if args.trace else SetupProbes(args)
    try:
        pool = workloads.make_pool(workload, seed, workdir)
        workloads.warm_up(workload, seed, workdir)
        (ops, results), (traced_ops, traced_results), rounds = measure(
            pool, args.seconds, tracer, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok, errors, wrong = outcome(results + traced_results)
    scaled = time_metrics(ops, ok[:len(ops)], "scaled")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "rounds": rounds,
        "attempted": len(ok), "failed": len(ok) - sum(ok),
        "fail_frac": (len(ok) - sum(ok)) / len(ok),
        "op_ms_by_dim": op_ms_by_dim(ops, "scaled"),
        "raw_op_ms_by_dim": op_ms_by_dim(ops, "seconds"),
        "op_p90_ms": scaled.get("op_p90_ms", (None,))[0],
        "raw_metrics": {name: value for name, (value, _) in
                        time_metrics(ops, ok[:len(ops)], "seconds").items()},
        "failed_cases": errors, "wrong_cases": wrong,
    }
    if args.trace:
        mismatched = [a["case"].label for a, b in zip(results, traced_results)
                      if a["digest"] != b["digest"]]
        if mismatched:
            wrong.append({"case": "traced vs untraced outputs", "problems": mismatched})
        first_round = {i for i, op in enumerate(traced_ops) if op["round"] == 0}
        metrics = tracing.layer_metrics(tracer.spans, first_round, len(traced_ops))
        overhead = trace_overhead(traced_ops, ops)
        metrics["trace.overhead_pct"] = (overhead["trace_overhead_pct"], "%")
        report.update(overhead, outputs_identical=not mismatched)
        _write_json(f"trace-{args.workload}-seed{args.seed}.json",
                    {"ops": traced_ops, "spans": tracer.records()})
    else:
        report.update(setup_probe_s=probes.scaled, raw_setup_probe_s=probes.raw,
                      raw_setup_s=statistics.median(probes.raw))
        metrics = {
            "setup_s": (statistics.median(probes.scaled), "s"),
            "ops_per_s": scaled["ops_per_s"],
            "op_p50_ms": scaled["op_p50_ms"],
            "ok_frac": (sum(ok) / len(ok), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    result = {
        "correct": not wrong,
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    _write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                {"report": report, "result": result})
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
