"""Spans around calls into cohrob's public functions, and the per-layer metrics.

The tracer rebinds each traced name in the module where callers look it up
(for example ``cohrob.roc.jacobi_eigvalsh``, the name roc's own code calls),
so nested calls inside the library are seen too.  It reads nothing from
inside ``cohrob.sdp.solve``: a solve span records only the problem it was
given and the solution it returned.  Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, span name): each traced entry point under the
# names its callers look up
TARGETS = (
    ("cohrob.linalg", "as_density", "linalg.as_density"),
    ("cohrob.games", "as_density", "linalg.as_density"),
    ("cohrob.witness", "as_density", "linalg.as_density"),
    ("cohrob.linalg", "jacobi_eigh", "linalg.jacobi"),
    ("cohrob.roc", "jacobi_eigvalsh", "linalg.jacobi"),
    ("cohrob.witness", "jacobi_eigvalsh", "linalg.jacobi"),
    ("cohrob.sdp", "ConicProblem.build", "sdp.build"),
    ("cohrob.sdp", "solve", "sdp.solve"),
    ("cohrob.roc", "roc_exact", "roc.roc_exact"),
    ("cohrob.games", "roc_exact", "roc.roc_exact"),
    ("cohrob.roc", "roc_fast_path", "roc.fast_path"),
    ("cohrob.roc", "check_certificate", "roc.check_certificate"),
    ("cohrob.games", "success_probability", "games.success_probability"),
    ("cohrob.witness", "validate_witness", "witness.validate_witness"),
    ("cohrob.witness", "min_roc_from_data", "witness.min_roc_from_data"),
    ("cohrob.cli", "min_roc_from_data", "witness.min_roc_from_data"),
    ("cohrob.witness", "best_witness_from_data", "witness.best_witness_from_data"),
    ("cohrob.cli", "best_witness_from_data", "witness.best_witness_from_data"),
    ("cohrob.jsonio", "load_json_file", "jsonio.load"),
    ("cohrob.jsonio", "dataset_from_json", "jsonio.load"),
    ("cohrob.cli", "main", "cli.main"),
)

SELF_TIME_LAYERS = (
    "linalg.as_density", "linalg.jacobi", "sdp.build", "sdp.solve",
    "roc.roc_exact", "roc.check_certificate", "games.success_probability",
    "witness.min_roc_from_data", "witness.best_witness_from_data",
    "witness.validate_witness", "jsonio.load", "cli.main",
)
CALL_COUNT_LAYERS = ("linalg.as_density", "linalg.jacobi", "sdp.build", "sdp.solve")
WITNESS_PROGRAMS = ("witness.min_roc_from_data", "witness.best_witness_from_data")


def _solve_info(args, kwargs, solution):
    """Counts of one solve, from its input problem and returned solution."""
    problem = args[0] if args else kwargs["problem"]
    m = int(problem.rhs.size)
    # entries of one constraint row of the engine's real blocks: PSD blocks
    # are realified to 2n x 2n, nonnegative blocks stay length n
    row = sum(4 * n * n if kind == "psd" else n for kind, n in problem.blocks)
    return {
        "iterations": int(solution.iterations),
        "optimal": solution.status.value == "optimal",
        "schur_dim": m,
        "constraint_mb": 8.0 * m * row / 1e6,
    }


def _fast_path_info(args, kwargs, value):
    return {"hit": value is not None}


INFO = {"sdp.solve": _solve_info, "roc.fast_path": _fast_path_info}


class Tracer:
    """Records spans [name, start, end, parent, op, info] while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op, "info": info}
                for n, s, e, p, op, info in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, count_ops, n_ops) -> dict:
    """Per-layer metrics from a list of spans.

    Times are means per op over all n_ops traced ops.  Counts come from the
    spans of the ops in count_ops (the first round), whose inputs depend only
    on the seed, so they repeat exactly.
    """
    child = [0.0] * len(spans)
    for n, s, e, p, op, info in spans:
        if p >= 0:
            child[p] += e - s
    self_s = defaultdict(float)
    for i, (n, s, e, p, op, info) in enumerate(spans):
        self_s[n] += e - s - child[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    calls = defaultdict(int)
    solves_under = defaultdict(int)
    solves = []
    for i, (n, s, e, p, op, info) in enumerate(spans):
        if op not in count_ops:
            continue
        above = set(ancestors(i))
        if n not in above:
            calls[n] += 1
        if n == "sdp.solve" and info is not None:
            solves.append(info)
            for layer in above:
                solves_under[layer] += 1

    iterations_all = sum(rec[5]["iterations"] for rec in spans
                         if rec[0] == "sdp.solve" and rec[5] is not None)
    witness_calls = sum(calls[w] for w in WITNESS_PROGRAMS)
    fast = [rec[5]["hit"] for rec in spans
            if rec[0] == "roc.fast_path" and rec[5] is not None and rec[4] in count_ops]

    metrics = {}
    for layer in CALL_COUNT_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * _ratio(self_s[layer], n_ops), "ms")
    metrics.update({
        "sdp.iterations": (sum(s["iterations"] for s in solves), "count"),
        "sdp.ms_per_iter": (1e3 * _ratio(self_s["sdp.solve"], iterations_all), "ms"),
        "sdp.schur_dim.max": (max((s["schur_dim"] for s in solves), default=0), "count"),
        "sdp.constraint_mb": (max((s["constraint_mb"] for s in solves), default=0.0), "MB"),
        "sdp.not_optimal": (sum(not s["optimal"] for s in solves), "count"),
        "roc.solves_per_value": (_ratio(solves_under["roc.roc_exact"],
                                        calls["roc.roc_exact"]), "ratio"),
        "roc.fast_path.hit_ratio": (_ratio(sum(fast), len(fast)), "ratio"),
        "games.solves_per_call": (_ratio(solves_under["games.success_probability"],
                                         calls["games.success_probability"]), "ratio"),
        "witness.solves_per_call": (_ratio(sum(solves_under[w] for w in WITNESS_PROGRAMS),
                                           witness_calls), "ratio"),
    })
    return metrics
