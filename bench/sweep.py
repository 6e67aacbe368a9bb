#!/usr/bin/env python3
"""Run workloads over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --workloads roc_large games --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out summary.json]

Runs bench/run.py once per (workload, seed), one run at a time, from the root
of the checkout, with run.py's default run length unless --seconds is given.
For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json when it has one.  With --out the
summary, including every run's report, is written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
REPORT_KEYS = ("seconds", "rounds", "fail_frac", "failed_cases", "wrong_cases",
               "op_ms_by_dim", "raw_op_ms_by_dim", "op_p90_ms", "raw_metrics",
               "setup_probe_s", "raw_setup_probe_s", "raw_setup_s", "outputs_identical",
               "traced_s", "untraced_s", "trace_overhead_2se_pct", "trace_overhead_resolved")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr}")
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    limits = bounds()
    summary = {}
    bad = 0
    for workload in args.workloads:
        runs, values = [], {}
        for seed in args.seeds:
            code, report, result = run_one(workload, seed, args.seconds, args.trace)
            runs.append({
                "seed": seed, "exit": code, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "report": {key: report[key] for key in REPORT_KEYS if key in report},
            })
            bad += code != 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: exit {code} correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        metrics = {name: summarize(v) for name, v in values.items()}
        summary[workload] = {"metrics": metrics, "runs": runs}
        environment = report["environment"]
        for name, s in metrics.items():
            bound = limits.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound}" + (" OVER/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:<40} median {s['median']:<12.6g} spread {s['spread']:.4f} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment, "seconds": report["seconds"],
                       "trace": args.trace, "seeds": args.seeds, "workloads": summary},
                      fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
