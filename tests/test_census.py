"""Smoke test of scripts/census.py, the instrument behind bit-identity claims."""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_census_roc_large_seed_1():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "census.py"), "roc_large", "1"],
        capture_output=True, text=True, cwd=ROOT, check=False, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line["workload"] == "roc_large" and line["seed"] == 1
    assert line["cases"] == 48
    assert line["failed_ops"] == 0
    assert line["failed_cases"] == []
    assert line["wrong_cases"] == []
    assert re.fullmatch(r"[0-9a-f]{64}", line["sha256"])
