"""Smoke tests of scripts/census.py, the instrument behind bit-identity claims,
and the data_cli stall-set gate built on it."""
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def census(*args):
    """The JSON lines scripts/census.py prints for args."""
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "census.py"), *args],
        capture_output=True, text=True, cwd=ROOT, check=False, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return [json.loads(line) for line in run.stdout.splitlines()]


def check_whole_pool(line, workload, cases, seed=1):
    assert line["workload"] == workload and line["seed"] == seed
    assert line["cases"] == cases
    assert line["failed_ops"] == 0
    assert line["failed_cases"] == []
    assert line["wrong_cases"] == []
    # the digest depends on the BLAS build, so only its shape is pinned
    assert re.fullmatch(r"[0-9a-f]{64}", line["sha256"])


def test_census_roc_large_seed_1():
    [line] = census("roc_large", "1")
    check_whole_pool(line, "roc_large", 48)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_census_games(seed):
    # the census rule's seeds for games: the measurement program's start
    # decides the iterates of every general-route solve on them
    [line] = census("games", str(seed))
    check_whole_pool(line, "games", 384, seed)


def test_census_certify_small_seed_1():
    # pure, low-rank and near-diagonal states: the inputs whose validation
    # and near-zero decisions the robustness program is most sensitive to
    [line] = census("certify_small", "1")
    check_whole_pool(line, "certify_small", 840)


def test_census_data_cli_seed_1():
    # every data route: sigma's closed form, complete data, phase 1, the
    # pinned state, the joint program and inconsistent data
    [line] = census("data_cli", "1")
    check_whole_pool(line, "data_cli", 144)


# data_cli cases whose solves sit near a stall: engine or formulation variants
# that changed the data programs' arithmetic made each of these fail.  From
# seed 4's r13/d8 on, each stalls in the exact program on the null space and
# is answered by its bracket
STALL_PRONE = {
    1: ["r4/consistent/d4", "r13/consistent/d2"],
    4: ["r3/consistent/d3", "r13/consistent/d8"],
    5: ["r0/consistent/d5", "r12/consistent/d3", "r5/consistent/d2"],
    6: ["r15/consistent/d3"],
    8: ["r12/consistent/d3"],
    18: ["r3/consistent/d3"],
    26: ["r0/consistent/d4"],
    24: ["r8/consistent/d6"],
    32: ["r1/consistent/d6"],
    35: ["r1/consistent/d8"],
    102: ["r8/consistent/d5"],
    2919: ["r11/consistent/d8"],
    2934: ["r3/consistent/d8", "r12/consistent/d7"],
    2953: ["r9/consistent/d6"],
    2955: ["r3/consistent/d5"],
}
# cases that failed once and must keep passing: the first nine until phase 1
# answered from its best checked iterate (they take the pinned-state route),
# the next eight until the joint program lost its majorant vector and a
# stalled joint solve answered from its bracket, seed 44 until complete
# data were answered by roc_exact at sigma_ls, with no joint program, and
# the last thirteen until exact data were posed on the null space of one
# SVD of the rows (2911 r6/d6 and 2948 r0/d4, whose phase 1 stalls off the
# data, are answered because the joint state matches every row)
FIXED = {
    2: ["r15/consistent/d3"],
    7: ["r0/consistent/d6"],
    13: ["r12/consistent/d3"],
    15: ["r15/consistent/d3"],
    26: ["r0/consistent/d6"],
    28: ["r0/consistent/d4"],
    36: ["r3/consistent/d3"],
    103: ["r15/consistent/d3"],
    338: ["r0/consistent/d5", "r0/consistent/d4"],
    8: ["r8/consistent/d8"],
    16: ["r2/consistent/d2"],
    17: ["r4/consistent/d4"],
    27: ["r15/consistent/d3"],
    34: ["r0/consistent/d3"],
    39: ["r0/consistent/d4", "r15/consistent/d3"],
    319: ["r4/consistent/d2"],
    342: ["r12/consistent/d3"],
    44: ["r5/consistent/d2"],
    14: ["r0/consistent/d2"],
    30: ["r0/consistent/d5"],
    37: ["r14/consistent/d2"],
    101: ["r8/consistent/d2"],
    2303: ["r4/consistent/d3"],
    2536: ["r14/consistent/d2"],
    2633: ["r6/consistent/d2"],
    2635: ["r12/consistent/d3"],
    2739: ["r4/consistent/d4"],
    2911: ["r6/consistent/d6"],
    2945: ["r0/consistent/d4"],
    2948: ["r0/consistent/d4"],
    2950: ["r0/consistent/d4"],
}
# cases that fail today; a case that is fixed comes off this list
KNOWN_FAILING = {}


@pytest.mark.parametrize("seed", sorted(STALL_PRONE.keys() | FIXED.keys() | KNOWN_FAILING.keys()))
def test_data_cli_stall_set_does_not_grow(seed):
    labels = STALL_PRONE.get(seed, []) + FIXED.get(seed, []) + KNOWN_FAILING.get(seed, [])
    [line] = census("data_cli", str(seed), "--cases", ",".join(labels))
    assert line["cases"] == len(labels)
    assert line["wrong_cases"] == []
    assert set(line["failed_cases"]) <= set(KNOWN_FAILING.get(seed, []))
