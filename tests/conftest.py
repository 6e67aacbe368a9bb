"""Shared test plumbing: fixture loading, solve recording, hypothesis profile."""
import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from cohrob import sdp

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


_CRITERIA: dict[str, str] = {}


def pytest_runtest_logreport(report):
    """Collect outcomes of the acceptance criteria for the end-of-run summary."""
    if report.when != "call":
        return
    if "test_acceptance" in report.nodeid and "criterion" in report.nodeid:
        _CRITERIA[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    if not _CRITERIA:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for nodeid in sorted(_CRITERIA):
        name = nodeid.split("::")[-1]
        word = "PASS" if _CRITERIA[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {word}  {name}")


@pytest.fixture(scope="session")
def load_fixture():
    """Return a loader for frozen-value JSON files under tests/fixtures."""

    def _load(name: str):
        with open(os.path.join(FIXTURES, name)) as fh:
            return json.load(fh)

    return _load


@pytest.fixture
def recorded_solves(monkeypatch):
    """Every sdp.solve call the test makes, as (keyword arguments, solution) in
    order; the arguments read as attributes, e.g. options.tol."""
    solves = []
    real_solve = sdp.solve

    def recorded(problem, **options):
        sol = real_solve(problem, **options)
        solves.append((SimpleNamespace(**options), sol))
        return sol

    monkeypatch.setattr(sdp, "solve", recorded)
    return solves


@pytest.fixture
def joint_solve_stopped(monkeypatch):
    """Cut min_roc_from_data's joint solve to one iteration.  Phase 1 and the
    near-zero refine start from a given point; the joint solve alone does not."""
    real_solve = sdp.solve

    def stopped(problem, **options):
        if options.get("start") is None:
            options = {**options, "max_iter": 1}
        return real_solve(problem, **options)

    monkeypatch.setattr(sdp, "solve", stopped)
