"""Command-line surface: subcommands, output modes, and exit codes."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cohrob.cli as cli
from cohrob import sdp
from cohrob.games import CROSS_CHECK_TOL, TheoremReport, canonical_game
from cohrob.jsonio import dataset_to_json, game_to_json, matrix_to_json
from cohrob.linalg import l1_coherence, maximally_coherent_state, random_state
from cohrob.sdp import SolverError
from cohrob.witness import WitnessDataset

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def max4_state(tmp_path):
    return write_json(tmp_path / "max4.json", matrix_to_json(maximally_coherent_state(4)))


@pytest.fixture
def diag_state(tmp_path):
    return write_json(tmp_path / "diag3.json", matrix_to_json(np.diag([0.5, 0.3, 0.2])))


# -- roc ---------------------------------------------------------------------------


def test_roc_human_output_six_decimals(capsys, max4_state):
    assert cli.main(["roc", max4_state]) == 0
    out = capsys.readouterr().out
    assert "value 3.000000" in out
    assert "method sdp" in out


def test_roc_json_full_precision(capsys, max4_state):
    assert cli.main(["roc", "--json", max4_state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 3.0) < 1e-6
    assert payload["gap"] <= 1e-7


def test_roc_certificate_payload(capsys, max4_state):
    assert cli.main(["roc", "--certificate", "--json", max4_state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"value", "gap", "method", "witness", "delta_star", "tau_star"}
    assert payload["tau_star"] is not None


def test_roc_fast_path_only_accepts_alignable(capsys, max4_state):
    assert cli.main(["roc", "--fast-path-only", max4_state]) == 0
    assert "method fast_path" in capsys.readouterr().out


def test_roc_fast_path_only_rejects_misaligned(tmp_path, capsys):
    rho = np.array(
        [[0.4, 0.1, 0.1j], [0.1, 0.3, 0.1], [-0.1j, 0.1, 0.3]]
    )
    state = write_json(tmp_path / "gap.json", matrix_to_json(rho))
    assert cli.main(["roc", "--fast-path-only", state]) == 1
    assert "not alignable" in capsys.readouterr().err


def test_roc_output_byte_stable(capsys, max4_state):
    cli.main(["roc", "--json", max4_state])
    first = capsys.readouterr().out
    cli.main(["roc", "--json", max4_state])
    assert capsys.readouterr().out == first


def test_roc_solver_failure_exit_code(monkeypatch, capsys, max4_state):
    def boom(rho, tol):
        raise SolverError("newton system became singular")

    monkeypatch.setattr(cli, "roc_exact", boom)
    assert cli.main(["roc", max4_state]) == 2
    assert "singular" in capsys.readouterr().err


def test_linalg_error_is_a_solver_failure_not_bad_input(monkeypatch, capsys, max4_state):
    # LinAlgError subclasses ValueError, which exits 1 as bad input
    def boom(rho, tol):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "roc_exact", boom)
    assert cli.main(["roc", max4_state]) == 2
    assert "solver failure: Eigenvalues did not converge" in capsys.readouterr().err


OVERFLOW_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                                "thin_slack_overflow_d2.json")


def test_min_roc_overflow_exit_two(monkeypatch, capsys):
    # every solve stops at its start point; sigma shows that the data are
    # consistent, and the joint solve's bracket is open there, so exit 2
    real_solve = sdp.solve

    def stalled(problem, **options):
        return real_solve(problem, **{**options, "max_iter": 0})

    monkeypatch.setattr(sdp, "solve", stalled)
    assert cli.main(["min-roc-from-data", OVERFLOW_FIXTURE, "--slack", "1e-7"]) == 2
    assert "solver failure: solve ended with status max_iter" in capsys.readouterr().err


def test_min_roc_stalled_joint_solve_with_wide_bracket_exit_two(tmp_path, joint_solve_stopped,
                                                                capsys):
    # the joint solve (the one solve without a start point) stops after one
    # iteration, where its bracket is far from closed
    data = WitnessDataset.from_state(random_state(3, seed=4), [
        np.diag([1.0, -1.0, 0.0]),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ])
    path = write_json(tmp_path / "ds.json", dataset_to_json(data))
    assert cli.main(["min-roc-from-data", path]) == 2
    assert "solver failure: solve ended with status max_iter" in capsys.readouterr().err


def test_min_roc_overflow_is_answered(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["min-roc-from-data", OVERFLOW_FIXTURE, "--slack", "1e-7"]) == 0
    assert capsys.readouterr().out == "min_roc 0.406050\n"


# -- malformed input ------------------------------------------------------------------


def test_missing_file_exit_one(capsys, tmp_path):
    assert cli.main(["roc", str(tmp_path / "absent.json")]) == 1
    assert "file not found" in capsys.readouterr().err


def test_broken_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "re": oops\n}')
    assert cli.main(["roc", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:" in err


@pytest.mark.parametrize("argv", [
    ["roc"],
    ["roc", "{state}", "--bogus"],
    ["roc", "{state}", "--tol", "abc"],
    ["bounds", "{state}", "--tol", "1e-8"],
    ["bounds", "{state}", "--json"],
])
def test_malformed_command_line_exit_one(capsys, max4_state, argv):
    # argparse's own exit code 2 would read as a solver failure
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(state=max4_state) for a in argv])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["roc", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_non_state_matrix_exit_one(tmp_path, capsys):
    state = write_json(tmp_path / "traceless.json", matrix_to_json(np.eye(2)))
    assert cli.main(["roc", state]) == 1
    assert "not a density matrix" in capsys.readouterr().err


# -- bounds ------------------------------------------------------------------------------


def test_bounds_json(capsys, max4_state):
    assert cli.main(["bounds", max4_state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["upper"] - 3.0) < 1e-12
    assert abs(payload["lower_dim"] - 1.0) < 1e-12


# -- witness-bound -----------------------------------------------------------------------


def test_witness_bound_valid(tmp_path, capsys):
    state = write_json(tmp_path / "plus.json", matrix_to_json(maximally_coherent_state(2)))
    witness = write_json(
        tmp_path / "w.json",
        matrix_to_json(np.eye(2) - 2.0 * maximally_coherent_state(2)),
    )
    assert cli.main(["witness-bound", state, witness]) == 0
    assert "bound 1.000000" in capsys.readouterr().out


def test_witness_bound_invalid_witness_exit_three(tmp_path, capsys):
    state = write_json(tmp_path / "plus.json", matrix_to_json(maximally_coherent_state(2)))
    witness = write_json(tmp_path / "w.json", matrix_to_json(2.0 * np.eye(2)))
    assert cli.main(["witness-bound", state, witness]) == 3
    assert capsys.readouterr().err == (
        "invalid witness: smallest diagonal 2.000e+00, eigenvalue excess 1.000e+00\n")


def test_witness_bound_dimension_mismatch_exit_one(tmp_path, capsys, diag_state):
    witness = write_json(tmp_path / "w2.json", matrix_to_json(np.zeros((2, 2))))
    assert cli.main(["witness-bound", diag_state, witness]) == 1
    assert capsys.readouterr().err == "dimension mismatch: state 3 vs witness 2\n"


# -- data programs --------------------------------------------------------------------------


def test_witness_from_data(tmp_path, capsys):
    data = WitnessDataset.build([PAULI_X], [1.0])
    path = write_json(tmp_path / "ds.json", dataset_to_json(data))
    assert cli.main(["witness-from-data", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["bound"] - 1.0) < 1e-6
    assert set(payload) == {"bound", "coefficients", "offset"}


def test_witness_from_data_contradictory_rows_exit_four(tmp_path, capsys):
    # diag(1, 3) = 2*1 - Z, so no Hermitian matrix matches both expectations
    data = WitnessDataset.build([PAULI_Z, np.diag([1.0, 3.0])], [0.2, 1.7])
    path = write_json(tmp_path / "contradictory.json", dataset_to_json(data))
    assert cli.main(["witness-from-data", path]) == 4
    fit_err = capsys.readouterr().err
    assert cli.main(["min-roc-from-data", path]) == 4
    assert fit_err == capsys.readouterr().err == (
        "no state matches the expectations: smallest achievable worst-case "
        "deviation is 5.000e-02\n")


def test_min_roc_from_data_and_slack(tmp_path, capsys):
    data = WitnessDataset.build([PAULI_X], [1.0])
    path = write_json(tmp_path / "ds.json", dataset_to_json(data))
    assert cli.main(["min-roc-from-data", "--json", path]) == 0
    tight = json.loads(capsys.readouterr().out)
    assert abs(tight["min_roc"] - 1.0) < 1e-6
    assert cli.main(["min-roc-from-data", "--json", "--slack", "2.0", path]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["min_roc"] == 0.0


def test_min_roc_answers_an_observable_listed_twice(tmp_path, capsys):
    rho = random_state(3, seed=11)
    obs = [np.diag([1.0, -1.0, 0.0]), np.ones((3, 3))]
    data = WitnessDataset.from_state(rho, [obs[0], obs[1], obs[0]])
    twin = WitnessDataset.from_state(rho, obs)
    outputs = []
    for name, ds in (("twice.json", data), ("twin.json", twin)):
        path = write_json(tmp_path / name, dataset_to_json(ds))
        assert cli.main(["min-roc-from-data", "--json", path]) == 0
        outputs.append(json.loads(capsys.readouterr().out)["min_roc"])
    assert outputs[0] == outputs[1]


def test_min_roc_answers_nearly_dependent_complete_qubit_data(tmp_path, capsys):
    # X, Z and X + eps Y: the X rows' components along the least singular
    # direction, about eps / sqrt 2, lie far above witness.DROP_TOL, so no
    # direction is dropped.  The rows span the qubit Hermitian matrices, so
    # roc_exact answers at sigma, and a qubit's robustness is its l1 norm.
    # The fit poses the barely independent rows
    rho = random_state(2, seed=44)
    for eps in (2e-4, 1e-4):
        data = WitnessDataset.from_state(rho, [PAULI_X, PAULI_Z, PAULI_X + eps * PAULI_Y])
        path = write_json(tmp_path / "nearly_dependent.json", dataset_to_json(data))
        assert cli.main(["min-roc-from-data", "--json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["min_roc"] - l1_coherence(rho)) < CROSS_CHECK_TOL
        assert payload["deviation"] <= 1e-12
        if eps == 2e-4:
            assert cli.main(["witness-from-data", "--json", path]) == 0
            bound = json.loads(capsys.readouterr().out)["bound"]
            assert abs(bound - l1_coherence(rho)) < CROSS_CHECK_TOL


def test_min_roc_inconsistent_data_exit_four(tmp_path, capsys):
    data = {"dim": 2, "observables": [matrix_to_json(PAULI_X)], "expectations": [2.0]}
    path = write_json(tmp_path / "bad.json", data)
    assert cli.main(["min-roc-from-data", path]) == 4
    assert "no state matches" in capsys.readouterr().err


def test_min_roc_non_finite_slack_exit_one(tmp_path, capsys):
    data = WitnessDataset.build([PAULI_X], [0.5])
    path = write_json(tmp_path / "ds.json", dataset_to_json(data))
    assert cli.main(["min-roc-from-data", "--slack", "nan", path]) == 1
    assert "slack" in capsys.readouterr().err


# -- game ------------------------------------------------------------------------------------


def test_game_payload(tmp_path, capsys):
    game_path = write_json(tmp_path / "game.json", game_to_json(canonical_game(2)))
    state = write_json(tmp_path / "plus.json", matrix_to_json(maximally_coherent_state(2)))
    assert cli.main(["game", "--json", game_path, state]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"p_succ", "baseline", "ratio"}
    assert abs(payload["p_succ"] - 1.0) < 1e-6
    assert abs(payload["baseline"] - 0.5) < 1e-12
    assert abs(payload["ratio"] - 2.0) < 1e-5


def test_game_dimension_mismatch(tmp_path, capsys, diag_state):
    game_path = write_json(tmp_path / "game.json", game_to_json(canonical_game(2)))
    assert cli.main(["game", game_path, diag_state]) == 1
    assert capsys.readouterr().err == "dimension mismatch: game 2 vs state 3\n"


# -- verify-teo --------------------------------------------------------------------------------


def test_verify_teo_diagonal_state(capsys, diag_state):
    assert cli.main(
        ["verify-teo", "--json", "--phase-samples", "2", "--channel-samples", "1",
         diag_state]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["canonical_ratio"] - 1.0) < 1e-6
    assert payload["equality_ok"] is True
    assert payload["bounds_ok"] is True


def test_verify_teo_mismatch_exit_five(monkeypatch, capsys, diag_state):
    failing = TheoremReport(
        roc=0.0,
        canonical_ratio=1.5,
        equality_gap=0.5,
        equality_ok=False,
        phase_ratios=(1.0,),
        channel_ratios=(),
        bounds_ok=True,
    )
    monkeypatch.setattr(
        cli, "verify_operational_theorem", lambda *a, **k: failing
    )
    assert cli.main(["verify-teo", diag_state]) == 5
    assert "mismatch" in capsys.readouterr().err


# -- sweep-qubit --------------------------------------------------------------------------------


def test_sweep_qubit_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-qubit", "--steps", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r1,r2,r3,roc,l1"
    rows = {tuple(round(float(v), 6) for v in line.split(",")[:3]): line
            for line in lines[1:]}
    target = rows[(0.6, 0.0, 0.2)]
    fields = [float(v) for v in target.split(",")]
    assert abs(fields[3] - 0.6) < 1e-9  # 2|rho01| at r=(0.6, 0, 0.2)
    assert abs(fields[4] - 0.6) < 1e-9
    # every row obeys the closed form
    for key, line in rows.items():
        r1, r2, _, roc, _ = (float(v) for v in line.split(","))
        assert abs(roc - np.hypot(r1, r2)) < 1e-9


def test_sweep_qubit_stdout_and_bad_steps(capsys):
    assert cli.main(["sweep-qubit", "--steps", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r1,r2,r3,roc,l1\n")
    assert cli.main(["sweep-qubit", "--steps", "1", "--out", "-"]) == 1


# -- audit ---------------------------------------------------------------------------------------


def test_audit_small_run_passes(capsys):
    assert cli.main(["audit", "--dim", "2", "--samples", "2", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["dim"] == 2
    assert all(chk["passed"] for chk in payload["checks"])


def test_audit_reports_an_invalid_witness_as_a_failed_check(capsys, monkeypatch):
    import cohrob.audit

    monkeypatch.setattr(cohrob.audit, "population_gap_witness", lambda rho: 2.0 * np.eye(2))
    assert cli.main(["audit", "--dim", "2", "--samples", "2", "--seed", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failed = [chk["name"] for chk in payload["checks"] if not chk["passed"]]
    assert payload["passed"] is False and failed == ["population_gap_witness"]


# -- tolerance flag -------------------------------------------------------------------------------


def test_tol_flag_accepts_below_floor(capsys, max4_state):
    # values under the documented floor are floored, not rejected
    assert cli.main(["roc", "--tol", "1e-14", max4_state]) == 0
    assert "value 3.000000" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "1e300", "0", "-1e-8"])
def test_tol_flag_rejects_non_finite_and_out_of_range(capsys, tmp_path, tol):
    # at tol >= 1 the solver would stop at its start point: value 5.0 here,
    # against a true 0.7207
    state = write_json(tmp_path / "s.json", matrix_to_json(random_state(3, seed=4)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["roc", state, "--tol", tol])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "--tol" in capsys.readouterr().err


def test_verify_teo_passes_tol_to_the_solves(capsys, tmp_path):
    state = write_json(tmp_path / "s.json", matrix_to_json(random_state(3, seed=4)))
    argv = ["verify-teo", state, "--json", "--phase-samples", "0", "--channel-samples", "0"]
    assert cli.main(argv + ["--tol", "1e-10"]) == 0
    tight = json.loads(capsys.readouterr().out)["equality_gap"]
    assert tight < 1e-9
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["equality_gap"] > tight


def _env_with_src():
    """The environment with this checkout's src first on PYTHONPATH, for a subprocess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# -- one parser per process ------------------------------------------------------------------------


@pytest.fixture
def fresh_parser(monkeypatch):
    """main as in a new process: no parser yet; counts build_parser calls."""
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    return calls


def test_main_builds_its_parser_once(fresh_parser, capsys, max4_state):
    for argv in (["bounds", max4_state], ["roc", max4_state, "--json"], ["bounds", max4_state]):
        assert cli.main(argv) == 0
    assert len(fresh_parser) == 1


def test_no_default_leaks_between_calls(fresh_parser, tmp_path, capsys):
    data = WitnessDataset.build([PAULI_X], [1.0])
    path = write_json(tmp_path / "ds.json", dataset_to_json(data))
    assert cli.main(["min-roc-from-data", path, "--slack", "0.01", "--json"]) == 0
    slack = capsys.readouterr().out
    assert cli.main(["min-roc-from-data", path, "--json"]) == 0
    after = capsys.readouterr().out
    cli._PARSER = None  # the second call made alone
    assert cli.main(["min-roc-from-data", path, "--json"]) == 0
    alone = capsys.readouterr().out
    assert after == alone != slack


def test_malformed_command_line_after_a_good_call_exits_one(fresh_parser, capsys, max4_state):
    assert cli.main(["roc", max4_state]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["roc", max4_state, "--bogus"])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_import_builds_no_parser():
    code = "import cohrob.cli as cli; assert cli._PARSER is None"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_env_with_src(), check=False)
    assert run.returncode == 0, run.stderr


# -- module entry point ---------------------------------------------------------------------------


def test_python_dash_m_matches_main(capsys, max4_state):
    run = subprocess.run(
        [sys.executable, "-m", "cohrob", "roc", max4_state, "--json"],
        capture_output=True, text=True, env=_env_with_src(), check=False,
    )
    assert run.returncode == 0, run.stderr
    assert cli.main(["roc", max4_state, "--json"]) == 0
    assert run.stdout == capsys.readouterr().out
