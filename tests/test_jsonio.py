"""JSON wire formats: roundtrips and line-precise error reporting."""
import json
import sys
from dataclasses import asdict

import numpy as np
import pytest

import cohrob.cli as cli
from cohrob.games import ChannelGame, PhaseGame, canonical_game, random_channel_game
from cohrob.jsonio import (
    InputFormatError,
    certificate_to_json,
    dataset_from_json,
    dataset_to_json,
    fixture_to_json,
    game_from_json,
    game_to_json,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
)
from cohrob.linalg import maximally_coherent_state, random_state
from cohrob.roc import roc_bounds, roc_exact
from cohrob.witness import WitnessDataset

# -- files -------------------------------------------------------------------------


def test_load_json_file_missing(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(InputFormatError, match="file not found"):
        load_json_file(str(path))


def test_load_json_file_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "re": [[1,]]\n}')
    with pytest.raises(InputFormatError, match=rf"{path}:2:\d+:"):
        load_json_file(str(path))


def test_load_json_file_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    obj = matrix_to_json(random_state(3, seed=1))
    path.write_text(json.dumps(obj))
    again = load_json_file(str(path))
    assert np.max(np.abs(matrix_from_json(again) - matrix_from_json(obj))) == 0.0


# -- matrices ----------------------------------------------------------------------


def test_matrix_roundtrip_preserves_entries():
    m = random_state(4, seed=2)
    back = matrix_from_json(matrix_to_json(m))
    assert np.max(np.abs(back - m)) == 0.0


def test_matrix_errors_name_the_offending_path():
    with pytest.raises(InputFormatError, match="matrix: missing key 'dim'"):
        matrix_from_json({"re": [], "im": []})
    with pytest.raises(InputFormatError, match="dim must be a positive integer"):
        matrix_from_json({"dim": "2", "re": [], "im": []})
    with pytest.raises(InputFormatError, match=r"matrix\.re: expected 2 rows"):
        matrix_from_json({"dim": 2, "re": [[1.0, 0.0]], "im": []})
    with pytest.raises(InputFormatError, match=r"matrix\.re row 1: expected 2 entries"):
        matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": []})
    with pytest.raises(InputFormatError, match=r"matrix\.im\[0\]\[1\]: not a finite"):
        matrix_from_json(
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
             "im": [[0.0, float("inf")], [0.0, 0.0]]}
        )
    with pytest.raises(InputFormatError, match=r"state\.re"):
        matrix_from_json({"dim": 1, "re": [], "im": []}, where="state")


# entries the bulk check refuses, as json.loads reads them from a file: 1e400
# reads as inf
BAD_ENTRIES = [True, "0.5", None, float("nan"), json.loads("1e400"), 10 ** 400]


@pytest.mark.parametrize("value", BAD_ENTRIES, ids=repr)
@pytest.mark.parametrize("key, r, c", [("re", 1, 0), ("im", 0, 1)])
def test_bad_entry_is_named_with_its_path_and_repr(value, key, r, c):
    obj = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    obj[key][r][c] = value
    with pytest.raises(InputFormatError) as exc:
        matrix_from_json(obj)
    assert str(exc.value) == f"matrix.{key}[{r}][{c}]: not a finite number: {value!r}"


def test_first_fault_in_row_order_is_reported():
    # a bad number in row 0 and a short row 1: row 0's number comes first
    obj = {"dim": 2, "re": [[0.5, "x"], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(InputFormatError) as exc:
        matrix_from_json(obj)
    assert str(exc.value) == "matrix.re[0][1]: not a finite number: 'x'"
    obj["re"][0][1] = 0.0
    with pytest.raises(InputFormatError) as exc:
        matrix_from_json(obj)
    assert str(exc.value) == "matrix.re row 1: expected 2 entries"


def test_entries_at_the_float_maximum():
    # numpy rounds an int just above the maximum down to it; the reader
    # refuses that int and keeps the float maximum itself
    big = sys.float_info.max
    obj = {"dim": 1, "re": [[int(big) + 1]], "im": [[0]]}
    with pytest.raises(InputFormatError, match=r"matrix\.re\[0\]\[0\]: not a finite"):
        matrix_from_json(obj)
    obj["re"] = [[-big]]
    assert matrix_from_json(obj)[0, 0] == -big


def test_mixed_ints_and_floats_read_bit_for_bit():
    re = [[1, 0.25, 2 ** 53 + 1], [-3, 10 ** 300, 1e-300], [0, -0.0, 7]]
    im = [[0, 1.5, -2], [5e-324, 0.1, 3], [2 ** 64, -1, 0.0]]
    got = matrix_from_json({"dim": 3, "re": re, "im": im})
    want = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- result serializers ------------------------------------------------------------


def test_certificate_serialization_keys_and_null_noise():
    coherent = certificate_to_json(roc_exact(maximally_coherent_state(2)))
    assert set(coherent) == {"value", "gap", "method", "witness", "delta_star", "tau_star"}
    assert coherent["tau_star"] is not None
    assert abs(coherent["value"] - 1.0) < 1e-7
    diagonal = certificate_to_json(roc_exact(np.diag([0.4, 0.6])))
    assert diagonal["tau_star"] is None
    assert diagonal["value"] == 0.0
    # witness travels as a matrix object
    w = matrix_from_json(coherent["witness"])
    assert w.shape == (2, 2)


def test_bounds_serialization(tmp_path, capsys):
    rho = random_state(3, seed=3)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(matrix_to_json(rho)), encoding="utf-8")
    assert cli.main(["bounds", str(path)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert list(plain) == [
        "upper",
        "lower_dim",
        "lower_gap_over_peak_population",
        "lower_gap_over_population_norm",
        "lower_gap",
    ]
    assert all(type(v) is float for v in plain.values())
    assert plain == asdict(roc_bounds(rho))


# -- datasets ----------------------------------------------------------------------


def test_dataset_roundtrip():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    data = WitnessDataset.from_state(random_state(2, seed=4), [x, np.diag([1.0, -1.0])])
    back = dataset_from_json(dataset_to_json(data))
    assert back.dim == data.dim
    assert all(
        np.max(np.abs(a - b)) == 0.0
        for a, b in zip(back.observables, data.observables)
    )
    assert back.expectations == data.expectations


def test_dataset_errors():
    with pytest.raises(InputFormatError, match="missing key 'observables'"):
        dataset_from_json({"dim": 2, "expectations": []})
    with pytest.raises(InputFormatError, match=r"expectations: expected 1 entries"):
        dataset_from_json(
            {"dim": 2, "observables": [matrix_to_json(np.eye(2))], "expectations": []}
        )
    with pytest.raises(InputFormatError, match=r"observables\[0\]: dimension 2 != 3"):
        dataset_from_json(
            {"dim": 3, "observables": [matrix_to_json(np.eye(2))], "expectations": [1.0]}
        )


# -- games -------------------------------------------------------------------------


def test_phase_game_roundtrip():
    game = canonical_game(3)
    back = game_from_json(game_to_json(game))
    assert isinstance(back, PhaseGame)
    assert back.dim == 3
    assert np.max(np.abs(back.priors - game.priors)) == 0.0
    assert all(
        abs(a[1] - b[1]) < 1e-15 for a, b in zip(back.entries, game.entries)
    )


def test_channel_game_roundtrip():
    game = random_channel_game(2, outcomes=2, kraus_count=2, seed=6)
    back = game_from_json(game_to_json(game))
    assert isinstance(back, ChannelGame)
    assert back.dim == game.dim
    for (pa, ka), (pb, kb) in zip(back.entries, game.entries):
        assert pa == pb
        assert all(np.max(np.abs(x - y)) == 0.0 for x, y in zip(ka, kb))


def test_game_errors():
    with pytest.raises(InputFormatError, match="expected 'phase' or 'channel'"):
        game_from_json({"dim": 2, "type": "unitary", "entries": [{}]})
    with pytest.raises(InputFormatError, match=r"entries\[0\]: missing key 'phase'"):
        game_from_json({"dim": 2, "type": "phase", "entries": [{"prior": 1.0}]})
    with pytest.raises(InputFormatError, match="phases .* coincide"):
        game_from_json(
            {
                "dim": 2,
                "type": "phase",
                "entries": [{"prior": 0.5, "phase": 0.0}, {"prior": 0.5, "phase": 0.0}],
            }
        )
    with pytest.raises(InputFormatError, match=r"kraus: expected a nonempty list"):
        game_from_json(
            {"dim": 2, "type": "channel", "entries": [{"prior": 1.0, "kraus": []}]}
        )


# -- one reader per kind of field ---------------------------------------------------

QUBIT = matrix_to_json(np.eye(2) / 2)
PHASE_ENTRY = {"prior": 1.0, "phase": 0.0}
DATASET = {"dim": 2, "observables": [matrix_to_json(np.eye(2))], "expectations": [1.0]}


@pytest.mark.parametrize("command, obj, field, message", [
    ("game", {"dim": 2.7, "type": "phase", "entries": [PHASE_ENTRY]},
     ".dim", "must be a positive integer, got 2.7"),
    ("game", {"dim": 2, "type": "phase", "entries": [{"prior": True, "phase": "0"}]},
     ".entries[0].prior", "not a finite number: True"),
    ("game", {"dim": 2, "type": "phase", "entries": [{"prior": 1.0, "phase": "0"}]},
     ".entries[0].phase", "not a finite number: '0'"),
    ("min-roc-from-data", dict(DATASET, expectations=["0.5"]),
     ".expectations[0]", "not a finite number: '0.5'"),
    ("min-roc-from-data", dict(DATASET, dim="2"),
     ".dim", "must be a positive integer, got '2'"),
    ("roc", dict(QUBIT, dim=True), ".dim", "must be a positive integer, got True"),
])
def test_malformed_field_exits_one_with_its_path(tmp_path, capsys, command, obj, field,
                                                 message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(QUBIT))
    argv = [command, str(path)] + ([str(state)] if command == "game" else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}{field}" in err and message in err


def test_number_reader_refuses_integers_beyond_the_float_range():
    with pytest.raises(InputFormatError, match=r"expectations\[0\]: not a finite number"):
        dataset_from_json(dict(DATASET, expectations=[10 ** 400]))


# -- fixtures ----------------------------------------------------------------------


def test_fixture_record_shape():
    record = fixture_to_json(
        oracle="grid", seed=7, value=1.25, tol=1e-6, input_obj={"k": 1}
    )
    assert record == {
        "seed": 7,
        "input": {"k": 1},
        "value": 1.25,
        "tol": 1e-6,
        "oracle": "grid",
    }
