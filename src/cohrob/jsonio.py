"""JSON serialization for matrices, certificates, datasets, and games.

The shared matrix format is {"dim": d, "re": [[...]], "im": [[...]]},
row-major, plain decimal doubles.  Loaders raise InputFormatError with the
file position (for syntax errors) or the offending field (for shape and type
errors).
"""
from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .games import ChannelGame, PhaseGame
from .roc import RocCertificate
from .witness import WitnessDataset


class InputFormatError(ValueError):
    """Malformed or inconsistent input file."""


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def _dim(obj, where: str) -> int:
    """The positive integer at obj["dim"]; bools are refused."""
    d = _require(obj, "dim", where)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputFormatError(f"{where}.dim must be a positive integer, got {d!r}")
    return d


def _number(val, where: str) -> float:
    """A finite JSON number as a float; bools, strings and null are refused."""
    if isinstance(val, (int, float)) and not isinstance(val, bool) \
            and abs(val) <= sys.float_info.max:
        return float(val)
    raise InputFormatError(f"{where}: not a finite number: {val!r}")


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def _bulk_rows(rows, d: int):
    """rows as a d x d float array when every row is a list of d ints and
    floats (bools excluded) and every converted entry is below the float
    maximum in magnitude; otherwise None.  The strict bound leaves an int
    just above the maximum, which numpy rounds down to it, to _number."""
    if not (isinstance(rows, list) and len(rows) == d
            and all(type(row) is list and len(row) == d for row in rows)
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        return None
    try:
        a = np.array(rows, dtype=float)
    except OverflowError:
        return None
    return a if (np.abs(a) < sys.float_info.max).all() else None


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    """The complex matrix of the shared format.  Entries are checked in bulk;
    only a matrix that fails the bulk check takes the per-entry reader,
    which names the first bad row or entry."""
    d = _dim(obj, where)
    parts = []
    for key in ("re", "im"):
        rows = _require(obj, key, where)
        part = _bulk_rows(rows, d)
        if part is None:
            if not isinstance(rows, list) or len(rows) != d:
                raise InputFormatError(f"{where}.{key}: expected {d} rows")
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != d:
                    raise InputFormatError(
                        f"{where}.{key} row {r}: expected {d} entries"
                    )
                for c, val in enumerate(row):
                    _number(val, f"{where}.{key}[{r}][{c}]")
            part = np.array(rows, dtype=float)
        parts.append(part)
    return parts[0] + 1j * parts[1]


def certificate_to_json(cert: RocCertificate) -> dict:
    return {
        "value": cert.value,
        "gap": cert.gap,
        "method": cert.method,
        "witness": matrix_to_json(cert.witness),
        "delta_star": matrix_to_json(cert.incoherent_part),
        "tau_star": matrix_to_json(cert.noise_part)
        if cert.noise_part is not None else None,
    }


def dataset_to_json(data: WitnessDataset) -> dict:
    return {
        "dim": data.dim,
        "observables": [matrix_to_json(o) for o in data.observables],
        "expectations": list(data.expectations),
    }


def dataset_from_json(obj, where: str = "dataset") -> WitnessDataset:
    d = _dim(obj, where)
    obs_raw = _require(obj, "observables", where)
    exp_raw = _require(obj, "expectations", where)
    if not isinstance(obs_raw, list) or not obs_raw:
        raise InputFormatError(f"{where}.observables: expected a nonempty list")
    if not isinstance(exp_raw, list) or len(exp_raw) != len(obs_raw):
        raise InputFormatError(
            f"{where}.expectations: expected {len(obs_raw)} entries"
        )
    obs = []
    for i, o in enumerate(obs_raw):
        mat = matrix_from_json(o, where=f"{where}.observables[{i}]")
        if mat.shape[0] != d:
            raise InputFormatError(
                f"{where}.observables[{i}]: dimension {mat.shape[0]} != {d}"
            )
        obs.append(mat)
    try:
        return WitnessDataset.build(
            obs, [_number(e, f"{where}.expectations[{i}]") for i, e in enumerate(exp_raw)]
        )
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def game_to_json(game) -> dict:
    if isinstance(game, PhaseGame):
        return {
            "dim": game.dim,
            "type": "phase",
            "entries": [{"prior": p, "phase": phi} for p, phi in game.entries],
        }
    if isinstance(game, ChannelGame):
        return {
            "dim": game.dim,
            "type": "channel",
            "entries": [
                {"prior": p, "kraus": [matrix_to_json(k) for k in kraus]}
                for p, kraus in game.entries
            ],
        }
    raise TypeError(f"not a game: {type(game)!r}")


def game_from_json(obj, where: str = "game"):
    d = _dim(obj, where)
    kind = _require(obj, "type", where)
    entries_raw = _require(obj, "entries", where)
    if not isinstance(entries_raw, list) or not entries_raw:
        raise InputFormatError(f"{where}.entries: expected a nonempty list")
    try:
        if kind == "phase":
            entries = []
            for i, e in enumerate(entries_raw):
                at = f"{where}.entries[{i}]"
                entries.append((_number(_require(e, "prior", at), f"{at}.prior"),
                                _number(_require(e, "phase", at), f"{at}.phase")))
            return PhaseGame.build(d, entries)
        if kind == "channel":
            entries = []
            for i, e in enumerate(entries_raw):
                at = f"{where}.entries[{i}]"
                prior = _number(_require(e, "prior", at), f"{at}.prior")
                kraus_raw = _require(e, "kraus", at)
                if not isinstance(kraus_raw, list) or not kraus_raw:
                    raise InputFormatError(f"{at}.kraus: expected a nonempty list")
                kraus = [matrix_from_json(k, where=f"{at}.kraus[{a}]")
                         for a, k in enumerate(kraus_raw)]
                entries.append((prior, kraus))
            return ChannelGame.build(d, entries)
    except InputFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from None
    raise InputFormatError(f"{where}.type: expected 'phase' or 'channel', got {kind!r}")


def fixture_to_json(*, oracle: str, seed, value: float, tol: float, input_obj) -> dict:
    """Frozen oracle fixture: {seed, input, value, tol, oracle}."""
    return {
        "seed": seed,
        "input": input_obj,
        "value": value,
        "tol": tol,
        "oracle": oracle,
    }
