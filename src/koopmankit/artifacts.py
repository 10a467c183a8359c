"""The file formats of every artifact: CSV tables and JSON documents.

A table is RFC 4180 CSV with ``\\r\\n`` line ends and every number written as
``"%.17g"``, which reads back to the same float. It goes out in one pass: one
line format, filled 1,024 rows at a time by one ``%`` and one write. A
trajectory table's time column is named for its kind, ``t`` for a flow and
``step`` for a map. Models, sparse fits and eigenfunctions share one JSON form
of an observable library; only a saved model is read back, by :func:`load_model`.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from .dynamics import CONTINUOUS, DISCRETE, Trajectory
from .lifting import KoopmanModel, ObservableLibrary, _as_observable
from .polynomials import Polynomial

_NUMBER = "%.17g"
_NUMBER_CELL = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)", re.A | re.I)
_BLOCK_ROWS = 1024  # rows per write: a table's text and cells are never all held at once
_TIME_COLUMNS = {CONTINUOUS: ("t", "a flow"), DISCRETE: ("step", "a map")}


def _fmt(value):
    """A number as text that reads back to the same float."""
    return _NUMBER % float(value)


def _write_csv(path, header, rows):
    """Write ``rows``, a 2-D array-like of numbers, under ``header``, a block of rows per write."""
    table = np.asarray(rows, dtype=float)
    line = ",".join([_NUMBER] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in (table[i:i + _BLOCK_ROWS] for i in range(0, len(table), _BLOCK_ROWS)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _time_column(time_kind):
    """The name of a trajectory table's time column: ``t`` for a flow, ``step`` for a map."""
    if time_kind not in _TIME_COLUMNS:
        raise ValueError(f"time_kind must be '{CONTINUOUS}' or '{DISCRETE}'")
    return _TIME_COLUMNS[time_kind][0]


def write_trajectory(traj: Trajectory, path, time_kind):
    """Write a trajectory as CSV with header t (a flow) or step (a map), x1..xn[, u or u1..uq]."""
    _write_csv(path, *_trajectory_table(traj, time_kind))


def _trajectory_table(traj, time_kind, state_names=None):
    """The header and rows of a trajectory CSV; ``state_names`` replaces x1..xn."""
    names = list(state_names) if state_names else [f"x{i + 1}" for i in range(traj.dim)]
    if len(names) != traj.dim:
        raise ValueError("state_names length mismatch")
    header = [_time_column(time_kind)] + names
    columns = [traj.times, traj.states]
    if traj.inputs is not None:
        q = traj.inputs.shape[1]
        header += ["u"] if q == 1 else [f"u{i + 1}" for i in range(q)]
        columns.append(traj.inputs)
    return header, np.column_stack(columns)


def _numeric_row(path, line, row):
    """A CSV row's cells as floats, each ASCII decimal as ``_fmt`` writes it, or inf, infinity or nan;
    any other cell (a space, ``_``, a non-ASCII digit) is named by line and column."""
    for column, cell in enumerate(row, start=1):
        if not _NUMBER_CELL.fullmatch(cell):
            raise ValueError(f"{path}: line {line}, column {column}: not a number: {cell!r}")
    return [float(cell) for cell in row]


def read_trajectory(path, time_kind):
    """Read a trajectory CSV that :func:`write_trajectory` wrote for ``time_kind``.

    A time column of the other kind (a flow's ``t``, a map's ``step``) raises
    ``ValueError`` naming the file and the column. The input names ``u`` and
    ``u<k>`` mark the input columns; every other column is a state.
    """
    name = _time_column(time_kind)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [_numeric_row(path, reader.line_num, row) for row in reader if row]
    for column, kind in _TIME_COLUMNS.values():
        if header[:1] == [column] != [name]:
            raise ValueError(f"{path}: time column {column!r} is {kind}'s, not "
                             f"{_TIME_COLUMNS[time_kind][1]}'s {name!r}")
    if header[:1] != [name]:
        raise ValueError(f"{path}: expected header starting with {name!r}")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    columns = data[:, 1:]
    is_input = np.array([re.fullmatch(r"u\d*", h) is not None for h in header[1:]], dtype=bool)
    inputs = columns[:, is_input] if is_input.any() else None
    return Trajectory(times=data[:, 0], states=columns[:, ~is_input], inputs=inputs)


def _observable_to_json(obs):
    if obs.is_monomial():
        return list(obs.exponents())
    return {"terms": [[c, list(e)] for e, c in sorted(obs.terms.items())]}


def _observable_from_json(entry, dim):
    """An exponent list, or {"terms": [[coefficient, exponents], ...]}; anything else raises."""
    refusal = ValueError(f"observable {entry!r} is not a polynomial")
    try:
        if isinstance(entry, dict):
            terms = entry["terms"]
            if not all(isinstance(term, list) and len(term) == 2 for term in terms):
                raise refusal
            return Polynomial.from_terms(dim, terms)
        return _as_observable(entry, dim)
    except (KeyError, TypeError):
        raise refusal from None


def _json_fields(data, *keys):
    """The values of ``keys`` in a JSON object; a non-object or a missing key raises."""
    missing = [key for key in keys if key not in data] if isinstance(data, dict) else keys
    if missing:
        raise ValueError(f"expected a JSON object with {', '.join(map(repr, missing))}")
    return [data[key] for key in keys]


def _library_to_json(library: ObservableLibrary) -> dict:
    return {
        "dim": library.dim,
        "state_inclusive": library.state_inclusive,
        "observables": [_observable_to_json(o) for o in library.observables],
    }


def _library_from_json(data: dict) -> ObservableLibrary:
    dim, declared, entries = _json_fields(data, "dim", "state_inclusive", "observables")
    if not (type(dim) is int and dim >= 1):  # a JSON true is no dimension
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(entries, list):
        raise ValueError(f"observables must be a list, got {type(entries).__name__}")
    library = ObservableLibrary(dim, tuple(_observable_from_json(o, dim) for o in entries))
    if declared is not library.state_inclusive:
        raise ValueError(f"state_inclusive is {declared!r}, but the observables make it "
                         f"{library.state_inclusive}")
    return library


def _model_to_json(model: KoopmanModel) -> dict:
    return {
        "time_kind": model.time_kind,
        **_library_to_json(model.library),
        "K": [[float(v) for v in row] for row in model.K],
        "state_rows": list(model.state_rows),
    }


def _model_from_json(data: dict) -> KoopmanModel:
    time_kind, k = _json_fields(data, "time_kind", "K")
    try:
        k = np.asarray(k, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"K must be a matrix of numbers, got {k!r}") from None
    model = KoopmanModel(_library_from_json(data), k, time_kind)
    rows = data.get("state_rows")
    if rows != list(model.state_rows):
        raise ValueError(f"state_rows {rows} are not the library's first {model.state_dim} rows")
    return model


def save_model(model: KoopmanModel, path):
    _write_json(path, _model_to_json(model))


def load_model(path) -> KoopmanModel:
    with open(path) as fh:
        return _model_from_json(json.load(fh))


def _sparse_to_json(model) -> dict:
    names = model.library.names
    rows = []
    for i, row in enumerate(model.coefficients):
        terms = [{"observable": names[j], "coeff": float(c)}
                 for j, c in enumerate(row) if c != 0.0]
        rows.append({"target": f"x{i + 1}", "terms": terms})
    return {
        "library": _library_to_json(model.library),
        "threshold": float(model.threshold),
        "time_kind": model.time_kind,
        "rows": rows,
    }


def save_sparse(model, path):
    """Write a :class:`~koopmankit.identification.SparseModel` as JSON."""
    _write_json(path, _sparse_to_json(model))


def eigenfunction_to_json(fn) -> dict:
    """A :class:`~koopmankit.spectral.Eigenfunction` as a JSON-ready dict."""
    return {
        "eigenvalue": [fn.eigenvalue.real, fn.eigenvalue.imag],
        "coeffs": [[c.real, c.imag] for c in fn.coeffs],
        "time_kind": fn.time_kind,
        "library": _library_to_json(fn.library),
    }
