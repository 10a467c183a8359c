"""Tests for the artifact formats: the one-pass CSV writer and the time column of a trajectory."""

import csv
import io
import re
import sys

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DISCRETE,
    Trajectory,
    builtin,
    iterate,
    read_trajectory,
    write_trajectory,
)
from koopmankit.artifacts import _write_csv


def _reference_csv(header, rows):
    """The table as ``csv.writer`` writes it with every cell as ``format(float(x), ".17g")``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    return out.getvalue().encode()


def test_one_pass_writer_matches_csv_writer_with_17_significant_digits(tmp_path):
    tiny, huge = 5e-324, sys.float_info.max
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, huge, -huge, 1.0 / 3.0, 2.0 ** 53 + 2]
    rng = np.random.default_rng(31)
    # mantissas in (-10, 10) times 10^k for k from -323 (subnormal) to 307
    randoms = rng.uniform(-10.0, 10.0, 3000) * 10.0 ** rng.integers(-323, 308, 3000).astype(float)
    header = ["a", "b", "c"]  # 3,000 rows: the writer's blocks of 1,024 and a partial one
    rows = np.column_stack([randoms, rng.permutation(randoms), np.resize(edges, randoms.size)])
    path = tmp_path / "table.csv"
    _write_csv(path, header, rows)
    raw = path.read_bytes()
    assert raw == _reference_csv(header, rows)
    assert raw.startswith(b"a,b,c\r\n")
    assert raw.count(b"\r\n") == raw.count(b"\n") == len(rows) + 1


def test_one_pass_writer_writes_whole_number_cells_as_the_csv_writer_did(tmp_path):
    ranks = [(2, 0.25), (4, 0.5), (12, 1.75)]  # (rank, horizon) rows of a horizons table
    steps = np.column_stack([np.arange(31), np.linspace(0.0, 1.0, 31)])
    for header, rows in ((["rank", "horizon"], ranks), (["step", "x"], steps),
                         (["rank", "steps"], [(3, 7), (16, 36)]), (["t", "x"], [])):
        path = tmp_path / "whole.csv"
        _write_csv(path, header, rows)
        assert path.read_bytes() == _reference_csv(header, rows)


def test_a_trajectory_names_its_time_column_by_its_kind(tmp_path):
    traj = iterate(builtin("tu_map"), [1.0, 2.0], 5)
    for kind, column in ((DISCRETE, b"step"), (CONTINUOUS, b"t")):
        path = tmp_path / f"{kind}.csv"
        write_trajectory(traj, path, kind)
        assert path.read_bytes().startswith(column + b",x1,x2\r\n")
        again = read_trajectory(path, kind)
        assert again.times.tobytes() == traj.times.tobytes()
        assert again.states.tobytes() == traj.states.tobytes()


def test_read_trajectory_refuses_the_other_kinds_time_column(tmp_path):
    traj = Trajectory(times=np.arange(4.0), states=np.ones((4, 2)))
    map_csv, flow_csv = tmp_path / "map.csv", tmp_path / "flow.csv"
    write_trajectory(traj, map_csv, DISCRETE)
    write_trajectory(traj, flow_csv, CONTINUOUS)
    refusals = ((map_csv, CONTINUOUS, "time column 'step' is a map's, not a flow's 't'"),
                (flow_csv, DISCRETE, "time column 't' is a flow's, not a map's 'step'"))
    for path, kind, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_trajectory(path, kind)
    with pytest.raises(ValueError, match="time_kind must be 'continuous' or 'discrete'"):
        read_trajectory(flow_csv, "hybrid")


def test_read_trajectory_reads_back_every_number_the_writer_writes(tmp_path):
    """Every cell spelling of ``%.17g`` reads back to its bits: signed zeros, subnormals, the
    largest floats, inf, -inf and nan, and random values over the whole exponent range."""
    rng = np.random.default_rng(47)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, sys.float_info.max, 1e-5, 1e16]
    values = rng.uniform(-10.0, 10.0, 600) * 10.0 ** rng.integers(-323, 308, 600).astype(float)
    states = np.column_stack([values, np.resize(edges, values.size)])
    traj = Trajectory(times=np.arange(values.size) * 0.01, states=states, inputs=states[:, :1] * 3)
    path = tmp_path / "edges.csv"
    write_trajectory(traj, path, CONTINUOUS)
    again = read_trajectory(path, CONTINUOUS)
    for got, want in ((again.times, traj.times), (again.states, traj.states), (again.inputs, traj.inputs)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cell", ["1_0", "١", " 1", "1 ", "0x10", "1e", ""])
def test_read_trajectory_refuses_a_cell_the_writer_never_writes(tmp_path, cell):
    path = tmp_path / "cell.csv"
    path.write_text(f"t,x1,x2\r\n0,1,2\r\n0.01,2,{cell}\r\n", encoding="utf-8")
    message = f"{path}: line 3, column 3: not a number: {cell!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trajectory(path, CONTINUOUS)
    for spelling in ("inf", "-Infinity", "NaN", "+1.5E-3", ".5", "7."):
        path.write_text(f"t,x1,x2\r\n0,1,{spelling}\r\n", encoding="utf-8")
        assert read_trajectory(path, CONTINUOUS).states[0, 1].tobytes() == np.float64(spelling).tobytes()
