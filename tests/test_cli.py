"""End-to-end checks of the command-line interface.

Each subcommand is invoked in-process through ``koopmankit.cli.main`` so the
tests see real exit codes, stdout, and output files without shelling out; one
final test exercises the installed ``koopmankit`` console script itself.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DISCRETE,
    PolySystem,
    Trajectory,
    __version__,
    builtin,
    integrate,
    load_model,
    read_trajectory,
    registry_names,
    write_trajectory,
)
from koopmankit.cli import main


def run_cli(args):
    """Invoke the command-line entry point in-process.

    Returns (exit_code, stdout, stderr).  Argparse-level failures raise
    SystemExit rather than returning, so both paths are normalized here.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def simulate_quad(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_quad")
    code, stdout, stderr = run_cli([
        "simulate", "--system", "quad-manifold", "--mu", "-0.05",
        "--lambda", "1", "--x0", "1.5,-1", "--out", str(out),
    ])
    assert code == 0, stderr
    return out, stdout


@pytest.fixture(scope="module")
def identify_quad(tmp_path_factory):
    out = tmp_path_factory.mktemp("id_quad")
    code, stdout, stderr = run_cli([
        "identify", "--system", "quad-manifold", "--generate", "--out", str(out),
    ])
    assert code == 0, stderr
    return out, stdout


@pytest.fixture(scope="module")
def spectral_quad(tmp_path_factory):
    out = tmp_path_factory.mktemp("spec_quad")
    code, stdout, stderr = run_cli([
        "spectral", "--system", "quad-manifold", "--mu", "-0.05",
        "--lambda", "1", "--out", str(out),
    ])
    assert code == 0, stderr
    return out, stdout


@pytest.fixture(scope="module")
def control_default(tmp_path_factory):
    out = tmp_path_factory.mktemp("ctrl")
    code, stdout, stderr = run_cli(["control", "--out", str(out)])
    assert code == 0, stderr
    return out, stdout


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_trajectory_lift_and_surface_files(simulate_quad):
    out, _ = simulate_quad
    expected = {
        "quad_manifold_trajectory.csv",
        "quad_manifold_lifted_a.csv",
        "quad_manifold_lifted_b.csv",
        "quad_manifold_lifted_c.csv",
        "quad_manifold_surface_red.csv",
        "quad_manifold_surface_blue.csv",
        "quad_manifold_surface_green.csv",
    }
    assert {p.name for p in out.iterdir()} == expected


def test_simulate_prints_slow_subspace_slope(simulate_quad):
    _, stdout = simulate_quad
    assert "slow-subspace slope: 1.1" in stdout


def test_simulate_trajectory_starts_at_requested_state(simulate_quad):
    out, _ = simulate_quad
    traj = read_trajectory(out / "quad_manifold_trajectory.csv", CONTINUOUS)
    assert traj.states[0] == pytest.approx([1.5, -1.0])
    assert traj.times[0] == 0.0


def test_simulate_lifted_tables_track_the_square_observable(simulate_quad):
    out, _ = simulate_quad
    for name in ("a", "b", "c"):
        with open(out / f"quad_manifold_lifted_{name}.csv", newline="") as fh:
            header = fh.readline().strip()
            first = fh.readline().strip().split(",")
        assert header.split(",")[0] == "t"
        y = [float(v) for v in first[1:]]
        # third lifted coordinate is the square of the first at every sample
        assert y[2] == pytest.approx(y[0] ** 2, abs=1e-12)


def test_simulate_output_is_deterministic(tmp_path, simulate_quad):
    first, _ = simulate_quad
    rerun = tmp_path / "again"
    code, _, _ = run_cli([
        "simulate", "--system", "quad-manifold", "--mu", "-0.05",
        "--lambda", "1", "--x0", "1.5,-1", "--out", str(rerun),
    ])
    assert code == 0
    for path in sorted(first.iterdir()):
        assert (rerun / path.name).read_bytes() == path.read_bytes()


def test_simulate_discrete_map_writes_single_table(tmp_path):
    code, _, _ = run_cli([
        "simulate", "--system", "tu-map", "--steps", "30",
        "--x0", "1,2", "--out", str(tmp_path),
    ])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["tu_map_trajectory.csv"]
    traj = read_trajectory(tmp_path / "tu_map_trajectory.csv", DISCRETE)
    assert traj.states.shape == (31, 2)
    assert traj.times[1] - traj.times[0] == 1.0


def test_simulate_truncation_ranks_report_growing_horizons(tmp_path):
    code, _, _ = run_cli([
        "simulate", "--system", "center-manifold", "--rank", "4,8,12",
        "--out", str(tmp_path),
    ])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"center_manifold_comparison.csv",
                     "center_manifold_horizons.csv"}
    table = np.genfromtxt(tmp_path / "center_manifold_horizons.csv",
                          delimiter=",", names=True)
    assert list(table["rank"]) == [4.0, 8.0, 12.0]
    assert np.all(np.diff(table["horizon"]) > 0)


def test_simulate_logistic_writes_divergence_table(tmp_path):
    code, _, _ = run_cli([
        "simulate", "--system", "logistic", "--r", "3.5", "--rank", "5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"logistic_trajectory.csv",
                     "logistic_divergence_rank5.csv",
                     "logistic_horizons.csv"}


def test_simulate_gnuplot_flag_adds_plot_script(tmp_path):
    code, _, _ = run_cli([
        "simulate", "--system", "quad-manifold", "--gnuplot",
        "--out", str(tmp_path),
    ])
    assert code == 0
    script = tmp_path / "quad_manifold.plt"
    assert script.exists()
    text = script.read_text()
    assert "quad_manifold_surface_blue.csv" in text
    assert "quad_manifold_lifted_a.csv" in text


def test_environment_variable_overrides_out_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("KOOPMANKIT_OUT", str(env_dir))
    code, _, _ = run_cli([
        "simulate", "--system", "tu-map", "--steps", "5",
        "--out", str(flag_dir),
    ])
    assert code == 0
    assert env_dir.is_dir()
    assert not flag_dir.exists()


def test_simulate_unknown_system_exits_with_usage_error(tmp_path):
    code, _, stderr = run_cli([
        "simulate", "--system", "no-such-system", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "no-such-system" in stderr


def test_simulate_malformed_initial_state_exits_with_usage_error(tmp_path):
    code, _, _ = run_cli([
        "simulate", "--system", "quad-manifold", "--x0", "abc",
        "--out", str(tmp_path),
    ])
    assert code == 2


def test_simulate_finite_time_blowup_exits_with_runtime_error(tmp_path):
    code, _, stderr = run_cli([
        "simulate", "--system", "center-manifold", "--x0", "0.5",
        "--horizon", "5", "--out", str(tmp_path),
    ])
    assert code == 3
    assert "norm" in stderr


@pytest.mark.parametrize("x0", ["0", "-0.5"])
def test_simulate_center_manifold_default_horizon_needs_a_positive_start(tmp_path, x0):
    code, _, stderr = run_cli([
        "simulate", "--system", "center-manifold", f"--x0={x0}", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "needs x0 > 0" in stderr
    assert "--horizon" in stderr
    # with an explicit horizon the same start runs
    code, _, stderr = run_cli([
        "simulate", "--system", "center-manifold", f"--x0={x0}", "--horizon", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0, stderr


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def test_identify_prints_recovered_equations(identify_quad):
    _, stdout = identify_quad
    assert "d/dt x1 = -0.05*x1" in stdout
    assert "max invariance residual" in stdout


def test_identify_outputs_round_trip_through_the_loaders(identify_quad):
    out, _ = identify_quad
    sparse = json.loads((out / "quad_manifold_sparse.json").read_text())
    model = load_model(out / "quad_manifold_model.json")
    # sparse fit recovers the vector field coefficients
    row2 = {term["observable"]: term["coeff"] for term in sparse["rows"][1]["terms"]}
    assert row2["x2"] == pytest.approx(-1.0, abs=1e-3)
    assert row2["x1^2"] == pytest.approx(1.0, abs=1e-3)
    # refined linear representation closes on [x1, x2, x1^2]
    assert model.library.names == ["x1", "x2", "x1^2"]
    expected = np.array([[-0.05, 0.0, 0.0],
                         [0.0, -1.0, 1.0],
                         [0.0, 0.0, -0.1]])
    assert np.max(np.abs(model.K - expected)) < 1e-4


def test_identify_report_records_refinement(identify_quad):
    out, _ = identify_quad
    with open(out / "quad_manifold_report.json") as fh:
        report = json.load(fh)
    assert report["system"] == "quad_manifold"
    assert report["refinement"]["converged"] is True
    assert report["refinement"]["library"] == ["x1", "x2", "x1^2"]
    assert report["max_invariance_residual"] < 1e-4
    assert report["max_invariance_residual"] == max(report["invariance_residuals"])


def test_identify_linear_library_cannot_close_the_flow(tmp_path):
    code, stdout, _ = run_cli([
        "identify", "--system", "quad-manifold", "--generate",
        "--degree", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "quad_manifold_report.json") as fh:
        report = json.load(fh)
    # without the square observable the fit cannot represent the x1^2 drive
    assert report["max_invariance_residual"] > 0.1


def test_identify_with_a_horizon_shorter_than_one_step_exits_with_usage_error(tmp_path):
    code, _, stderr = run_cli([
        "identify", "--system", "quad-manifold", "--generate", "--horizon", "0.001",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "t_end 0.001 takes no step of dt 0.005: round(t_end/dt) is 0" in stderr


def test_identify_on_a_header_only_csv_exits_with_usage_error(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("t,x1,x2\r\n")
    code, _, stderr = run_cli([
        "identify", "--system", "quad-manifold", "--data", str(data), "--out", str(tmp_path),
    ])
    assert code == 2
    assert "got 0" in stderr


def test_identify_names_the_data_file_at_fault(tmp_path):
    good = integrate(builtin("quad_manifold"), [1.0, 0.5], 1.0, dt=0.01)
    nan = good.states.copy()
    nan[7, 1] = np.nan
    faulty = {
        "state dimension 1 differs": Trajectory(good.times, good.states[:, :1]),
        "non-finite state at sample 7": Trajectory(good.times, nan),
        "sample step 0.02 differs": integrate(builtin("quad_manifold"), [1.0, 0.5], 1.0, dt=0.02),
    }
    write_trajectory(good, tmp_path / "good.csv", CONTINUOUS)
    for reason, traj in faulty.items():
        write_trajectory(traj, tmp_path / "bad.csv", CONTINUOUS)
        code, _, stderr = run_cli([
            "identify", "--system", "quad-manifold", "--data", str(tmp_path / "good.csv"),
            str(tmp_path / "bad.csv"), "--out", str(tmp_path),
        ])
        assert code == 2
        assert stderr.startswith(f"error: {tmp_path / 'bad.csv'}: {reason}")


def test_identify_refuses_a_flow_csv_for_a_map(tmp_path):
    # a flow's CSV is not a map's data: its time column is 't', a map's is 'step'
    assert run_cli(["simulate", "--system", "quad-manifold", "--out", str(tmp_path)])[0] == 0
    assert run_cli(["simulate", "--system", "tu-map", "--out", str(tmp_path)])[0] == 0
    flow, out = tmp_path / "quad_manifold_trajectory.csv", tmp_path / "out"
    code, stdout, stderr = run_cli(["identify", "--system", "tu-map", "--data", str(flow),
                                    "--out", str(out)])
    assert code == 2
    assert stderr == f"error: {flow}: time column 't' is a flow's, not a map's 'step'\n"
    assert stdout == "" and not any(out.iterdir())
    code, stdout, _ = run_cli(["identify", "--system", "tu-map", "--data",
                               str(tmp_path / "tu_map_trajectory.csv"), "--out", str(out)])
    assert code == 0 and "next x1 = 0.9*x1" in stdout


def test_identify_refuses_a_map_csv_for_a_flow(tmp_path):
    # a map's times 0, 1, ... are also a uniform flow grid; its 'step' column tells them apart
    assert run_cli(["simulate", "--system", "tu-map", "--out", str(tmp_path)])[0] == 0
    data, out = tmp_path / "tu_map_trajectory.csv", tmp_path / "out"
    code, stdout, stderr = run_cli(["identify", "--system", "quad-manifold", "--data", str(data),
                                    "--out", str(out)])
    assert code == 2
    assert stderr == f"error: {data}: time column 'step' is a map's, not a flow's 't'\n"
    assert stdout == "" and not any(out.iterdir())


def test_identify_refuses_data_with_a_state_count_unlike_the_systems(tmp_path):
    # six uniform samples of one state: a valid data set, but quad-manifold has two states
    data, out = tmp_path / "one.csv", tmp_path / "out"
    data.write_text("t,x1\n" + "".join(f"{k / 100:g},1\n" for k in range(6)))
    code, stdout, stderr = run_cli(["identify", "--system", "quad-manifold", "--data", str(data),
                                    "--out", str(out)])
    assert code == 2
    assert stderr == (f"error: {data}: 1 state column(s), but --system quad-manifold "
                      "has 2 states\n")
    assert stdout == "" and not any(out.iterdir())


def test_identify_refuses_a_trajectory_that_carries_inputs(tmp_path, control_default):
    # control's closed loop is f(x) + B u(x); identify fits f alone, so the u column is refused
    data, out = control_default[0] / "control_lqr.csv", tmp_path / "out"
    code, stdout, stderr = run_cli(["identify", "--system", "kooc-demo", "--data", str(data),
                                    "--out", str(out)])
    assert code == 2
    assert stderr == (f"error: {data}: 1 input column(s); identify fits an autonomous field "
                      "f(x) and reads no inputs\n")
    assert stdout == "" and not any(out.iterdir())


def test_identify_discrete_map_recovers_exact_coefficients(tmp_path):
    code, stdout, _ = run_cli([
        "identify", "--system", "tu-map", "--generate", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "next x1 = 0.9*x1" in stdout
    with open(tmp_path / "tu_map_report.json") as fh:
        report = json.load(fh)
    assert report["time_kind"] == "discrete"
    assert report["max_invariance_residual"] < 1e-12


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def test_spectral_payload_pins_the_parabola_coefficient(spectral_quad):
    out, stdout = spectral_quad
    assert "eigenvalues: 1, -0.05, -0.1" in stdout
    with open(out / "quad_manifold_spectral.json") as fh:
        payload = json.load(fh)
    assert payload["b"] == pytest.approx(1.0 / 1.1, abs=1e-12)
    by_eig = {entry["eigenfunction"]["eigenvalue"][0]: entry
              for entry in payload["eigenfunctions"]}
    slow = np.array(by_eig[1.0]["coeffs_normalized"])
    # max-normalized combination is x2 - b*x1^2
    assert slow[:, 1] == pytest.approx([0.0, 0.0, 0.0])
    assert slow[:, 0] == pytest.approx([0.0, 1.0, -1.0 / 1.1], abs=1e-12)
    for entry in payload["eigenfunctions"]:
        assert entry["residual"] < 1e-4


def test_spectral_eigenvalues_follow_the_eigenfunction_order(tmp_path):
    code, _, stderr = run_cli([
        "spectral", "--system", "quad-manifold", "--out", str(tmp_path),
    ])
    assert code == 0, stderr
    with open(tmp_path / "quad_manifold_spectral.json") as fh:
        payload = json.load(fh)
    assert len(payload["eigenvalues"]) == len(payload["eigenfunctions"]) == 3
    for value, entry in zip(payload["eigenvalues"], payload["eigenfunctions"]):
        assert value == entry["eigenfunction"]["eigenvalue"]


def test_spectral_discrete_map_skips_verification_on_the_manifold(tmp_path):
    code, stdout, _ = run_cli([
        "spectral", "--system", "tu-map", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "eigenvalues: 0.9, 0.81, 0.5" in stdout
    with open(tmp_path / "tu_map_spectral.json") as fh:
        payload = json.load(fh)
    by_eig = {entry["eigenfunction"]["eigenvalue"][0]: entry
              for entry in payload["eigenfunctions"]}
    half = np.array(by_eig[0.5]["coeffs_normalized"])
    assert half[:, 0] == pytest.approx([0.0, 1.0, -1.0], abs=1e-12)
    # the default trajectory lies on phi's zero set, so no residual is claimed
    assert by_eig[0.5]["residual"] is None


@pytest.mark.parametrize("argv, message", [
    (["--system", "quad-manifold", "--horizon", "0.03"], "need at least 5 samples to differentiate"),
    (["--system", "tu-map", "--steps", "0"], "a trajectory needs at least 2 samples, got 1"),
])
def test_spectral_refuses_a_trajectory_too_short_to_verify(tmp_path, argv, message):
    """Too few samples is a bad input, not an eigenfunction that vanishes."""
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(["spectral", *argv, "--out", str(out)])
    assert code == 2
    assert message in stderr
    assert stdout == "" and not any(out.iterdir())


def test_spectral_accepts_a_saved_model_file(tmp_path):
    model_dir = tmp_path / "model"
    code, _, _ = run_cli([
        "identify", "--system", "tu-map", "--generate", "--out", str(model_dir),
    ])
    assert code == 0
    spectral_dir = tmp_path / "spectral"
    code, stdout, _ = run_cli([
        "spectral", "--model", str(model_dir / "tu_map_model.json"),
        "--out", str(spectral_dir),
    ])
    assert code == 0
    assert "eigenvalues: 0.9, 0.81, 0.5" in stdout
    assert (spectral_dir / "tu_map_model_spectral.json").exists()


def test_spectral_named_observable_verifies_on_center_manifold(tmp_path):
    code, stdout, _ = run_cli([
        "spectral", "--system", "center-manifold",
        "--named-observable", "exp-neg-inv", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "exp_neg_inv residual" in stdout
    with open(tmp_path / "center_manifold_spectral.json") as fh:
        payload = json.load(fh)
    assert payload["named_observable"] == "exp_neg_inv"
    assert payload["named_observable_residual"] < 1e-4


_QUAD_MODEL = {"time_kind": "continuous", "dim": 2, "state_inclusive": True,
               "observables": [[1, 0], [0, 1], [2, 0]],
               "K": [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]], "state_rows": [0, 1]}


@pytest.mark.parametrize("content, message", [
    ({k: v for k, v in _QUAD_MODEL.items() if k != "K"}, "expected a JSON object with 'K'"),
    ([_QUAD_MODEL], "expected a JSON object with 'time_kind', 'K'"),
    ({**_QUAD_MODEL, "observables": [[1, 0], [0, 1], 5]}, "observable 5 is not a polynomial"),
    ({**_QUAD_MODEL, "dim": 1, "observables": [[1], "exp_neg_inv"], "K": [[-1.0, 0.0], [0.0, 1.0]],
      "state_rows": [0]}, "observable 'exp_neg_inv' is not a polynomial"),
    ({**_QUAD_MODEL, "K": {"a": 1}}, "K must be a matrix of numbers, got {'a': 1}"),
    ({**_QUAD_MODEL, "observables": [[1, 0], [0, 1], {"terms": [[1.0]]}]},
     "observable {'terms': [[1.0]]} is not a polynomial"),
    ({**_QUAD_MODEL, "observables": [[1, 0], [0, 1], [1.5, 0]]},
     "exponent tuple (1.5, 0) holds an exponent that is not a whole number"),
])
def test_a_malformed_model_file_exits_2_naming_what_is_wrong(tmp_path, content, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(content))
    code, stdout, stderr = run_cli(["spectral", "--model", str(path), "--out", str(tmp_path / "out")])
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "quad-manifold", "--rank", "3"],
    ["simulate", "--system", "tu-map", "--rank", "2"],
    ["spectral", "--system", "quad-manifold", "--rank", "7"],
    ["spectral", "--model", "{model}", "--rank", "3"],
])
def test_rank_is_refused_where_the_lift_takes_none(tmp_path, identify_quad, argv):
    model = str(identify_quad[0] / "quad_manifold_model.json")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli([a.replace("{model}", model) for a in argv]
                                   + ["--out", str(out)])
    assert code == 2
    assert "--rank" in stderr and "center-manifold" in stderr and "logistic" in stderr
    assert stdout == ""
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["spectral", "--system", "logistic", "--rank", "4,8"], "--rank takes one positive integer"),
    (["spectral", "--system", "logistic", "--rank", "0"], "--rank needs positive integers"),
    (["simulate", "--system", "logistic", "--rank", "2,0"], "--rank needs positive integers"),
    (["simulate", "--system", "logistic", "--rank", "abc"], "invalid literal"),
])
def test_a_bad_rank_is_refused_before_anything_is_written(tmp_path, argv, message):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli([*argv, "--out", str(out)])
    assert code == 2
    assert message in stderr
    assert stdout == "" and not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--system", "quad-manifold", "--steps", "5"], "--steps does not apply"),
    (["simulate", "--system", "tu-map", "--horizon", "5", "--dt", "7"], "--horizon does not apply"),
    (["simulate", "--system", "tu-map", "--dt", "7"], "--dt does not apply"),
])
def test_simulate_refuses_a_flag_its_system_does_not_read(tmp_path, argv, message):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli([*argv, "--out", str(out)])
    assert code == 2
    assert message in stderr
    assert stdout == "" and not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--system", "logistic", "--generate", "--horizon", "5"],
     "--horizon does not apply to --system logistic, a map: it takes --steps"),
    (["--system", "quad-manifold", "--generate", "--steps", "7"],
     "--steps does not apply to --system quad-manifold, a flow: it takes --horizon and --dt"),
    (["--system", "quad-manifold", "--data", "unread.csv", "--generate", "--horizon", "99",
      "--steps", "3"], "--generate does not apply to --data"),
    (["--system", "quad-manifold", "--data", "unread.csv", "--horizon", "0"],
     "--horizon does not apply to --data"),
    (["--system", "tu-map", "--data", "unread.csv", "--steps", "0"],
     "--steps does not apply to --data"),
    (["--system", "logistic", "--generate", "--dt", "0.1"],
     "--dt does not apply to --system logistic, a map: it takes --steps"),
    (["--system", "quad-manifold", "--data", "unread.csv", "--dt", "0.3"],
     "--dt does not apply to --data, which reads trajectories and simulates nothing"),
    (["--system", "quad-manifold", "--data", "unread.csv", "--mu", "0.3"],
     "--mu does not apply to --data, which reads trajectories and simulates nothing"),
])
def test_identify_refuses_a_flag_its_system_or_data_does_not_read(tmp_path, argv, message):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(["identify", *argv, "--out", str(out)])
    assert code == 2
    assert stderr.startswith(f"error: {message}") and stderr.count("\n") == 1
    assert stdout == "" and not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--mu", "--lambda", "--angle", "--r", "--x0", "--horizon",
                                  "--dt", "--steps"])
def test_spectral_refuses_a_system_flag_with_a_saved_model(tmp_path, identify_quad, flag):
    model = str(identify_quad[0] / "quad_manifold_model.json")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(["spectral", "--model", model, f"{flag}=1", "--out", str(out)])
    assert code == 2
    assert f"error: {flag} does not apply to --model" in stderr
    assert stdout == "" and not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--system", "logistic", "--horizon", "5"],
     "--horizon does not apply to --system logistic, a map: it takes --steps"),
    (["--system", "logistic", "--dt", "0.5"],
     "--dt does not apply to --system logistic, a map: it takes --steps"),
    (["--system", "quad-manifold", "--steps", "5"],
     "--steps does not apply to --system quad-manifold, a flow: it takes --horizon and --dt"),
])
def test_spectral_refuses_a_flag_its_system_does_not_read(tmp_path, argv, message):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(["spectral", *argv, "--out", str(out)])
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert stdout == "" and not any(out.iterdir())


class _ClosedPipe(io.StringIO):
    """A stdout on descriptor ``fd`` whose reader has gone: every write raises."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_is_not_reported_as_a_bad_input(tmp_path):
    stderr = io.StringIO()
    with open(tmp_path / "stdout", "wb") as sink:
        with contextlib.redirect_stdout(_ClosedPipe(sink.fileno())), \
                contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--system", "tu-map", "--steps", "3",
                         "--out", str(tmp_path / "out")])
        os.write(sink.fileno(), b"after")  # the descriptor now leads to devnull
    assert code == 1
    assert stderr.getvalue() == ""
    assert (tmp_path / "out" / "tu_map_trajectory.csv").exists()
    assert (tmp_path / "stdout").read_bytes() == b""


def test_spectral_requires_exactly_one_source(tmp_path):
    code, _, stderr = run_cli(["spectral", "--out", str(tmp_path)])
    assert code == 2
    assert "--system or --model" in stderr
    code, _, _ = run_cli([
        "spectral", "--system", "tu-map", "--model", "whatever.json",
        "--out", str(tmp_path),
    ])
    assert code == 2


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def test_control_writes_costs_and_gain_files(control_default):
    out, _ = control_default
    names = {p.name for p in out.iterdir()}
    assert names == {"control_lqr.csv", "control_kooc.csv",
                     "control_costs.csv", "control_gains.json"}


def test_control_gains_match_the_riccati_anchors(control_default):
    out, _ = control_default
    with open(out / "control_gains.json") as fh:
        payload = json.load(fh)
    assert payload["lqr_gain"] == pytest.approx([0.0, 1.0 + np.sqrt(2.0)],
                                                abs=1e-9)
    assert payload["kooc_gain"] == pytest.approx(
        [0.0, 2.4142135623730945, -1.4955973723971812], abs=1e-9)
    assert payload["ratio"] == pytest.approx(0.2208, abs=2e-3)
    assert 0.25 <= payload["ratio_script"] <= 0.40
    assert payload["final_cost_kooc"] < payload["final_cost_lqr"]


def test_control_prints_both_cost_ratios(control_default):
    _, stdout = control_default
    assert "cost ratio (applied inputs):" in stdout
    assert "cost ratio (gain-substituted integrand):" in stdout


def test_control_cost_series_are_monotone(control_default):
    out, _ = control_default
    table = np.genfromtxt(out / "control_costs.csv", delimiter=",", names=True)
    for column in table.dtype.names[1:]:
        assert np.all(np.diff(table[column]) >= 0.0)


def test_control_zero_state_cost_skips_the_simulation(tmp_path):
    code, stdout, _ = run_cli(["control", "--q", "0", "--out", str(tmp_path)])
    assert code == 0
    assert "zero state cost" in stdout
    assert [p.name for p in tmp_path.iterdir()] == ["control_gains.json"]
    with open(tmp_path / "control_gains.json") as fh:
        payload = json.load(fh)
    assert payload["lqr_gain"] == [0.0, 0.0]
    assert payload["kooc_gain"] == [0.0, 0.0, 0.0]


def test_control_unstabilizable_pair_exits_with_synthesis_error(tmp_path):
    # the lifted x1^2 mode of the limitation system, with and without a state
    # cost, and the LQR design's x1 at mu > 0
    for argv, texts in ((["--system", "limitation"], ("0.2", "x1^2")),
                        (["--system", "limitation", "--q", "0"], ("0.2", "x1^2")),
                        (["--mu", "0.1"], ("unstabilizable unstable modes: 0.1 (on x1)",))):
        code, _, stderr = run_cli(["control", *argv, "--out", str(tmp_path)])
        assert code == 4, argv
        for text in texts:
            assert text in stderr, argv
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_help_lists_the_registry_systems():
    code, stdout, _ = run_cli(["--help"])
    assert code == 0
    for name in ("quad_manifold", "tu_map", "center_manifold", "logistic"):
        assert name in stdout


def test_version_prints_the_package_version():
    code, stdout, _ = run_cli(["--version"])
    assert code == 0
    assert stdout == f"koopmankit {__version__}\n"


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--system", "--mu", "--lambda", "--angle", "--r", "--x0", "--horizon", "--dt",
                  "--steps", "--rank", "--gnuplot", "--out"]),
    ("identify", ["--system", "--mu", "--lambda", "--angle", "--r", "--generate", "--data",
                  "--degree", "--threshold", "--horizon", "--dt", "--steps", "--out"]),
    ("spectral", ["--system", "--model", "--mu", "--lambda", "--angle", "--r", "--rank",
                  "--named-observable", "--x0", "--horizon", "--dt", "--steps", "--out"]),
    ("control", ["--system", "--mu", "--lambda", "--angle", "--q", "--r", "--x0", "--horizon",
                 "--dt", "--gnuplot", "--out"]),
])
def test_each_subcommand_help_lists_its_flags(command, flags):
    code, stdout, _ = run_cli([command, "--help"])
    assert code == 0
    assert re.findall(r"^  (-[-\w]+)", stdout, re.MULTILINE) == ["-h", *flags]
    assert "quad_manifold" in stdout  # the registry epilog


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("command", ["simulate", "spectral"])
def test_every_registry_system_runs_with_its_defaults(tmp_path, command, name):
    code, _, stderr = run_cli([command, "--system", name, "--out", str(tmp_path)])
    assert code == 0, stderr


@pytest.mark.parametrize("argv", [["spectral", "--system", "quad-manifold"],
                                  ["simulate", "--system", "center-manifold", "--rank", "4,8,12,16"],
                                  ["spectral", "--system", "rotated-quad"]])
def test_a_run_builds_its_registry_system_once_and_lifts_that_system(tmp_path, monkeypatch, argv):
    built, post_init = [], PolySystem.__post_init__

    def counted(self):
        built.append(self.equations)
        post_init(self)

    monkeypatch.setattr(PolySystem, "__post_init__", counted)
    code, _, stderr = run_cli([*argv, "--out", str(tmp_path)])
    assert code == 0, stderr
    assert len(built) == 1


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("koopmankit")
    assert exe is not None
    proc = subprocess.run(
        [exe, "spectral", "--system", "tu-map", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "eigenvalues: 0.9, 0.81, 0.5" in proc.stdout


@pytest.mark.parametrize("system", ["quad-manifold", "tu-map"])
def test_simulate_rejects_a_non_finite_start_as_bad_input(tmp_path, system):
    code, _, stderr = run_cli(["simulate", "--system", system, "--x0", "nan,0",
                               "--out", str(tmp_path)])
    assert code == 2
    assert "x0 contains non-finite entries" in stderr


def test_center_manifold_comparison_with_a_zero_step_exits_with_usage_error(tmp_path):
    code, _, stderr = run_cli(["simulate", "--system", "center-manifold", "--rank", "2",
                               "--dt", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "t_end and dt must be positive" in stderr


@pytest.mark.parametrize("argv", [
    ["control", "--horizon", "0.004"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--horizon", "0.004"],
    ["simulate", "--system", "quad-manifold", "--horizon", "0.004"],
])
def test_a_horizon_that_takes_no_step_is_refused_before_anything_is_written(tmp_path, argv):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli([*argv, "--out", str(out)])
    assert code == 2
    assert "t_end 0.004 takes no step of dt 0.01: round(t_end/dt) is 0" in stderr
    assert stdout == "" and not any(out.iterdir())


def test_a_lift_that_overflows_exits_with_runtime_error_and_no_warning(tmp_path):
    """The rank-16 Carleman lift of the logistic map from 0.5 overflows at step 36."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(["simulate", "--system", "logistic", "--rank", "16",
                                        "--steps", "60", "--out", str(tmp_path)])
    assert code == 3
    assert stderr == "error: state norm inf exceeded 1.0e+08 at t=36; trajectory is diverging\n"
    assert stdout == ""
    assert not any(tmp_path.iterdir())


def test_a_failing_simulate_writes_none_of_the_tables_it_computed_first(tmp_path):
    """The trajectory and the rank-2 series are done before rank 16 overflows."""
    code, stdout, stderr = run_cli(["simulate", "--system", "logistic", "--rank", "2,16",
                                    "--steps", "60", "--out", str(tmp_path)])
    assert code == 3
    assert "at t=36" in stderr
    assert stdout == "" and not any(tmp_path.iterdir())


def test_infinite_horizon_exits_with_usage_error(tmp_path):
    # the second horizon is finite, but its step count t_end/dt overflows to inf;
    # the rest take 10^15 steps or more, grids numpy cannot allocate (a MemoryError at
    # 10^15, numpy's ValueError on a size it cannot address at 10^300 and 10^30)
    for argv, text in ((["simulate", "--system", "quad-manifold", "--horizon", "inf"], "finite"),
                       (["simulate", "--system", "quad-manifold", "--horizon", "1e300", "--dt", "1e-300"],
                        "finite"),
                       (["simulate", "--system", "quad-manifold", "--horizon", "1e15", "--dt", "1"],
                        "1000000000000000 steps"),
                       (["simulate", "--system", "tu-map", "--steps", "1000000000000000"],
                        "1000000000000000 steps"),
                       (["simulate", "--system", "quad-manifold", "--horizon", "1e300", "--dt", "1"],
                        "steps take more samples than numpy can allocate"),
                       (["simulate", "--system", "tu-map", "--steps", str(10**30)],
                        f"{10**30} steps take more samples than numpy can allocate"),
                       (["control", "--dt", "1e-320", "--horizon", "1e-300"],
                        "steps take more samples than numpy can allocate")):
        code, _, stderr = run_cli([*argv, "--out", str(tmp_path)])
        assert code == 2, argv
        assert text in stderr, argv
        assert not any(tmp_path.iterdir()), argv


def test_no_numpy_warning_reaches_stderr(tmp_path):
    # a state norm that overflows the float range; Q = q*I at q = inf; a sign
    # iterate that overflows at q = 1e308; and G = B R^-1 B' that overflows
    for argv, code, text in (
            (["simulate", "--system", "logistic", "--r", "1e200", "--x0=2", "--steps", "3"], 3,
             "error: state norm inf exceeded 1.0e+08 at t=1"),
            (["simulate", "--system", "quad-manifold", "--x0=1e300,1"], 3,
             "error: state norm inf exceeded 1.0e+08 at t=0"),
            (["control", "--q", "inf"], 2, "error: q has non-finite entries"),
            (["control", "--q", "1e308"], 3, "error: matrix sign iteration overflowed at step 0"),
            (["control", "--r", "1e-320"], 3,
             "error: G = B R^-1 B' is not finite: R is too close to singular")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli([*argv, "--out", str(tmp_path)])
        assert result[0] == code, (argv, result)
        assert text in result[2], argv


def test_a_riccati_backward_error_that_overflows_is_named_and_warns_nothing(tmp_path):
    # r = 1e-300 overflows P G P in the KOOC design's residual, so no scaling measures it
    for argv in (["--r", "1e-300"],):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli(["control", *argv, "--out", str(tmp_path)])
        assert caught == [], argv
        assert code == 3, argv
        assert stderr.startswith("error: Riccati backward error overflowed (residual "), argv
        assert stderr.endswith("): Q or R is too far from unit scale for it to be measured\n")
        assert stderr.count("\n") == 1 and stdout == "", argv


@pytest.mark.parametrize("argv, text", [
    # |G||P|^2 overflows the scale; measured on the norms' logs, the KOOC design's backward
    # error is 0.5, which the 1e-8 gate refuses
    (["--r", "1e-160"], "error: Riccati relative backward error 5.000e-01 exceeds 1e-08 "
                        "(residual 7.887e+75, |P| = 1.256e-42)\n"),
    # |P| ~ 5e155 overflows its norm; measured, both designs pass, and RK4 at dt = 0.01
    # cannot follow a loop whose gain is ~3e77
    (["--q", "1e155"], "error: state norm inf exceeded 1.0e+08 at t=0.01; trajectory is diverging\n"),
], ids=["r_1e-160", "q_1e155"])
def test_a_riccati_design_whose_norms_overflow_is_measured_and_warns_nothing(tmp_path, argv, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_cli(["control", *argv, "--out", str(tmp_path)])
    assert caught == [] and (code, stdout, stderr) == (3, "", text)


@pytest.mark.parametrize("command", ["simulate", "spectral"])
def test_a_non_finite_angle_is_refused_by_name_and_warns_nothing(tmp_path, command):
    for angle in ("inf", "nan"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli([command, "--system", "rotated-quad", "--angle", angle,
                                            "--out", str(tmp_path)])
        assert caught == [] and (code, stdout) == (2, ""), angle
        assert stderr.endswith(f"error: angle must be finite, got {angle}\n"), angle


def test_identify_on_an_empty_csv_exits_with_usage_error(tmp_path):
    data = tmp_path / "blank.csv"
    data.write_text("")
    code, _, stderr = run_cli([
        "identify", "--system", "quad-manifold", "--data", str(data), "--out", str(tmp_path),
    ])
    assert code == 2
    assert "blank.csv" in stderr


def test_identify_names_the_csv_file_with_a_bad_cell(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("t,x1,x2\n0,1,2\n0.01,1,2\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1,x2\n0,1,2\n0.01,abc,2\n")
    code, _, stderr = run_cli([
        "identify", "--system", "quad-manifold", "--data", str(good), str(bad),
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "bad.csv" in stderr and "line 3" in stderr and "abc" in stderr


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, expected in ((["--help"], 0),
                           (["simulate", "--system", "no-such-system", "--out", str(tmp_path)], 2)):
        proc = subprocess.run([sys.executable, "-m", "koopmankit", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == expected, (argv, proc.stderr)
    assert "no-such-system" in proc.stderr
