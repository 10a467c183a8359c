"""Run a fixed matrix of ``koopmankit`` CLI invocations and record what each did.

Usage::

    python3 tools/cli_matrix.py TREE OUTPUT.json

TREE is a checkout of this repository; its ``src/`` is imported, so the
matrix can be run against any two trees (say a change and its parent) and the
two OUTPUT files compared with ``diff``. Each invocation runs in-process
through ``koopmankit.cli.main`` in a fresh directory. For each one the JSON
records the exit code (or the type name of an exception that escapes
``main``), stdout and stderr (with the run and input directories masked as
``<run>`` and ``<in>``), and the SHA-256 of every file the run wrote. Input
files (CSV data, a saved model) are made first, by the tree itself; their
hashes are recorded under ``"inputs"``. The hashes rest on libm, numpy and
the BLAS kernels, so the record names the Python and numpy versions, numpy's
BLAS build and the SIMD extensions numpy dispatches to, under ``"config"``.

``tools/cli_matrix.json`` is the record of this tree, and
``tests/test_cli_matrix.py`` compares a fresh run with it. A change that moves
an artifact re-records it with ``python3 tools/cli_matrix.py . tools/cli_matrix.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

SYSTEMS = ("center-manifold", "discrete-manifold", "kooc-demo", "limitation", "logistic",
           "quad-manifold", "quartic-manifold", "rotated-quad", "tu-map")

# Files written before the matrix runs: name -> text. More inputs come from the
# tree's own CLI (see INPUT_RUNS).
INPUT_FILES = {
    "header_only.csv": "t,x1,x2\n",
    "empty.csv": "",
    "good.csv": "t,x1,x2\n0,1,2\n0.01,1,2\n",
    "bad_cell.csv": "t,x1,x2\n0,1,2\n0.01,abc,2\n",
    "one_state.csv": "t,x1\n0,1\n0.01,1\n",
    "one_state_six_rows.csv": "t,x1\n0,1\n0.01,1\n0.02,1\n0.03,1\n0.04,1\n0.05,1\n",
    # two trajectories sampled every 0.005 and every 0.005 * (1 + 8e-7)
    **{name: "t,x1,x2\n" + "".join(f"{k * step!r},{k},{k * k}\n" for k in range(6))
       for name, step in (("step_005.csv", 0.005), ("step_005_wider.csv", 0.005 * (1 + 8e-7)))},
    # the quad-manifold lift with its state rows listed out of order
    "swapped_rows.json": ('{"time_kind": "continuous", "dim": 2, "state_inclusive": true, '
                          '"observables": [[1, 0], [0, 1], [2, 0]], '
                          '"K": [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]], '
                          '"state_rows": [1, 0]}\n'),
    # malformed model files: no "K", a JSON list, an observable that is a number,
    # and one that names exp(-1/x), which is not a polynomial
    "no_k.json": ('{"time_kind": "continuous", "dim": 2, "state_inclusive": true, '
                  '"observables": [[1, 0], [0, 1], [2, 0]], "state_rows": [0, 1]}\n'),
    "list.json": ('[{"time_kind": "continuous", "dim": 2, "state_inclusive": true, '
                  '"observables": [[1, 0], [0, 1], [2, 0]], '
                  '"K": [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]], '
                  '"state_rows": [0, 1]}]\n'),
    "int_observable.json": ('{"time_kind": "continuous", "dim": 2, "state_inclusive": true, '
                            '"observables": [[1, 0], [0, 1], 5], '
                            '"K": [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]], '
                            '"state_rows": [0, 1]}\n'),
    "named_observable.json": ('{"time_kind": "continuous", "dim": 1, "state_inclusive": true, '
                              '"observables": [[1], "exp_neg_inv"], '
                              '"K": [[-1.0, 0.0], [0.0, 1.0]], "state_rows": [0]}\n'),
}
INPUT_RUNS = (
    ("sim", ["simulate", "--system", "quad-manifold"]),
    ("id", ["identify", "--system", "quad-manifold", "--generate"]),
    ("sim_map", ["simulate", "--system", "tu-map"]),
    ("ctl", ["control"]),
)

# Each entry: argv, with "{in}" for the input directory. "--out <run>/out" is
# appended unless the entry is an (argv, env) pair; env values are paths in <run>.
MATRIX = [
    *(["simulate", "--system", name] for name in SYSTEMS),
    *(["simulate", "--system", name, "--gnuplot"] for name in SYSTEMS),
    *(["spectral", "--system", name] for name in SYSTEMS),
    *(["identify", "--system", name, "--generate"] for name in SYSTEMS),
    # ranks
    ["simulate", "--system", "center-manifold", "--rank", "2,4,6"],
    ["simulate", "--system", "center-manifold", "--rank", "3", "--gnuplot"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--x0=0.25", "--horizon", "3"],
    ["simulate", "--system", "logistic", "--rank", "2,4"],
    ["simulate", "--system", "logistic", "--rank", "3", "--steps", "20", "--gnuplot"],
    ["simulate", "--system", "logistic", "--r", "3.9", "--steps", "25"],
    ["spectral", "--system", "center-manifold", "--rank", "6"],
    ["spectral", "--system", "logistic", "--rank", "3"],
    ["spectral", "--system", "center-manifold", "--named-observable", "exp-neg-inv"],
    # steps, dt, horizon, parameters, start
    ["simulate", "--system", "quad-manifold", "--dt", "0.05", "--horizon", "3"],
    ["simulate", "--system", "quad-manifold", "--mu", "-0.1", "--lambda", "-2", "--x0", "1,-1"],
    ["simulate", "--system", "rotated-quad", "--angle", "0.3", "--gnuplot"],
    ["simulate", "--system", "center-manifold", "--x0=0.25"],
    ["simulate", "--system", "center-manifold", "--x0=-0.5", "--horizon", "1"],
    ["simulate", "--system", "tu-map", "--steps", "10", "--x0=0.5,2"],
    ["spectral", "--system", "quad-manifold", "--horizon", "2", "--dt", "0.02"],
    ["spectral", "--system", "tu-map", "--steps", "12", "--lambda", "0.8"],
    ["spectral", "--model", "{in}/id/quad_manifold_model.json"],
    ["identify", "--system", "quad-manifold", "--generate", "--dt", "0.01", "--horizon", "5"],
    ["identify", "--system", "tu-map", "--generate", "--steps", "20"],
    ["identify", "--system", "quad-manifold", "--generate", "--degree", "2", "--threshold", "0.05"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/sim/quad_manifold_trajectory.csv"],
    (["simulate", "--system", "tu-map", "--steps", "5", "--out", "ignored"],
     {"KOOPMANKIT_OUT": "env"}),
    # control
    ["control"],
    ["control", "--gnuplot"],
    ["control", "--q", "0"],
    ["control", "--q", "2", "--r", "0.5", "--x0=-3,3", "--horizon", "10", "--dt", "0.02"],
    (["--version"], {}),
    # error paths
    ([], {}),
    ["simulate"],
    ["simulate", "--system", "no-such-system"],
    ["simulate", "--system", "quad-manifold", "--x0", "1,2,3"],
    ["simulate", "--system", "quad-manifold", "--x0", "abc"],
    ["simulate", "--system", "quad-manifold", "--x0", "nan,0"],
    ["simulate", "--system", "quad-manifold", "--horizon", "inf"],
    ["simulate", "--system", "quad-manifold", "--mu", "abc"],
    ["simulate", "--system", "quad-manifold", "--r", "3"],
    ["simulate", "--system", "tu-map", "--steps", "2.5"],
    ["simulate", "--system", "tu-map", "--steps", "-1"],
    ["simulate", "--system", "center-manifold", "--x0=0"],
    ["simulate", "--system", "center-manifold", "--x0", "0.5", "--horizon", "5"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--x0=2", "--horizon", "0.6"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--x0=-1"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--dt", "0"],
    ["simulate", "--system", "center-manifold", "--rank", "2,x"],
    ["simulate", "--system", "logistic", "--rank", "0"],
    ["simulate", "--system", "logistic", "--rank", "abc"],
    ["identify", "--system", "quad-manifold"],
    ["identify", "--system", "quad-manifold", "--generate", "--horizon", "0.001"],
    ["identify", "--system", "quad-manifold", "--generate", "--degree", "1"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/header_only.csv"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/empty.csv"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/good.csv", "{in}/bad_cell.csv"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/good.csv", "{in}/one_state.csv"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/missing.csv"],
    ["spectral"],
    ["spectral", "--system", "tu-map", "--model", "whatever.json"],
    ["spectral", "--model", "{in}/missing.json"],
    ["spectral", "--system", "quad-manifold", "--named-observable", "exp-neg-inv"],
    ["control", "--system", "quad-manifold"],
    ["control", "--system", "limitation"],
    ["control", "--r", "0"],
    ["control", "--x0=1"],
    # --rank on a system whose lift has no rank, and a list where one rank is taken
    ["simulate", "--system", "quad-manifold", "--rank", "3"],
    ["simulate", "--system", "tu-map", "--rank", "2"],
    ["spectral", "--system", "quad-manifold", "--rank", "7"],
    ["spectral", "--system", "logistic", "--rank", "4,8"],
    ["spectral", "--system", "logistic", "--rank", "0"],
    ["spectral", "--system", "logistic", "--rank", "abc"],
    ["spectral", "--model", "{in}/id/quad_manifold_model.json", "--rank", "3"],
    # system flags with a saved model
    ["spectral", "--model", "{in}/id/quad_manifold_model.json", "--mu", "0.3"],
    ["spectral", "--model", "{in}/id/quad_manifold_model.json", "--steps", "5"],
    # trajectories too short to verify an eigenfunction along
    ["spectral", "--system", "quad-manifold", "--horizon", "0.03"],
    ["spectral", "--system", "tu-map", "--steps", "0"],
    # horizons that take no step, a lift that overflows, and a quartic flow
    # whose first step passes the blow-up limit
    ["control", "--horizon", "0.004"],
    ["simulate", "--system", "center-manifold", "--rank", "2", "--horizon", "0.004"],
    ["simulate", "--system", "quad-manifold", "--horizon", "0.004"],
    ["simulate", "--system", "logistic", "--rank", "16", "--steps", "60"],
    ["simulate", "--system", "logistic", "--rank", "2,16", "--steps", "60"],
    ["simulate", "--system", "quartic-manifold", "--x0=1e7,0"],
    # a saved model whose state rows are not the library's first n rows
    ["spectral", "--model", "{in}/swapped_rows.json"],
    # a map whose fourth step passes the blow-up limit, and a finite horizon
    # whose step count round(t_end/dt) overflows
    ["simulate", "--system", "logistic", "--r", "5", "--x0=2", "--steps", "40"],
    ["simulate", "--system", "quad-manifold", "--horizon", "1e300", "--dt", "1e-300"],
    # a NaN threshold; sample grids numpy cannot allocate (10^15 samples, 8 PB);
    # a map whose state norm overflows, and a state cost of inf
    ["identify", "--system", "quad-manifold", "--generate", "--threshold", "nan"],
    ["simulate", "--system", "quad-manifold", "--horizon", "1e15", "--dt", "1"],
    ["simulate", "--system", "tu-map", "--steps", "1000000000000000"],
    # grids whose size numpy cannot address, refused with its ValueError, not MemoryError
    ["simulate", "--system", "quad-manifold", "--horizon", "1e300", "--dt", "1"],
    ["simulate", "--system", "tu-map", "--steps", "1000000000000000000000000000000"],
    ["control", "--dt", "1e-320", "--horizon", "1e-300"],
    ["simulate", "--system", "logistic", "--r", "1e200", "--x0=2", "--steps", "3"],
    ["control", "--q", "inf"],
    # a linearization with an unstabilizable unstable mode; a state cost whose
    # sign iterate overflows; an input weight whose inverse overflows
    ["control", "--mu", "0.1"],
    ["control", "--q", "1e308"],
    ["control", "--r", "1e-320"],
    # malformed model files; a threshold that leaves no term for either target;
    # the exp(-1/x) check on the acceptance trajectory
    ["spectral", "--model", "{in}/no_k.json"],
    ["spectral", "--model", "{in}/list.json"],
    ["spectral", "--model", "{in}/int_observable.json"],
    ["spectral", "--model", "{in}/named_observable.json"],
    ["identify", "--system", "quad-manifold", "--generate", "--threshold", "10"],
    ["spectral", "--system", "center-manifold", "--named-observable", "exp-neg-inv",
     "--x0=0.25", "--dt", "0.002"],
    # identify flags that the system or the data would leave unread
    ["identify", "--system", "logistic", "--generate", "--horizon", "5"],
    ["identify", "--system", "quad-manifold", "--generate", "--steps", "7"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/sim/quad_manifold_trajectory.csv",
     "--generate", "--horizon", "99", "--steps", "3"],
    # more flags a run would leave unread: a map's --dt, a simulation flag or a
    # system parameter with --data, and the other time kind's flags in spectral
    ["identify", "--system", "logistic", "--generate", "--dt", "0.1"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/sim/quad_manifold_trajectory.csv",
     "--dt", "0.3"],
    ["identify", "--system", "quad-manifold", "--data", "{in}/sim/quad_manifold_trajectory.csv",
     "--mu", "0.3"],
    ["spectral", "--system", "logistic", "--horizon", "5"],
    ["spectral", "--system", "logistic", "--dt", "0.5"],
    ["spectral", "--system", "quad-manifold", "--steps", "5"],
    # no state cost on a lift with an unstabilizable mode
    ["control", "--system", "limitation", "--q", "0"],
    # a flow's CSV, sampled every 0.01, given as a map's data
    ["identify", "--system", "tu-map", "--data", "{in}/sim/quad_manifold_trajectory.csv"],
    # a map's CSV, its time column 'step', given as a flow's data and as a map's
    ["identify", "--system", "quad-manifold", "--data", "{in}/sim_map/tu_map_trajectory.csv"],
    ["identify", "--system", "tu-map", "--data", "{in}/sim_map/tu_map_trajectory.csv"],
    # one state column for a system of two, and a closed loop's CSV with its input column u
    ["identify", "--system", "quad-manifold", "--data", "{in}/one_state_six_rows.csv"],
    ["identify", "--system", "kooc-demo", "--data", "{in}/ctl/control_lqr.csv"],
    # Carleman lifts at non-dyadic r, where r^n does not round as the composed powers do
    ["spectral", "--system", "logistic", "--r", "3.7", "--rank", "8"],
    ["simulate", "--system", "logistic", "--r", "3.9", "--rank", "4,8", "--steps", "20"],
    # the slow-manifold family's refusals: a tilted lift, which has no slow subspace slope;
    # the lam = 2*mu collision, which has no tilted coordinates, no b and no simple slow
    # eigenvalue; and an unstable slow mode that no input on x2 reaches
    ["spectral", "--system", "rotated-quad", "--angle", "0.3"],
    ["spectral", "--system", "rotated-quad", "--lambda", "-0.1"],
    ["spectral", "--system", "quad-manifold", "--lambda", "-0.1"],
    ["simulate", "--system", "quad-manifold", "--lambda", "-0.1"],
    ["control", "--system", "kooc-demo", "--mu", "0.5", "--horizon", "5"],
    # tilted lifts read off the tilted field, and 3*pi/4 in floating point, which has no
    # tilted coordinates
    ["spectral", "--system", "rotated-quad", "--angle", "1.0"],
    ["spectral", "--system", "rotated-quad", "--angle", "-0.5"],
    ["spectral", "--system", "rotated-quad", "--mu", "-0.3", "--lambda", "-2"],
    ["spectral", "--system", "rotated-quad", "--angle", "2.356194490192345"],
    # two trajectories whose steps differ by more than one trajectory's own spacing test allows
    ["identify", "--system", "quad-manifold", "--data", "{in}/step_005.csv", "{in}/step_005_wider.csv"],
    # Riccati designs whose Frobenius norms overflow, their backward error measured on the
    # norms' logs: |P| ~ 5e155, and |G| = 1e160; and a tilt angle that is not finite
    ["control", "--q", "1e155"],
    ["control", "--r", "1e-160"],
    ["simulate", "--system", "rotated-quad", "--angle", "inf"],
]


def _invoke(main, argv):
    """Exit code, stdout and stderr of ``main(argv)``; an exception that escapes
    ``main`` is recorded as the code, by its type name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            code = type(exc).__name__
    return code, stdout.getvalue(), stderr.getvalue()


def _hashes(root):
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def config():
    """What the hashes rest on besides the tree: Python, numpy, its BLAS and its SIMD dispatch."""
    import numpy as np

    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("openblas configuration", f"{blas['name']} {blas['version']}"),
            "simd": info["SIMD Extensions"]["found"]}


def run(tree, scratch):
    sys.path.insert(0, str(pathlib.Path(tree).resolve() / "src"))
    from koopmankit.cli import main

    inputs = scratch / "in"
    inputs.mkdir()
    for name, text in INPUT_FILES.items():
        (inputs / name).write_text(text)
    for sub, argv in INPUT_RUNS:
        code, _, stderr = _invoke(main, [*argv, "--out", str(inputs / sub)])
        if code != 0:
            raise RuntimeError(f"input run {argv} exited with {code}: {stderr}")

    def mask(text, run_dir):
        return text.replace(str(run_dir), "<run>").replace(str(inputs), "<in>")

    runs = []
    for index, entry in enumerate(MATRIX):
        argv, env = entry if isinstance(entry, tuple) else (entry + ["--out", "{run}/out"], {})
        run_dir = scratch / f"run{index:03d}"
        run_dir.mkdir()
        argv = [a.replace("{in}", str(inputs)).replace("{run}", str(run_dir)) for a in argv]
        for key, value in env.items():
            os.environ[key] = str(run_dir / value)
        try:
            code, stdout, stderr = _invoke(main, argv)
        finally:
            for key in env:
                del os.environ[key]
        runs.append({
            "argv": [mask(a, run_dir) for a in argv],
            "env": env,
            "exit": code,
            "stdout": mask(stdout, run_dir),
            "stderr": mask(stderr, run_dir),
            "artifacts": _hashes(run_dir),
        })
    return {"config": config(), "inputs": _hashes(inputs), "runs": runs}


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/cli_matrix.py TREE OUTPUT.json")
    os.environ.pop("KOOPMANKIT_OUT", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        result = run(sys.argv[1], pathlib.Path(tmp))
    pathlib.Path(sys.argv[2]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result['runs'])} invocations, "
          f"{sum(len(r['artifacts']) for r in result['runs'])} artifacts -> {sys.argv[2]}")
