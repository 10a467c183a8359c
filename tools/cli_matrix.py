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
hashes are recorded under ``"inputs"``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

SYSTEMS = ("center-manifold", "discrete-manifold", "kooc-demo", "limitation", "logistic",
           "quad-manifold", "quartic-manifold", "rotated-quad", "tu-map")

# Files written before the matrix runs: name -> text. Two more inputs come from
# the tree's own CLI (see INPUT_RUNS).
INPUT_FILES = {
    "header_only.csv": "t,x1,x2\n",
    "empty.csv": "",
    "good.csv": "t,x1,x2\n0,1,2\n0.01,1,2\n",
    "bad_cell.csv": "t,x1,x2\n0,1,2\n0.01,abc,2\n",
    "one_state.csv": "t,x1\n0,1\n0.01,1\n",
    # the quad-manifold lift with its state rows listed out of order
    "swapped_rows.json": ('{"time_kind": "continuous", "dim": 2, "state_inclusive": true, '
                          '"observables": [[1, 0], [0, 1], [2, 0]], '
                          '"K": [[-0.05, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -0.1]], '
                          '"state_rows": [1, 0]}\n'),
}
INPUT_RUNS = (
    ("sim", ["simulate", "--system", "quad-manifold"]),
    ("id", ["identify", "--system", "quad-manifold", "--generate"]),
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
    return {"inputs": _hashes(inputs), "runs": runs}


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
