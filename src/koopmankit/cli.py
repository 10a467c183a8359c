"""Command-line front end: registry experiments with CSV/JSON artifacts.

Four subcommands mirror the library workflows: ``simulate``, ``identify``,
``spectral`` and ``control``; each ``cmd_*`` docstring is its ``--help`` line.
``_FLAGS`` declares each flag that several subcommands share, and
``_COMMANDS`` lists each subcommand's flags in order. ``--rank`` applies only
to center-manifold and logistic, whose lifts are Carleman truncations, and
``simulate`` refuses ``--steps`` for a flow and ``--horizon`` or ``--dt`` for
a map; ``spectral --model`` refuses the system parameters, ``--x0``,
``--horizon``, ``--dt`` and ``--steps``, ``spectral`` refuses a trajectory
too short to verify along, and every flow refuses a ``--horizon`` that
takes no step of ``--dt``. ``simulate`` computes every table before it
writes the first, so a run that fails writes nothing. Every command is
deterministic: the same configuration produces byte-identical files.
``KOOPMANKIT_OUT``, when set, overrides any ``--out`` directory.

Exit codes: 0 success, 1 stdout closed by its reader (as in
``koopmankit simulate ... | head``; nothing is printed), 2 configuration
error, 3 numerical failure, 4 stabilizability failure (the PBH diagnostic is
printed).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

import numpy as np

from . import __version__, dynamics
from .control import compare_lqr_kooc
from .dynamics import CONTINUOUS, DISCRETE, integrate, iterate, write_trajectory
from .exceptions import BlowUp, DegenerateSpectrum, NotStabilizable, NumericsError, TrajectoryError
from .identification import (
    DEFAULT_THRESHOLD,
    _sampled_advance,
    dataset_from_trajectories,
    invariance_residual,
    refine_subspace,
    save_sparse,
    sindy,
)
from .lifting import ObservableLibrary, load_model, monomials, propagate, save_model
from .polynomials import format_polynomial
from .spectral import (
    Eigenfunction,
    eigenfunction_to_json,
    eigenfunctions,
    slow_subspace_slope,
    verify_eigenfunction,
)

_RANKED = ("center_manifold", "logistic")  # registry lifts that take a Carleman rank


class _Context:
    """One invocation resolved: output directory, registry system and its defaults."""

    def __init__(self, args):
        self.args = args
        self.out = pathlib.Path(os.environ.get("KOOPMANKIT_OUT") or args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        if (getattr(args, "model", None) is None) == (args.system is None):
            raise ValueError("pass exactly one of --system or --model")
        self.system = self.entry = None
        if args.system is not None:
            params = {k: v for k in ("mu", "lam", "r", "angle")
                      if (v := getattr(args, k, None)) is not None}
            self.system = dynamics.builtin(args.system, **params)
            self.entry = dynamics._REGISTRY[self.system.name]
        self.ranks = None
        if getattr(args, "rank", None) is not None:
            if getattr(self.system, "name", None) not in _RANKED:
                raise ValueError("--rank applies only to --system center-manifold and --system "
                                 "logistic, whose lifts are Carleman truncations")
            self.ranks = [int(v) for v in args.rank.split(",") if v.strip() != ""]
            if not self.ranks or any(r < 1 for r in self.ranks):
                raise ValueError("--rank needs positive integers")
        unread = ()  # flags this invocation would ignore if given
        if args.command == "simulate":
            flow = self.system.time_kind == CONTINUOUS
            takes = "a flow: it takes --horizon and --dt" if flow else "a map: it takes --steps"
            unread = ("--steps",) if flow else ("--horizon", "--dt")
            reader = f"--system {args.system}, {takes}"
        elif self.system is None:  # spectral --model
            unread = (*_PARAMS, "--r", "--x0", "--horizon", "--dt", "--steps")
            reader = "--model, which reads a saved model and simulates nothing"
        for flag in unread:
            if getattr(args, _FLAGS[flag].get("dest", flag[2:])) is not None:
                raise ValueError(f"{flag} does not apply to {reader}")
        if args.dt is None:
            args.dt = dynamics.DEFAULT_DT

    def x0(self):
        """--x0, or the registry's start."""
        if self.args.x0 is None:
            return np.array(self.entry["x0"])
        values = [float(v) for v in self.args.x0.split(",") if v.strip() != ""]
        if len(values) != self.system.dim:
            raise ValueError(f"--x0 needs {self.system.dim} comma-separated value(s), "
                             f"got {len(values)}")
        return np.array(values)

    def horizon(self, x0, default=None):
        """--horizon, else ``default``, else the registry's horizon for a start at x0."""
        if self.args.horizon is not None:
            return self.args.horizon
        if default is not None:
            return default
        rule = self.entry["horizon"]
        return rule(x0) if callable(rule) else rule

    def trajectory(self, x0, steps, horizon=None):
        """Iterate a map --steps (default ``steps``) times, or integrate a flow to
        ``self.horizon(x0, horizon)`` at --dt."""
        if self.system.time_kind == DISCRETE:
            return iterate(self.system, x0, steps if self.args.steps is None else self.args.steps)
        return integrate(self.system, x0, self.horizon(x0, horizon), dt=self.args.dt)

    def lift(self, rank=4):
        """The closed-form lifted model matching the system's parameters."""
        return self.entry["lift"](self.system.params, rank)


def _gnuplot(path, plot):
    """Write a gnuplot script that reads the CSV artifacts beside it."""
    path.write_text("\n".join(["set datafile separator comma", "set key autotitle columnhead",
                               *plot]) + "\n")
    return path


# ---------------------------------------------------------------------------
# simulate: each experiment returns (tables, gnuplot lines); a table is
# (file name, header, rows), written only once every table is computed
# ---------------------------------------------------------------------------

def _quad_manifold(ctx, x0):
    """Lifted trajectories and the three surface grids behind the manifold figure."""
    model = ctx.lift()
    horizon = ctx.horizon(x0)
    tables = []
    starts = [("a", x0), ("b", np.array([1.0, -1.0])), ("c", np.array([2.0, -1.0]))]
    for label, start in starts:
        lifted = propagate(model, start, t_end=horizon, dt=ctx.args.dt)
        tables.append((f"quad_manifold_lifted_{label}.csv",
                       *dynamics._trajectory_table(lifted, ["y1", "y2", "y3"])))

    slope = slow_subspace_slope(model)
    y1 = np.linspace(-2.5, 2.5, 21)
    y2 = np.linspace(-1.5, 6.5, 21)
    y3 = np.linspace(0.0, 6.5, 21)
    # red: manifold y2 = y1^2 (y3 free); blue: lift y3 = y1^2 (y2 free);
    # green: slow subspace y3 = slope*y2 (y1 free)
    surfaces = {
        "red": [(a, a * a, c) for a in y1 for c in y3],
        "blue": [(a, b, a * a) for a in y1 for b in y2],
        "green": [(a, b, slope * b) for a in y1 for b in y2],
    }
    for color, rows in surfaces.items():
        tables.append((f"quad_manifold_surface_{color}.csv", ["y1", "y2", "y3"], rows))
    print(f"slow-subspace slope: {dynamics._fmt(slope)}")
    return tables, [
        "set hidden3d",
        "splot \\",
        "  'quad_manifold_surface_blue.csv' every ::1 using 1:2:3 with dots lc rgb 'blue', \\",
        "  'quad_manifold_surface_green.csv' every ::1 using 1:2:3 with dots lc rgb 'green', \\",
        "  'quad_manifold_lifted_a.csv' every ::1 using 2:3:4 with lines lc rgb 'black', \\",
        "  'quad_manifold_lifted_b.csv' every ::1 using 2:3:4 with lines lc rgb 'black', \\",
        "  'quad_manifold_lifted_c.csv' every ::1 using 2:3:4 with lines lc rgb 'black'",
    ]


def _center_comparison(ctx):
    x0 = float(ctx.x0()[0])
    if x0 <= 0:
        raise ValueError("center-manifold comparison needs x0 > 0")
    blowup = 1.0 / x0
    horizon = ctx.horizon(x0, min(1.8, 0.9 * blowup))
    if horizon >= blowup:
        raise ValueError(f"horizon must stay below the blow-up time 1/x0 = {blowup:g}")
    times = dynamics._time_grid(horizon, ctx.args.dt)
    truth = 1.0 / (1.0 / x0 - times)

    columns = [times, truth]
    horizons = []
    for rank in ctx.ranks:
        pred = propagate(ctx.lift(rank), np.array([x0]), t_end=horizon, dt=ctx.args.dt).states[:, 0]
        columns.append(pred)
        rel = np.abs(pred - truth) / np.abs(truth)
        beyond = np.flatnonzero(rel > 0.1)
        horizons.append((rank, times[beyond[0]] if beyond.size else horizon))

    header = ["t", "truth"] + [f"rank_{r}" for r in ctx.ranks]
    tables = [("center_manifold_comparison.csv", header, zip(*columns)),
              ("center_manifold_horizons.csv", ["rank", "horizon"], horizons)]
    return tables, [f"plot for [col=2:*] '{tables[0][0]}' using 1:col with lines"]


def _logistic_divergence(ctx, x0):
    steps = 30 if ctx.args.steps is None else ctx.args.steps
    truth = iterate(ctx.system, x0, steps).states[:, 0]
    tables, horizons = [], []
    for rank in ctx.ranks:
        pred = propagate(ctx.lift(rank), x0, steps=steps).states[:, 0]
        rel = np.abs(pred - truth) / np.maximum(np.abs(truth), 1e-12)
        beyond = np.flatnonzero(rel > 0.1)
        horizons.append((rank, int(beyond[0] - 1) if beyond.size else steps))
        tables.append((f"logistic_divergence_rank{rank}.csv",
                       ["step", "truth", "prediction", "rel_error"],
                       zip(range(steps + 1), truth, pred, rel)))
    tables.append(("logistic_horizons.csv", ["rank", "steps_within_10pct"], horizons))
    first = tables[0][0]
    return tables, [f"plot '{first}' using 1:2 with linespoints, '{first}' using 1:3 with linespoints"]


def cmd_simulate(args):
    """integrate/iterate a registry system; quad-manifold adds lifted trajectories and surface grids"""
    ctx = _Context(args)
    name = ctx.system.name
    if name == "center_manifold" and ctx.ranks:
        tables, plot = _center_comparison(ctx)
    else:
        x0 = ctx.x0()
        file = f"{name}_trajectory.csv"
        tables = [(file, *dynamics._trajectory_table(ctx.trajectory(x0, 50)))]
        plot = [f"plot for [col=2:*] '{file}' using 1:col with lines"]
        if name == "quad_manifold":
            more, plot = _quad_manifold(ctx, x0)
            tables += more
        elif name == "logistic" and ctx.ranks:
            more, plot = _logistic_divergence(ctx, x0)
            tables += more

    files = []
    for file, header, rows in tables:
        dynamics._write_csv(ctx.out / file, header, rows)
        files.append(file)
    if args.gnuplot:
        files.append(_gnuplot(ctx.out / f"{name}.plt", plot).name)
    for file in files:
        print(f"wrote {ctx.out / file}")
    return 0


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def cmd_identify(args):
    """sparse regression + subspace refinement on simulated or supplied trajectory data"""
    ctx = _Context(args)
    system, out = ctx.system, ctx.out
    if args.data:
        trajs = [dynamics.read_trajectory(path) for path in args.data]
    elif args.generate:
        starts, span = ctx.entry["training"]  # span: a flow's horizon or a map's step count
        trajs = [ctx.trajectory(x0, span, span) for x0 in starts]
    else:
        raise ValueError("pass --generate to simulate training data or --data with CSV files")

    try:
        data = dataset_from_trajectories(trajs, system.time_kind)
    except TrajectoryError as exc:
        if not args.data:
            raise
        raise ValueError(f"{args.data[exc.index]}: {exc.reason}") from None
    library = monomials(system.dim, args.degree)
    sparse = sindy(data, library, threshold=args.threshold)
    result = refine_subspace(sparse, data)

    sparse_path = out / f"{system.name}_sparse.json"
    model_path = out / f"{system.name}_model.json"
    save_sparse(sparse, sparse_path)
    save_model(result.model, model_path)

    residuals = [invariance_residual(result.model, traj) for traj in trajs]
    report = {
        "system": system.name,
        "time_kind": system.time_kind,
        "degree": args.degree,
        "threshold": args.threshold,
        "n_samples": data.n_samples,
        "equations": [format_polynomial(eq) for eq in sparse.equations()],
        "refinement": {
            "converged": result.converged,
            "rounds": result.rounds,
            "added_observables": list(result.added),
            "library": result.model.library.names,
        },
        "invariance_residuals": residuals,
        "max_invariance_residual": max(residuals),
    }
    report_path = out / f"{system.name}_report.json"
    dynamics._write_json(report_path, report)

    for eq_name, eq in zip((f"x{i + 1}" for i in range(system.dim)), report["equations"]):
        kind = "d/dt" if system.time_kind == CONTINUOUS else "next"
        print(f"{kind} {eq_name} = {eq}")
    print(f"max invariance residual: {dynamics._fmt(report['max_invariance_residual'])}")
    for path in (sparse_path, model_path, report_path):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def cmd_spectral(args):
    """eigenvalues, eigenfunction coefficients, and verification residuals of a lifted model"""
    ctx = _Context(args)
    system = ctx.system
    if system is None:
        model = load_model(args.model)
        stem = pathlib.Path(args.model).stem
        traj = None
    else:
        ranks = ctx.ranks or [4]
        if len(ranks) != 1:
            raise ValueError("--rank takes one positive integer")
        model = ctx.lift(ranks[0])
        stem = system.name
        traj = ctx.trajectory(ctx.x0(), 40)
        _sampled_advance(traj.states, traj.times, system.time_kind)  # too few samples: exit 2

    fns = eigenfunctions(model)
    entries = []
    for fn in fns:
        pivot = fn.coeffs[int(np.argmax(np.abs(fn.coeffs)))]
        entry = {
            "eigenfunction": eigenfunction_to_json(fn),
            "coeffs_normalized": [[c.real, c.imag] for c in fn.coeffs / pivot],
            "residual": None,
        }
        if traj is not None:
            try:
                entry["residual"] = verify_eigenfunction(fn, traj)
            except ValueError:
                pass  # the trajectory has enough samples, so phi vanishes along it
        entries.append(entry)

    payload = {
        "time_kind": model.time_kind,
        "library": model.library.names,
        "eigenvalues": [[fn.eigenvalue.real, fn.eigenvalue.imag] for fn in fns],
        "eigenfunctions": entries,
    }
    if system is not None:
        payload["system"] = system.name
        payload["params"] = system.params
        if system.time_kind == CONTINUOUS and ctx.entry.get("manifold") == dynamics._PARABOLA:
            # the eigenfunction x2 - b*x1^2 of the flow onto x2 = x1^2
            mu, lam = system.params["mu"], system.params["lambda"]
            if lam != 2 * mu:
                payload["b"] = lam / (lam - 2 * mu)
        try:
            payload["slow_subspace_slope"] = slow_subspace_slope(model)
        except (ValueError, DegenerateSpectrum):
            pass  # not the quadratic-manifold lift, or its slow eigenvalue is not simple

    if args.named_observable is not None:
        name = args.named_observable.replace("-", "_")
        named = ctx.entry.get("eigenfunctions", {}) if system is not None else {}
        if name not in named:
            raise ValueError(f"no named eigenfunction '{args.named_observable}' for this "
                             "system (exp-neg-inv belongs to --system center-manifold)")
        fn = Eigenfunction(named[name], np.array([1.0]), ObservableLibrary(1, (name,)),
                           system.time_kind)
        payload["named_observable"] = name
        payload["named_observable_residual"] = verify_eigenfunction(fn, traj)
        print(f"{name} residual: {dynamics._fmt(payload['named_observable_residual'])}")

    path = ctx.out / f"{stem}_spectral.json"
    dynamics._write_json(path, payload)
    eigvals = ", ".join(f"{w.real:g}{f'{w.imag:+g}j' if abs(w.imag) > 1e-12 else ''}"
                        for w in (fn.eigenvalue for fn in fns))
    print(f"eigenvalues: {eigvals}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def cmd_control(args):
    """lifted-design optimal control vs standard LQR on the actuated benchmark"""
    ctx = _Context(args)
    system, out = ctx.system, ctx.out
    if system.input_map is None:
        raise ValueError(f"system '{system.name}' has no input; control needs an actuated system")
    x0 = ctx.x0()
    q_scale, r_scale = args.q, args.r_cost
    if r_scale <= 0:
        raise ValueError("--r must be positive")
    params = {**system.params, "q": q_scale, "r": r_scale, "horizon": args.horizon,
              "dt": args.dt, "x0": list(x0)}

    model = ctx.lift()
    gains_path = out / "control_gains.json"
    payload = {"system": system.name, "params": params}
    if q_scale == 0.0:
        # No state cost: zero input is optimal (J = 0) and the Riccati
        # solution is identically zero, so both gains vanish.
        payload.update(lqr_gain=[0.0, 0.0], kooc_gain=[0.0] * len(model.library),
                       note="zero state cost: optimal feedback is zero; simulation skipped")
        dynamics._write_json(gains_path, payload)
        print("zero state cost: gains are identically zero")
        print(f"wrote {gains_path}")
        return 0

    result = compare_lqr_kooc(system, model, q_scale * np.eye(system.dim), np.array([[r_scale]]),
                              x0, args.horizon, dt=args.dt)

    lqr_path = out / "control_lqr.csv"
    kooc_path = out / "control_kooc.csv"
    write_trajectory(result.lqr_traj, lqr_path)
    write_trajectory(result.kooc_traj, kooc_path)
    costs_path = out / "control_costs.csv"
    dynamics._write_csv(costs_path, ["t", "j_lqr", "j_kooc", "j_lqr_script", "j_kooc_script"],
                        zip(result.lqr_traj.times, result.lqr_cost, result.kooc_cost,
                            result.lqr_cost_script, result.kooc_cost_script))

    payload.update({
        "library": model.library.names,
        "lqr_gain": [float(v) for v in result.lqr_gain.ravel()],
        "kooc_gain": [float(v) for v in result.kooc_controller.gain.ravel()],
        "final_cost_lqr": float(result.lqr_cost[-1]),
        "final_cost_kooc": float(result.kooc_cost[-1]),
        "ratio": result.ratio,
        "final_cost_lqr_script": float(result.lqr_cost_script[-1]),
        "final_cost_kooc_script": float(result.kooc_cost_script[-1]),
        "ratio_script": result.ratio_script,
    })
    dynamics._write_json(gains_path, payload)

    if args.gnuplot:
        plt = _gnuplot(out / "control.plt", ["plot 'control_costs.csv' using 1:2 with lines, \\",
                                             "     'control_costs.csv' using 1:3 with lines"])
        print(f"wrote {plt}")

    print(f"cost ratio (applied inputs): {dynamics._fmt(result.ratio)}")
    print(f"cost ratio (gain-substituted integrand): {dynamics._fmt(result.ratio_script)}")
    for path in (lqr_path, kooc_path, costs_path, gains_path):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Flags that more than one subcommand takes, each declared once. Every
# subcommand ends with --out; a (flag, keywords) entry in _COMMANDS adds to or
# overrides these keywords, or declares a flag of that subcommand alone.
_FLAGS = {
    "--system": {"help": "registry system (listed below)"},
    "--mu": {"type": float, "help": "slow rate/multiplier"},
    "--lambda": {"dest": "lam", "type": float, "help": "fast rate/multiplier"},
    "--angle": {"type": float, "help": "coordinate tilt in radians (rotated-quad)"},
    "--r": {"type": float, "help": "logistic growth rate"},
    "--x0": {"help": "comma-separated initial state (use --x0=-5,5 form)"},
    "--horizon": {"type": float, "help": "continuous end time"},
    "--dt": {"type": float, "help": "RK4 step of a flow"},
    "--steps": {"type": int, "help": "discrete step count"},
    "--gnuplot": {"action": "store_true", "help": "also write a gnuplot script"},
    "--out": {"default": ".", "help": "output directory (KOOPMANKIT_OUT overrides)"},
}
_PARAMS = ("--mu", "--lambda", "--angle")

_COMMANDS = {
    cmd_simulate: [
        ("--system", {"required": True}), *_PARAMS, "--r", "--x0", "--horizon", "--dt", "--steps",
        ("--rank", {"help": "comma-separated Carleman ranks (center-manifold comparison, "
                            "logistic divergence tables)"}),
        "--gnuplot"],
    cmd_identify: [
        ("--system", {"required": True}), *_PARAMS, "--r",
        ("--generate", {"action": "store_true", "help": "simulate training data"}),
        ("--data", {"nargs": "+", "help": "trajectory CSV file(s)"}),
        ("--degree", {"type": int, "default": 3, "help": "candidate monomial degree cap"}),
        ("--threshold", {"type": float, "default": DEFAULT_THRESHOLD}),
        "--horizon",
        ("--dt", {"default": 0.005, "help": "sampling step for generated data (finer than the "
                                            "simulate default so derivative estimates do not "
                                            "limit recovery)"}),
        "--steps"],
    cmd_spectral: [
        "--system", ("--model", {"help": "KoopmanModel JSON instead of a registry system"}),
        *_PARAMS, "--r", ("--rank", {"help": "Carleman rank (default 4; center-manifold, logistic)"}),
        ("--named-observable", {"help": "verify a named closed-form eigenfunction "
                                        "(exp-neg-inv, center-manifold only)"}),
        "--x0", "--horizon", "--dt", "--steps"],
    cmd_control: [
        ("--system", {"default": "kooc-demo"}), *_PARAMS,
        ("--q", {"type": float, "default": 1.0, "help": "state cost weight (Q = q*I)"}),
        ("--r", {"dest": "r_cost", "default": 1.0, "help": "input cost weight"}),
        "--x0", ("--horizon", {"default": 50.0}), "--dt", "--gnuplot"],
}


def build_parser():
    info = dynamics.registry_info()
    width = max(len(name) for name in info)
    epilog = "registry systems (hyphens and underscores are interchangeable):\n" + "\n".join(
        f"  {name.ljust(width)}  {text}" for name, text in info.items())
    parser = argparse.ArgumentParser(
        prog="koopmankit",
        description="Finite Koopman-invariant linear representations: simulate, identify, "
                    "analyze spectra, and control benchmark nonlinear systems.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for func, flags in _COMMANDS.items():
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=func.__doc__, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag in (*flags, "--out"):
            flag, keywords = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**_FLAGS.get(flag, {}), **keywords})
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point its descriptor at devnull so that the
        # final flush at exit cannot fail again (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except NotStabilizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BlowUp, NumericsError, DegenerateSpectrum) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
