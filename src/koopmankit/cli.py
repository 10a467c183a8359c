"""Command-line front end: registry experiments with CSV/JSON artifacts.

Four subcommands mirror the library workflows: ``simulate``, ``identify``,
``spectral`` and ``control``; each ``cmd_*`` docstring is its ``--help`` line.
``_FLAGS`` declares each flag that several subcommands share, and
``_COMMANDS`` lists each subcommand's flags in order. ``--rank`` applies only
to the registry entries marked ``"ranked"`` (Carleman truncations).
Every subcommand refuses a flag its run would ignore, by one rule: a run that
simulates nothing (``spectral --model``, ``identify --data``) refuses the
system parameters (``--mu``, ``--lambda``, ``--angle``, ``--r``) and the
simulation flags (``--generate``, ``--x0``, ``--horizon``, ``--dt``,
``--steps``); a run that simulates a registry system refuses ``--steps`` for
a flow and ``--horizon`` or ``--dt`` for a map.
``spectral`` refuses a trajectory too short to verify along, and every flow
refuses a ``--horizon`` that takes no step of ``--dt``. ``identify --data``
refuses a trajectory with input columns, as it fits an autonomous field, and
one whose state count is not the system's.
``simulate`` computes every table before it writes the first, so a run that
fails writes nothing. Every command is deterministic at a fixed OpenBLAS
thread count: the same configuration and thread count produce byte-identical
files, but a least-squares fit (as in ``identify``) can change in its last
bits with the thread count.
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

from . import __version__, control, numerics, registry
from .artifacts import (_fmt, _trajectory_table, _write_csv, _write_json, eigenfunction_to_json,
                        load_model, read_trajectory, save_model, save_sparse, write_trajectory)
from .dynamics import CONTINUOUS, DEFAULT_DT, DISCRETE, integrate, iterate
from .exceptions import BlowUp, DegenerateSpectrum, NotStabilizable, NumericsError, TrajectoryError
from .identification import (DEFAULT_THRESHOLD, _sampled_advance, dataset_from_trajectories,
                             invariance_residual, refine_subspace, sindy)
from .lifting import monomials, propagate
from .polynomials import format_polynomial
from .spectral import eigen_residual, eigenfunctions, verify_eigenfunction

class _Context:
    """One invocation resolved: output directory, registry system and its defaults;
    ``dt`` and ``horizon`` default only once the flags the run ignores are refused."""

    def __init__(self, args, dt=DEFAULT_DT, horizon=None):
        self.args = args
        self.out = pathlib.Path(os.environ.get("KOOPMANKIT_OUT") or args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        if (getattr(args, "model", None) is None) == (args.system is None):
            raise ValueError("pass exactly one of --system or --model")
        self.system = self.entry = None
        if args.system is not None:
            params = {k: v for k in ("mu", "lam", "r", "angle")
                      if (v := getattr(args, k, None)) is not None}
            self.system = registry.builtin(args.system, **params)
            self.entry = registry._REGISTRY[self.system.name]
        self.ranks = None
        if getattr(args, "rank", None) is not None:
            if not (self.entry or {}).get("ranked"):
                ranked = [f"--system {name.replace('_', '-')}" for name, entry in
                          sorted(registry._REGISTRY.items()) if entry.get("ranked")]
                raise ValueError(f"--rank applies only to {' and '.join(ranked)}, "
                                 "whose lifts are Carleman truncations")
            self.ranks = [int(v) for v in args.rank.split(",") if v.strip() != ""]
            if not self.ranks or any(r < 1 for r in self.ranks):
                raise ValueError("--rank needs positive integers")
        if self.system is None or getattr(args, "data", None):  # spectral --model, identify --data
            unread = ("--generate", *_PARAMS, "--r", "--x0", "--horizon", "--dt", "--steps")
            reader = ("--model, which reads a saved model" if self.system is None
                      else "--data, which reads trajectories") + " and simulates nothing"
        else:
            flow = self.system.time_kind == CONTINUOUS
            unread = ("--steps",) if flow else ("--horizon", "--dt")
            takes = "a flow: it takes --horizon and --dt" if flow else "a map: it takes --steps"
            reader = f"--system {args.system}, {takes}"
        for flag in unread:
            if getattr(args, _FLAGS.get(flag, {}).get("dest", flag[2:]), None) is not None:
                raise ValueError(f"{flag} does not apply to {reader}")
        args.dt = dt if args.dt is None else args.dt
        args.horizon = horizon if args.horizon is None else args.horizon

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
        """The registry's lifted model of the run's system, read off the system itself."""
        return self.entry["lift"](self.system, rank)


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
                       *_trajectory_table(lifted, model.time_kind, ["y1", "y2", "y3"])))

    slope = registry.slow_subspace_slope(ctx.system)
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
    print(f"slow-subspace slope: {_fmt(slope)}")
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
    lifted = [propagate(ctx.lift(rank), np.array([x0]), t_end=horizon, dt=ctx.args.dt)
              for rank in ctx.ranks]
    times = lifted[0].times
    truth = 1.0 / (1.0 / x0 - times)

    columns = [times, truth] + [traj.states[:, 0] for traj in lifted]
    horizons = []
    for rank, pred in zip(ctx.ranks, columns[2:]):
        rel = np.abs(pred - truth) / np.abs(truth)
        beyond = np.flatnonzero(rel > 0.1)
        horizons.append((rank, times[beyond[0]] if beyond.size else horizon))

    header = ["t", "truth"] + [f"rank_{r}" for r in ctx.ranks]
    tables = [("center_manifold_comparison.csv", header, np.column_stack(columns)),
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
                       np.column_stack([np.arange(steps + 1), truth, pred, rel])))
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
        tables = [(file, *_trajectory_table(ctx.trajectory(x0, 50), ctx.system.time_kind))]
        plot = [f"plot for [col=2:*] '{file}' using 1:col with lines"]
        if name == "quad_manifold":
            more, plot = _quad_manifold(ctx, x0)
            tables += more
        elif name == "logistic" and ctx.ranks:
            more, plot = _logistic_divergence(ctx, x0)
            tables += more

    files = []
    for file, header, rows in tables:
        _write_csv(ctx.out / file, header, rows)
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
    ctx = _Context(args, dt=_IDENTIFY_DT)
    system, out = ctx.system, ctx.out
    if args.data:
        trajs = [read_trajectory(path, system.time_kind) for path in args.data]
        for path, traj in zip(args.data, trajs):
            if traj.inputs is not None:
                raise ValueError(f"{path}: {traj.inputs.shape[1]} input column(s); identify "
                                 "fits an autonomous field f(x) and reads no inputs")
        # dataset_from_trajectories holds every later trajectory to the first one's dimension
        if trajs[0].dim != system.dim:
            raise ValueError(f"{args.data[0]}: {trajs[0].dim} state column(s), but "
                             f"--system {args.system} has {system.dim} states")
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
    _write_json(report_path, report)

    for eq_name, eq in zip((f"x{i + 1}" for i in range(system.dim)), report["equations"]):
        kind = "d/dt" if system.time_kind == CONTINUOUS else "next"
        print(f"{kind} {eq_name} = {eq}")
    print(f"max invariance residual: {_fmt(report['max_invariance_residual'])}")
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
        if (b := registry._system_b(system)) is not None:  # the eigenfunction x2 - b*x1^2
            payload["b"] = b
        try:
            payload["slow_subspace_slope"] = registry.slow_subspace_slope(system)
        except (ValueError, DegenerateSpectrum):
            pass  # not an untilted flow onto x2 = x1^2, or its slow eigenvalue is not simple

    if args.named_observable is not None:
        name = args.named_observable.replace("-", "_")
        named = ctx.entry.get("eigenfunctions", {}) if system is not None else {}
        if name not in named:
            raise ValueError(f"no named eigenfunction '{args.named_observable}' for this "
                             "system (exp-neg-inv belongs to --system center-manifold)")
        eigenvalue, phi = named[name]
        residual = eigen_residual(phi(traj.states[:, 0]), eigenvalue, traj.times, system.time_kind)
        payload.update(named_observable=name, named_observable_residual=residual)
        print(f"{name} residual: {_fmt(residual)}")

    path = ctx.out / f"{stem}_spectral.json"
    _write_json(path, payload)
    print(f"eigenvalues: {', '.join(numerics.format_eigenvalue(fn.eigenvalue) for fn in fns)}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def cmd_control(args):
    """lifted-design optimal control vs standard LQR on the actuated benchmark"""
    ctx = _Context(args, horizon=50.0)
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
    # Q = q*I formed without inf * 0, so --q inf reaches the non-finite check unwarned
    q, r = np.diag([q_scale] * system.dim), np.array([[r_scale]])
    if q_scale == 0.0:
        # No state cost: both designs (stabilizability checked first) give
        # zero gains, since zero input attains J = 0; nothing to simulate.
        (lqr, kooc), _ = control._design(system, model, q, r)
        payload.update(lqr_gain=[float(v) for v in lqr.gain.ravel()],
                       kooc_gain=[float(v) for v in kooc.gain.ravel()],
                       note="zero state cost: optimal feedback is zero; simulation skipped")
        _write_json(gains_path, payload)
        print("zero state cost: gains are identically zero")
        print(f"wrote {gains_path}")
        return 0

    result = control.compare_lqr_kooc(system, model, q, r, x0, args.horizon, dt=args.dt)

    lqr_path = out / "control_lqr.csv"
    kooc_path = out / "control_kooc.csv"
    write_trajectory(result.lqr_traj, lqr_path, system.time_kind)
    write_trajectory(result.kooc_traj, kooc_path, system.time_kind)
    costs_path = out / "control_costs.csv"
    _write_csv(costs_path, ["t", "j_lqr", "j_kooc", "j_lqr_script", "j_kooc_script"],
               np.column_stack([result.lqr_traj.times, result.lqr_cost, result.kooc_cost,
                                result.lqr_cost, result.kooc_cost_script]))

    payload.update({
        "library": model.library.names,
        "lqr_gain": [float(v) for v in result.lqr_gain.ravel()],
        "kooc_gain": [float(v) for v in result.kooc_controller.gain.ravel()],
        "final_cost_lqr": float(result.lqr_cost[-1]),
        "final_cost_kooc": float(result.kooc_cost[-1]),
        "ratio": result.ratio,
        "final_cost_lqr_script": float(result.lqr_cost[-1]),
        "final_cost_kooc_script": float(result.kooc_cost_script[-1]),
        "ratio_script": result.ratio_script,
    })
    _write_json(gains_path, payload)

    if args.gnuplot:
        plt = _gnuplot(out / "control.plt", ["plot 'control_costs.csv' using 1:2 with lines, \\",
                                             "     'control_costs.csv' using 1:3 with lines"])
        print(f"wrote {plt}")

    print(f"cost ratio (applied inputs): {_fmt(result.ratio)}")
    print(f"cost ratio (gain-substituted integrand): {_fmt(result.ratio_script)}")
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
_IDENTIFY_DT = 0.005

_COMMANDS = {
    cmd_simulate: [
        ("--system", {"required": True}), *_PARAMS, "--r", "--x0", "--horizon", "--dt", "--steps",
        ("--rank", {"help": "comma-separated Carleman ranks (center-manifold comparison, "
                            "logistic divergence tables)"}),
        "--gnuplot"],
    cmd_identify: [
        ("--system", {"required": True}), *_PARAMS, "--r",
        ("--generate", {"action": "store_true", "default": None, "help": "simulate training data"}),
        ("--data", {"nargs": "+", "help": "trajectory CSV file(s)"}),
        ("--degree", {"type": int, "default": 3, "help": "candidate monomial degree cap"}),
        ("--threshold", {"type": float, "default": DEFAULT_THRESHOLD}),
        "--horizon",
        ("--dt", {"help": f"sampling step for generated data (default {_IDENTIFY_DT:g}, finer "
                          "than the simulate default so derivative estimates do not limit "
                          "recovery)"}),
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
        "--x0", "--horizon", "--dt", "--gnuplot"],
}


def build_parser():
    info = registry.registry_info()
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
