"""Command-line front end: registry experiments with CSV/JSON artifacts.

Four subcommands mirror the library workflows: ``simulate`` (trajectories and,
for the quadratic-manifold system, the lifted trajectories plus the manifold /
lift / slow-subspace surface grids), ``identify`` (sparse regression and
subspace refinement), ``spectral`` (eigenvalues, eigenfunction coefficients,
verification residuals), and ``control`` (lifted-design LQR against standard
LQR). Every command is deterministic: the same configuration produces
byte-identical files. The ``KOOPMANKIT_OUT`` environment variable, when set,
overrides any ``--out`` directory.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 stabilizability failure (the PBH diagnostic is printed).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

import numpy as np

from . import dynamics
from .control import compare_lqr_kooc
from .dynamics import CONTINUOUS, DISCRETE, integrate, iterate, write_trajectory
from .exceptions import BlowUp, DegenerateSpectrum, NotStabilizable, NumericsError, TrajectoryError
from .identification import (
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


def _resolve_out(args) -> pathlib.Path:
    out = os.environ.get("KOOPMANKIT_OUT") or args.out
    path = pathlib.Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_x0(text, dim):
    values = [float(v) for v in text.split(",") if v.strip() != ""]
    if len(values) != dim:
        raise ValueError(f"--x0 needs {dim} comma-separated value(s), got {len(values)}")
    return np.array(values)


def _parse_ranks(text):
    ranks = [int(v) for v in text.split(",") if v.strip() != ""]
    if not ranks or any(r < 1 for r in ranks):
        raise ValueError("--rank needs positive integers")
    return ranks


def _collect_params(args):
    pairs = {"mu": getattr(args, "mu", None), "lam": getattr(args, "lam", None),
             "r": getattr(args, "r", None), "angle": getattr(args, "angle", None)}
    return {k: v for k, v in pairs.items() if v is not None}


def _build_system(args):
    return dynamics.builtin(args.system, **_collect_params(args))


def _entry(system):
    """The registry entry that knows the system's defaults and closed-form lift."""
    return dynamics._REGISTRY[system.name]


def _default_x0(system, args):
    if args.x0 is not None:
        return _parse_x0(args.x0, system.dim)
    return np.array(_entry(system)["x0"])


def _default_horizon(system, x0, args):
    if args.horizon is not None:
        return args.horizon
    horizon = _entry(system)["horizon"]
    return horizon(x0) if callable(horizon) else horizon


def _run(system, x0, args, steps):
    """Iterate a map --steps times (default ``steps``), or integrate a flow to its horizon."""
    if system.time_kind == DISCRETE:
        return iterate(system, x0, args.steps if args.steps is not None else steps)
    return integrate(system, x0, _default_horizon(system, x0, args), dt=args.dt)


def _canonical_lift(system, rank=4):
    """The closed-form lifted model matching a registry system's parameters."""
    return _entry(system)["lift"](system.params, rank)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _surface_grid(y1_values, y2_values, height):
    rows = []
    for y1 in y1_values:
        for y2 in y2_values:
            rows.append((y1, y2, height(y1, y2)))
    return rows


def _simulate_quad_extras(system, x0, args, out, written):
    """Lifted trajectories and the three surface grids behind the manifold figure."""
    model = _canonical_lift(system)
    horizon = _default_horizon(system, x0, args)
    starts = [("a", x0), ("b", np.array([1.0, -1.0])), ("c", np.array([2.0, -1.0]))]
    for label, start in starts:
        lifted = propagate(model, start, t_end=horizon, dt=args.dt)
        path = out / f"quad_manifold_lifted_{label}.csv"
        write_trajectory(lifted, path, state_names=["y1", "y2", "y3"])
        written.append(path.name)

    slope = slow_subspace_slope(model)
    y1 = np.linspace(-2.5, 2.5, 21)
    y2 = np.linspace(-1.5, 6.5, 21)
    y3 = np.linspace(0.0, 6.5, 21)
    # red: manifold y2 = y1^2 (y3 free); blue: lift y3 = y1^2 (y2 free);
    # green: slow subspace y3 = slope*y2 (y1 free)
    surfaces = [
        ("red", [(a, a * a, c) for a in y1 for c in y3]),
        ("blue", _surface_grid(y1, y2, lambda a, b: a * a)),
        ("green", _surface_grid(y1, y2, lambda a, b: slope * b)),
    ]
    for color, rows in surfaces:
        path = out / f"quad_manifold_surface_{color}.csv"
        dynamics._write_csv(path, ["y1", "y2", "y3"], rows)
        written.append(path.name)
    return slope


def _center_comparison(system, args, out, written):
    x0 = float(_default_x0(system, args)[0])
    if x0 <= 0:
        raise ValueError("center-manifold comparison needs x0 > 0")
    blowup = 1.0 / x0
    horizon = args.horizon if args.horizon is not None else min(1.8, 0.9 * blowup)
    if horizon >= blowup:
        raise ValueError(f"horizon must stay below the blow-up time 1/x0 = {blowup:g}")
    ranks = _parse_ranks(args.rank)
    times = dynamics._time_grid(horizon, args.dt)
    truth = 1.0 / (1.0 / x0 - times)

    columns = [times, truth]
    horizons = []
    for rank in ranks:
        model = _canonical_lift(system, rank)
        pred = propagate(model, np.array([x0]), t_end=horizon, dt=args.dt).states[:, 0]
        columns.append(pred)
        rel = np.abs(pred - truth) / np.abs(truth)
        beyond = np.flatnonzero(rel > 0.1)
        horizons.append((rank, times[beyond[0]] if beyond.size else horizon))

    path = out / "center_manifold_comparison.csv"
    header = ["t", "truth"] + [f"rank_{r}" for r in ranks]
    dynamics._write_csv(path, header, zip(*columns))
    written.append(path.name)
    path = out / "center_manifold_horizons.csv"
    dynamics._write_csv(path, ["rank", "horizon"], horizons)
    written.append(path.name)


def _logistic_divergence(system, x0, args, out, written):
    ranks = _parse_ranks(args.rank)
    steps = args.steps if args.steps is not None else 30
    truth = iterate(system, x0, steps).states[:, 0]
    horizons = []
    for rank in ranks:
        model = _canonical_lift(system, rank)
        pred = propagate(model, x0, steps=steps).states[:, 0]
        rel = np.abs(pred - truth) / np.maximum(np.abs(truth), 1e-12)
        beyond = np.flatnonzero(rel > 0.1)
        horizons.append((rank, int(beyond[0] - 1) if beyond.size else steps))
        path = out / f"logistic_divergence_rank{rank}.csv"
        dynamics._write_csv(path, ["step", "truth", "prediction", "rel_error"],
                            zip(range(steps + 1), truth, pred, rel))
        written.append(path.name)
    path = out / "logistic_horizons.csv"
    dynamics._write_csv(path, ["rank", "steps_within_10pct"], horizons)
    written.append(path.name)


def _simulate_gnuplot(system, written, out):
    lines = ["set datafile separator comma", "set key autotitle columnhead"]
    if "quad_manifold_surface_red.csv" in written:
        lines += [
            "set hidden3d",
            "splot \\",
            "  'quad_manifold_surface_blue.csv' every ::1 using 1:2:3 with dots lc rgb 'blue', \\",
            "  'quad_manifold_surface_green.csv' every ::1 using 1:2:3 with dots lc rgb 'green', \\",
            "  'quad_manifold_lifted_a.csv' every ::1 using 2:3:4 with lines lc rgb 'black', \\",
            "  'quad_manifold_lifted_b.csv' every ::1 using 2:3:4 with lines lc rgb 'black', \\",
            "  'quad_manifold_lifted_c.csv' every ::1 using 2:3:4 with lines lc rgb 'black'",
        ]
    elif "center_manifold_comparison.csv" in written:
        lines.append("plot for [col=2:*] 'center_manifold_comparison.csv' using 1:col with lines")
    elif any(name.startswith("logistic_divergence") for name in written):
        target = next(name for name in written if name.startswith("logistic_divergence"))
        lines.append(f"plot '{target}' using 1:2 with linespoints, '{target}' using 1:3 with linespoints")
    else:
        target = f"{system.name}_trajectory.csv"
        lines.append(f"plot for [col=2:*] '{target}' using 1:col with lines")
    path = out / f"{system.name}.plt"
    path.write_text("\n".join(lines) + "\n")
    return path.name


def cmd_simulate(args):
    out = _resolve_out(args)
    system = _build_system(args)
    written = []

    if system.name == "center_manifold" and args.rank is not None:
        _center_comparison(system, args, out, written)
    else:
        x0 = _default_x0(system, args)
        traj = _run(system, x0, args, steps=50)
        path = out / f"{system.name}_trajectory.csv"
        write_trajectory(traj, path)
        written.append(path.name)
        if system.name == "quad_manifold":
            slope = _simulate_quad_extras(system, x0, args, out, written)
            print(f"slow-subspace slope: {dynamics._fmt(slope)}")
        if system.name == "logistic" and args.rank is not None:
            _logistic_divergence(system, x0, args, out, written)

    if args.gnuplot:
        written.append(_simulate_gnuplot(system, written, out))
    for name in written:
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def _generate_identification_data(system, args):
    starts, span = _entry(system)["training"]
    if system.time_kind == DISCRETE:
        steps = args.steps if args.steps is not None else span
        return [iterate(system, x0, steps) for x0 in starts]
    horizon = args.horizon if args.horizon is not None else span
    return [integrate(system, x0, horizon, dt=args.dt) for x0 in starts]


def cmd_identify(args):
    out = _resolve_out(args)
    system = _build_system(args)
    if args.data:
        trajs = [dynamics.read_trajectory(path) for path in args.data]
    elif args.generate:
        trajs = _generate_identification_data(system, args)
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

def _normalized_coeffs(coeffs):
    pivot = coeffs[int(np.argmax(np.abs(coeffs)))]
    scaled = coeffs / pivot
    return [[c.real, c.imag] for c in scaled]


def cmd_spectral(args):
    out = _resolve_out(args)
    if (args.model is None) == (args.system is None):
        raise ValueError("pass exactly one of --system or --model")

    if args.model is not None:
        model = load_model(args.model)
        system = None
        stem = pathlib.Path(args.model).stem
    else:
        system = _build_system(args)
        model = _canonical_lift(system, rank=int(args.rank) if args.rank else 4)
        stem = system.name

    traj = _run(system, _default_x0(system, args), args, steps=40) if system is not None else None
    fns = eigenfunctions(model)
    entries = []
    for fn in fns:
        entry = {
            "eigenfunction": eigenfunction_to_json(fn),
            "coeffs_normalized": _normalized_coeffs(fn.coeffs),
            "residual": None,
        }
        if traj is not None:
            try:
                entry["residual"] = verify_eigenfunction(fn, traj)
            except ValueError:
                entry["residual"] = None  # eigenfunction vanishes along this trajectory
        entries.append(entry)

    payload = {
        "time_kind": model.time_kind,
        "library": model.library.names,
        "eigenvalues": [[fn.eigenvalue.real, fn.eigenvalue.imag] for fn in fns],
        "eigenfunctions": entries,
    }
    if system is not None:
        payload["system"] = system.name
        payload["params"] = dict(sorted(system.params.items()))
        if system.time_kind == CONTINUOUS and _entry(system).get("manifold") == dynamics._PARABOLA:
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
        named = _entry(system).get("eigenfunctions", {}) if system is not None else {}
        if name not in named:
            raise ValueError(f"no named eigenfunction '{args.named_observable}' for this "
                             "system (exp-neg-inv belongs to --system center-manifold)")
        fn = Eigenfunction(named[name], np.array([1.0]), ObservableLibrary(1, (name,)),
                           system.time_kind)
        payload["named_observable"] = name
        payload["named_observable_residual"] = verify_eigenfunction(fn, traj)
        print(f"{name} residual: {dynamics._fmt(payload['named_observable_residual'])}")

    path = out / f"{stem}_spectral.json"
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
    out = _resolve_out(args)
    system = _build_system(args)
    if system.input_map is None:
        raise ValueError(f"system '{system.name}' has no input; control needs an actuated system")
    x0 = _default_x0(system, args)
    q_scale, r_scale = args.q, args.r_cost
    if r_scale <= 0:
        raise ValueError("--r must be positive")
    params = dict(sorted(system.params.items()))
    params.update({"q": q_scale, "r": r_scale, "horizon": args.horizon, "dt": args.dt,
                   "x0": list(x0)})

    model = _canonical_lift(system)
    if q_scale == 0.0:
        # No state cost: zero input is optimal (J = 0) and the Riccati
        # solution is identically zero, so both gains vanish.
        payload = {
            "system": system.name, "params": params,
            "lqr_gain": [0.0, 0.0],
            "kooc_gain": [0.0] * len(model.library),
            "note": "zero state cost: optimal feedback is zero; simulation skipped",
        }
        path = out / "control_gains.json"
        dynamics._write_json(path, payload)
        print("zero state cost: gains are identically zero")
        print(f"wrote {path}")
        return 0

    q = q_scale * np.eye(system.dim)
    r = np.array([[r_scale]])
    result = compare_lqr_kooc(system, model, q, r, x0, args.horizon, dt=args.dt)

    lqr_path = out / "control_lqr.csv"
    kooc_path = out / "control_kooc.csv"
    write_trajectory(result.lqr_traj, lqr_path)
    write_trajectory(result.kooc_traj, kooc_path)
    costs_path = out / "control_costs.csv"
    dynamics._write_csv(costs_path, ["t", "j_lqr", "j_kooc", "j_lqr_script", "j_kooc_script"],
                        zip(result.times, result.lqr_cost, result.kooc_cost,
                            result.lqr_cost_script, result.kooc_cost_script))

    payload = {
        "system": system.name,
        "params": params,
        "library": model.library.names,
        "lqr_gain": [float(v) for v in result.lqr_gain.ravel()],
        "kooc_gain": [float(v) for v in result.kooc_controller.gain.ravel()],
        "final_cost_lqr": float(result.lqr_cost[-1]),
        "final_cost_kooc": float(result.kooc_cost[-1]),
        "ratio": result.ratio,
        "final_cost_lqr_script": float(result.lqr_cost_script[-1]),
        "final_cost_kooc_script": float(result.kooc_cost_script[-1]),
        "ratio_script": result.ratio_script,
    }
    gains_path = out / "control_gains.json"
    dynamics._write_json(gains_path, payload)

    if args.gnuplot:
        plt = out / "control.plt"
        plt.write_text("\n".join([
            "set datafile separator comma",
            "set key autotitle columnhead",
            "plot 'control_costs.csv' using 1:2 with lines, \\",
            "     'control_costs.csv' using 1:3 with lines",
        ]) + "\n")
        print(f"wrote {plt}")

    print(f"cost ratio (applied inputs): {dynamics._fmt(result.ratio)}")
    print(f"cost ratio (gain-substituted integrand): {dynamics._fmt(result.ratio_script)}")
    for path in (lqr_path, kooc_path, costs_path, gains_path):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _registry_epilog():
    info = dynamics.registry_info()
    width = max(len(name) for name in info)
    lines = [f"  {name.ljust(width)}  {text}" for name, text in info.items()]
    return "registry systems (hyphens and underscores are interchangeable):\n" + "\n".join(lines)


def _add_common(parser):
    parser.add_argument("--out", default=".", help="output directory (KOOPMANKIT_OUT overrides)")


def _add_params(parser):
    parser.add_argument("--mu", type=float, default=None, help="slow rate/multiplier")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="fast rate/multiplier")
    parser.add_argument("--angle", type=float, default=None,
                        help="coordinate tilt in radians (rotated-quad)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koopmankit",
        description="Finite Koopman-invariant linear representations: simulate, identify, "
                    "analyze spectra, and control benchmark nonlinear systems.",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate/iterate a registry system; "
                                        "quad-manifold adds lifted trajectories and surface grids",
                       epilog=_registry_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--system", required=True)
    _add_params(p)
    p.add_argument("--r", type=float, default=None, help="logistic growth rate")
    p.add_argument("--x0", default=None, help="comma-separated initial state (use --x0=-5,5 form)")
    p.add_argument("--horizon", type=float, default=None, help="continuous end time")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=None, help="discrete step count")
    p.add_argument("--rank", default=None,
                   help="comma-separated Carleman ranks (center-manifold comparison, "
                        "logistic divergence tables)")
    p.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="sparse regression + subspace refinement on "
                                        "simulated or supplied trajectory data",
                       epilog=_registry_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--system", required=True)
    _add_params(p)
    p.add_argument("--r", type=float, default=None, help="logistic growth rate")
    p.add_argument("--generate", action="store_true", help="simulate training data")
    p.add_argument("--data", nargs="+", default=None, help="trajectory CSV file(s)")
    p.add_argument("--degree", type=int, default=3, help="candidate monomial degree cap")
    p.add_argument("--threshold", type=float, default=0.025)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=0.005,
                   help="sampling step for generated data (finer than the simulate "
                        "default so derivative estimates do not limit recovery)")
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("spectral", help="eigenvalues, eigenfunction coefficients, and "
                                        "verification residuals of a lifted model",
                       epilog=_registry_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--system", default=None)
    p.add_argument("--model", default=None, help="KoopmanModel JSON instead of a registry system")
    _add_params(p)
    p.add_argument("--r", type=float, default=None, help="logistic growth rate")
    p.add_argument("--rank", default=None, help="Carleman rank (default 4)")
    p.add_argument("--named-observable", default=None,
                   help="verify a named closed-form eigenfunction (exp-neg-inv, "
                        "center-manifold only)")
    p.add_argument("--x0", default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("control", help="lifted-design optimal control vs standard LQR "
                                       "on the actuated benchmark",
                       epilog=_registry_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--system", default="kooc-demo")
    _add_params(p)
    p.add_argument("--q", type=float, default=1.0, help="state cost weight (Q = q*I)")
    p.add_argument("--r", dest="r_cost", type=float, default=1.0, help="input cost weight")
    p.add_argument("--x0", default=None, help="initial state (use --x0=-5,5 form)")
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script")
    _add_common(p)
    p.set_defaults(func=cmd_control)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
