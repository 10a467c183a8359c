"""koopmankit benchmark: one seeded workload per invocation, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload identify --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``identify``, ``control``, ``lift`` and
``riccati``. The run times a fixed number of whole passes over the
workload's job list, as many as fill ``--seconds`` at the workload's
reference pass time (``Workload.pass_s``), checks every job's output, and
prints its figures as ``name = value unit`` lines, then one JSON object as the
last line: ``{"correct", "attempted", "failed", "metrics"}``. The pass count
depends only on the workload and ``--seconds``, never on how fast the host
runs, so the same seed attempts the same jobs and fails the same ones in every
run.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``). ``--trace 1``
spends the first half of the time untraced and the second half with every
public library function wrapped (``tracing.py``), and reports the per-layer
metrics (``PER_LAYER``); its spans are written to ``perfbench/out/``.
Per-layer counts and times are per traced pass, except the
per-size ``solve_care`` times (per call) and the ratios.

End-to-end times are scaled by a calibration kernel shaped like the
workload's work and timed between jobs (``calibrate.py``), which cancels most
of the drift in a shared host's speed; the median scale factor is printed
alongside.

Once per invocation, after the timed passes, the four default CLI
subcommands run in-process and their artifacts are hashed against
``cli_artifacts.json`` (``cli_fingerprint.py``).

BLAS and OpenMP are pinned to one thread before numpy is imported, and all
load comes from this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_SAMPLES = 11
GRID = (3, 9, 20, 35, 50)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "polynomials.eval.calls": ("count", "lower"),
    "polynomials.eval.points_per_call": ("count", "higher"),
    "polynomials.eval.self_s": ("s", "lower"),
    "polynomials.algebra.self_s": ("s", "lower"),
    "dynamics.integrate.calls": ("count", "lower"),
    "dynamics.integrate.self_s": ("s", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.rk4_steps_per_s": ("1/s", "higher"),
    "dynamics.iterate.self_s": ("s", "lower"),
    "lifting.eval_library.calls": ("count", "lower"),
    "lifting.eval_library.self_s": ("s", "lower"),
    "lifting.propagate.self_s": ("s", "lower"),
    "lifting.propagate_steps_per_s": ("1/s", "higher"),
    "lifting.closure_residual.self_s": ("s", "lower"),
    "identification.dataset.self_s": ("s", "lower"),
    "identification.sindy.self_s": ("s", "lower"),
    "identification.sindy.lstsq_calls": ("count", "lower"),
    "identification.refine_subspace.self_s": ("s", "lower"),
    "identification.refine.rounds": ("count", "lower"),
    "identification.refined_m": ("count", "lower"),
    "identification.invariance_residual.self_s": ("s", "lower"),
    "spectral.eigenfunctions.self_s": ("s", "lower"),
    "spectral.verify_eigenfunction.self_s": ("s", "lower"),
    "numerics.lstsq.calls": ("count", "lower"),
    "numerics.lstsq.self_s": ("s", "lower"),
    "numerics.eig.self_s": ("s", "lower"),
    "control.solve_care.calls": ("count", "lower"),
    "control.solve_care.failed": ("count", "lower"),
    "control.solve_care.self_s": ("s", "lower"),
    **{f"control.solve_care.m{m}.self_s": ("s", "lower") for m in GRID},
    "control.care_rel_backward_error.max": ("ratio", "lower"),
    "control.lqr_gain.self_s": ("s", "lower"),
    "control.kooc_synthesize.self_s": ("s", "lower"),
    "control.feedback.calls": ("count", "lower"),
    "control.closed_loop_cost.self_s": ("s", "lower"),
    "control.compare_lqr_kooc.self_s": ("s", "lower"),
    **{f"cli.{sub}.wall_s": ("s", "lower") for sub in ("simulate", "identify", "spectral",
                                                          "control")},
    "cli.artifacts_changed": ("count", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}

# per-layer name -> traced function whose per-pass self time it reports
SELF_TIMES = {
    "polynomials.eval.self_s": "polynomials.Polynomial.__call__",
    "dynamics.integrate.self_s": "dynamics.integrate",
    "dynamics.iterate.self_s": "dynamics.iterate",
    "lifting.eval_library.self_s": "lifting.eval_library",
    "lifting.propagate.self_s": "lifting.propagate",
    "lifting.closure_residual.self_s": "lifting.closure_residual",
    "identification.dataset.self_s": "identification.dataset_from_trajectories",
    "identification.sindy.self_s": "identification.sindy",
    "identification.refine_subspace.self_s": "identification.refine_subspace",
    "identification.invariance_residual.self_s": "identification.invariance_residual",
    "spectral.eigenfunctions.self_s": "spectral.eigenfunctions",
    "spectral.verify_eigenfunction.self_s": "spectral.verify_eigenfunction",
    "numerics.lstsq.self_s": "numerics.lstsq",
    "numerics.eig.self_s": "numerics.eig",
    "control.solve_care.self_s": "control.solve_care",
    "control.lqr_gain.self_s": "control.lqr_gain",
    "control.kooc_synthesize.self_s": "control.kooc_synthesize",
    "control.closed_loop_cost.self_s": "control.closed_loop_cost",
    "control.compare_lqr_kooc.self_s": "control.compare_lqr_kooc",
}
CALLS = {
    "polynomials.eval.calls": "polynomials.Polynomial.__call__",
    "dynamics.integrate.calls": "dynamics.integrate",
    "lifting.eval_library.calls": "lifting.eval_library",
    "numerics.lstsq.calls": "numerics.lstsq",
    "control.solve_care.calls": "control.solve_care",
    "control.feedback.calls": "control.KoocController.feedback",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it, and exit")
    return parser.parse_args(argv)


def import_library():
    """Import koopmankit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "koopmankit" / "__init__.py").is_file():
        fail(f"no koopmankit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import koopmankit

    if pathlib.Path(koopmankit.__file__).resolve().parent != SRC / "koopmankit":
        fail(f"imported koopmankit from {koopmankit.__file__}, not from {SRC}")
    return koopmankit


def setup(workload_name, seed):
    """Import the library and build the workload's state and first inputs."""
    start = perf_counter()
    kk = import_library()
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        fail(f"unknown workload '{workload_name}'; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    state = workload.setup(kk)
    first = workload.jobs(seed, 0)
    return kk, workload, state, first, perf_counter() - start


def setup_samples(args, count):
    """Set-up seconds, each timed in a fresh process."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Job outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.factors = []

    def job(self, kk, workload, state, job):
        refusals = tuple(getattr(kk, name) for name in workload.refusals)
        self.attempted += 1
        start = perf_counter()
        try:
            out = workload.run(kk, state, job)
        except kk.KoopmankitError as exc:
            elapsed = perf_counter() - start
            self.failed += 1
            if not isinstance(exc, refusals):
                self.wrong.append(f"{job.kind}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = perf_counter() - start
        reason = workload.check(state, job, out)
        if reason is not None:
            self.failed += 1
            self.wrong.append(reason)
        return elapsed

    def run_passes(self, kk, workload, state, seed, count, first_pass, first_jobs=None):
        """``count`` whole passes, from pass index ``first_pass`` on.

        Returns each pass's job latencies, scaled to the workload's
        calibration kernel (``calibrate.py``), and the index of the next pass.
        The scale factors used are appended to ``self.factors``.
        """
        from calibrate import Calibrated

        calibrated = Calibrated(workload.calibration)
        passes = []
        for index in range(first_pass, first_pass + count):
            jobs = first_jobs if first_jobs is not None else workload.jobs(seed, index)
            first_jobs = None
            times = []
            passes.append(times)
            for job in jobs:
                times.append(self.job(kk, workload, state, job))
                calibrated.add(times, len(times) - 1)
        calibrated.close()
        self.factors.extend(calibrated.factors)
        return passes, first_pass + count


def pass_count(workload, seconds):
    """Passes that fill ``seconds`` at the workload's reference pass time."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def tail(latencies):
    """(value, percentile, jobs beyond) at the highest percentile with ten jobs beyond it.

    A run with fewer than 21 jobs has too few for that; its tail is taken
    with (n - 1) // 2 jobs beyond, which never falls below the median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_metadata(kk):
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "koopmankit": kk.__version__,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


# -- traced run -------------------------------------------------------------

def _note_points(tracer, args, result, self_s):
    shape = getattr(args[1], "shape", None)
    tracer.add("eval.points", shape[1] if shape is not None and len(shape) == 2 else 1)


def _note_steps(key):
    def note(tracer, args, result, self_s):
        if result is not None:
            tracer.add(key, len(result) - 1)
    return note


def _note_refine(tracer, args, result, self_s):
    if result is not None:
        tracer.add("refine.rounds", result.rounds)
        tracer.add("refined_m", len(result.model.library))


def _note_care(tracer, args, result, self_s):
    from workloads import care_backward_error
    import numpy as np

    a, b, q, r = (np.atleast_2d(np.asarray(v, dtype=float)) for v in args[:4])
    m = a.shape[0]
    tracer.add(f"care.m{m}.calls")
    tracer.add(f"care.m{m}.self_s", self_s)
    if result is not None:
        b = b.T if b.shape[0] == 1 and m != 1 else b
        err = care_backward_error(a, b, q, r, result)
        tracer.values["care.rel_err.max"] = max(tracer.values.get("care.rel_err.max", 0.0), err)


NOTES = {
    "polynomials.Polynomial.__call__": _note_points,
    "dynamics.integrate": _note_steps("integrate.steps"),
    "lifting.propagate": _note_steps("propagate.steps"),
    "identification.refine_subspace": _note_refine,
    "control.solve_care": _note_care,
}


def per_pass_metrics(tracer, passes):
    """Per-layer metrics of the traced passes, before anything else runs traced."""
    stats, values = tracer.stats, tracer.values
    out = {name: stats[fn].self_s / passes for name, fn in SELF_TIMES.items()}
    out.update({name: stats[fn].calls / passes for name, fn in CALLS.items()})
    evals = stats["polynomials.Polynomial.__call__"].calls
    refines = stats["identification.refine_subspace"].calls
    integrate = stats["dynamics.integrate"].total_s
    propagate = stats["lifting.propagate"].total_s
    out.update({
        "polynomials.eval.points_per_call": values.get("eval.points", 0) / evals if evals else 0.0,
        "polynomials.algebra.self_s": (stats["polynomials.Polynomial.lie_derivative"].self_s
                                       + stats["polynomials.Polynomial.compose"].self_s) / passes,
        "dynamics.rk4_steps": values.get("integrate.steps", 0) / passes,
        "dynamics.rk4_steps_per_s": values.get("integrate.steps", 0) / integrate if integrate else 0.0,
        "lifting.propagate_steps_per_s":
            values.get("propagate.steps", 0) / propagate if propagate else 0.0,
        "identification.sindy.lstsq_calls":
            tracer.child_calls("identification.sindy", "numerics.lstsq") / passes,
        "identification.refine.rounds": values.get("refine.rounds", 0) / refines if refines else 0.0,
        "identification.refined_m": values.get("refined_m", 0) / refines if refines else 0.0,
        "control.solve_care.failed": stats["control.solve_care"].failed / passes,
    })
    return out


def per_call_metrics(tracer):
    """Per-size Riccati figures, over every traced solve (probe included)."""
    values = tracer.values
    out = {}
    for m in GRID:
        calls = values.get(f"care.m{m}.calls", 0)
        out[f"control.solve_care.m{m}.self_s"] = (
            values[f"care.m{m}.self_s"] / calls if calls else 0.0)
    out["control.care_rel_backward_error.max"] = values.get("care.rel_err.max", 0.0)
    return out


# -- main -------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    kk, workload, state, first_jobs, first_setup = setup(args.workload, args.seed)
    from calibrate import scaled_once

    first_setup = scaled_once(first_setup)
    if args.setup_only:
        print(repr(first_setup))
        return 0
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import tracing
    from cli_fingerprint import changed, fingerprint, recorded

    meta = run_metadata(kk)
    print("run: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace, **meta}))
    # half the fresh-process set-ups before the passes and half after, so
    # that one slow spell of the host does not hold them all
    setups = [first_setup, *setup_samples(args, SETUP_SAMPLES // 2)]

    tally = Tally()
    count = pass_count(workload, args.seconds / 2 if args.trace else args.seconds)
    passes, next_pass = tally.run_passes(kk, workload, state, args.seed, count, 0, first_jobs)
    layer = {}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(NOTES).install()
        traced, _ = tally.run_passes(kk, workload, state, args.seed, count, next_pass)
        layer = per_pass_metrics(tracer, len(traced))
        layer["trace_overhead_ratio"] = (statistics.median(sum(p) for p in traced)
                                         / statistics.median(sum(p) for p in passes))
    probe = [(job.kind, tally.job(kk, workload, state, job))
             for job in workload.probe_jobs(args.seed)]
    rss = peak_rss_mb()
    if tracer is not None:
        layer.update(per_call_metrics(tracer))
        tracer.uninstall()
    setups += setup_samples(args, SETUP_SAMPLES - len(setups))

    hashes, cli_walls = fingerprint(OUT)
    diffs = changed(hashes, recorded())
    layer.update({f"cli.{sub}.wall_s": wall for sub, wall in cli_walls.items()})
    layer["cli.artifacts_changed"] = len(diffs)

    timed = [t for p in passes for t in p]
    tail_value, tail_pct, beyond = tail(timed)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p) for p in passes),
        "job_p50_s": statistics.median(timed),
        "job_tail_s": tail_value,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": rss,
    }

    print(f"passes: {len(passes)} untraced" + (f", {len(traced)} traced" if args.trace else ""))
    print(f"calibration: {workload.calibration} kernel, median scale factor "
          f"{statistics.median(tally.factors):.4g} over {len(tally.factors)} brackets")
    print(f"jobs: {len(timed)} timed; job_tail_s is p{tail_pct:.1f} "
          f"({beyond} jobs beyond it)")
    for kind, seconds in probe:
        print(f"probe (untimed): {kind} took {seconds:.3f} s")
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} jobs, probes included)")
    for reason in tally.wrong[:20]:
        print(f"wrong output: {reason}")
    print("cli artifacts: " + ("unchanged" if not diffs else "changed: " + ", ".join(diffs)))

    shown = layer if args.trace else e2e
    table = PER_LAYER if args.trace else END_TO_END
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {table[name][0]}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"run": meta, "metrics": layer,
                                    "spans": tracer.span_records()}))
        print(f"spans: {len(tracer.spans)} written to {path}")

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(shown[name]), "unit": table[name][0]}
                    for name in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
