"""The four benchmark workloads: seeded inputs, jobs, and output checks.

Every workload is a closed loop with one client: a pass runs the workload's
fixed list of job kinds in order, each job starting when the previous one
returns. The instances for pass ``p`` are drawn from
``numpy.random.default_rng([seed, workload_id, p])``, so the same seed gives
the same inputs and one run covers a fresh batch of instances per pass.

Jobs call the library through the ``koopmankit`` package namespace at call
time (``kk.integrate(...)``), never through names bound at import, so the
traced run sees every call when it wraps those functions.

A check returns ``None`` for a correct output and a short reason otherwise.
Tolerances are the ones the acceptance tests already pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# identification: the CLI's sampling step and horizon, and its STLSQ threshold
IDENT_DT = 0.005
IDENT_HORIZON = 10.0
IDENT_MAP_STEPS = 40
IDENT_THRESHOLD = 0.025
IDENT_ICS = 3
IDENT_SYSTEMS = (("quad_manifold", 3), ("quartic_manifold", 4), ("tu_map", 3))

# control: the paper's comparison (criterion 1 of the acceptance tests), and
# timed jobs from seeded starts near it over a fifth of its horizon
CONTROL_X0 = (-5.0, 5.0)
CONTROL_HORIZON = 50.0
CONTROL_DT = 0.01
CONTROL_RATIO = 0.2208
CONTROL_NEAR = 4
CONTROL_NEAR_HORIZON = 10.0

# lifting: 5,000 linear RK4 steps per continuous lift
LIFT_STEPS = 5000
LIFT_DT = 0.01
LIFT_RANKS = (4, 8, 12, 16)
LIFT_MAP_STEPS = 30
LIFT_TOL = 1e-6
EIGEN_TOL = 1e-4

# riccati: sizes timed in every pass, and sizes solved once per run outside
# the timed passes (see RiccatiWorkload)
RICCATI_SIZES = (3, 9, 20)
RICCATI_PER_SIZE = 24
RICCATI_PROBE = ((35, 2), (50, 3))
RICCATI_INPUTS = 2
CARE_TOL = 1e-8


def care_backward_error(a, b, q, r, p):
    """Relative backward error of P for A'P + PA - P B R^-1 B' P + Q = 0."""
    g = b @ np.linalg.solve(r, b.T)
    res = a.T @ p + p @ a - p @ g @ p + q
    norm = np.linalg.norm
    scale = norm(q) + 2.0 * norm(a) * norm(p) + norm(g) * norm(p) ** 2
    return float(norm(res) / scale)


def _is_hurwitz(mat):
    return bool(np.max(np.linalg.eigvals(mat).real) < 0.0)


def _support(rows, observables):
    """Set of (row, exponents) pairs with a nonzero coefficient."""
    return {(i, obs.exponents()) for i, row in enumerate(rows)
            for obs, c in zip(observables, row) if c != 0.0}


@dataclass
class Job:
    kind: str
    params: dict = field(default_factory=dict)


class Workload:
    """One workload: ``setup`` builds shared state, ``jobs`` one pass of inputs."""

    name = ""
    ident = 0
    # names of koopmankit errors that count as failed jobs, not wrong outputs
    refusals = ()
    # seconds of one pass on the reference core (calibrate.py); sets how many
    # passes a run of a given length makes, the same on every host
    pass_s = 1.0
    # the calibration kernel shaped like the workload's work (calibrate.py)
    calibration = "interp"

    def rng(self, seed, pass_index):
        return np.random.default_rng([seed, self.ident, pass_index])

    def setup(self, kk):
        return {}

    def jobs(self, seed, pass_index):
        raise NotImplementedError

    def probe_jobs(self, seed):
        """Jobs run once per run after the timed passes, outside the latencies."""
        return []

    def run(self, kk, state, job):
        raise NotImplementedError

    def check(self, state, job, out):
        raise NotImplementedError


class IdentifyWorkload(Workload):
    """``koopmankit identify --generate`` on three registry systems."""

    name = "identify"
    ident = 1
    pass_s = 1.1

    def setup(self, kk):
        return {name: kk.builtin(name) for name, _ in IDENT_SYSTEMS}

    def jobs(self, seed, pass_index):
        rng = self.rng(seed, pass_index)
        out = []
        for name, degree in IDENT_SYSTEMS:
            # The CLI's training grids span [-2, 2] (flows) and [-1, 1] (maps).
            # STLSQ thresholds each term's share of the signal, so starts with
            # small |x1| leave the slow x1 and x1^N terms below the threshold.
            scale = ((0.75, 1.0), (0.5, 1.0)) if name == "tu_map" else ((1.0, 2.0), (0.5, 2.0))
            signs = rng.choice((-1.0, 1.0), size=(IDENT_ICS, 2))
            ics = signs * np.column_stack([rng.uniform(lo, hi, IDENT_ICS) for lo, hi in scale])
            out.append(Job(name, {"degree": degree, "ics": ics}))
        return out

    def run(self, kk, state, job):
        system = state[job.kind]
        if system.time_kind == kk.DISCRETE:
            trajs = [kk.iterate(system, x0, IDENT_MAP_STEPS) for x0 in job.params["ics"]]
        else:
            trajs = [kk.integrate(system, x0, IDENT_HORIZON, dt=IDENT_DT)
                     for x0 in job.params["ics"]]
        data = kk.dataset_from_trajectories(trajs, system.time_kind)
        library = kk.monomials(system.dim, job.params["degree"])
        sparse = kk.sindy(data, library, threshold=IDENT_THRESHOLD)
        refined = kk.refine_subspace(sparse, data)
        residuals = [kk.invariance_residual(refined.model, traj) for traj in trajs]
        return {"sparse": sparse, "refined": refined, "residuals": residuals}

    def check(self, state, job, out):
        system = state[job.kind]
        sparse = out["sparse"]
        truth = {(i, e) for i, eq in enumerate(system.equations) for e in eq.terms}
        found = _support(sparse.coefficients, sparse.library.observables)
        if found != truth:
            return f"{job.kind}: recovered support {sorted(found)} != {sorted(truth)}"
        if not out["refined"].converged:
            return f"{job.kind}: subspace refinement did not converge"
        worst = max(out["residuals"])
        if not worst < 1e-5:
            return f"{job.kind}: max invariance residual {worst:.3e} >= 1e-5"
        return None


class ControlWorkload(Workload):
    """``koopmankit control``: KOOC against LQR on ``kooc_demo``.

    Timed jobs start near the paper's x0 = (-5, 5) and run 10 time units, so
    a run holds some fifty of them; a 50-unit comparison takes 1.6 s, and
    a run of those would hold too few jobs for a steady median. The paper's
    own comparison, x0 = (-5, 5) over 50 units, runs once per run after the
    timed passes and is checked against its pinned cost ratio.
    """

    name = "control"
    ident = 2
    pass_s = 1.4

    def setup(self, kk):
        system = kk.builtin("kooc_demo")
        p = system.params
        model = kk.slow_manifold_lift_ct(p["mu"], p["lambda"], {2: 1.0})
        return {"system": system, "model": model}

    def jobs(self, seed, pass_index):
        rng = self.rng(seed, pass_index)
        starts = np.asarray(CONTROL_X0) + rng.uniform(-0.5, 0.5, size=(CONTROL_NEAR, 2))
        return [Job("near", {"x0": x0, "horizon": CONTROL_NEAR_HORIZON}) for x0 in starts]

    def probe_jobs(self, seed):
        return [Job("paper", {"x0": np.asarray(CONTROL_X0), "horizon": CONTROL_HORIZON})]

    def run(self, kk, state, job):
        return kk.compare_lqr_kooc(state["system"], state["model"], np.eye(2), [[1.0]],
                                   job.params["x0"], job.params["horizon"], dt=CONTROL_DT)

    def check(self, state, job, out):
        model, system = state["model"], state["system"]
        kooc = out.kooc_controller
        b_lifted = np.zeros((len(model.library), 1))
        b_lifted[list(model.state_rows), :] = system.input_map
        q_lifted = np.zeros((len(model.library),) * 2)
        q_lifted[:2, :2] = np.eye(2)
        err = care_backward_error(model.K, b_lifted, q_lifted, np.eye(1), kooc.p)
        if not err <= CARE_TOL:
            return f"KOOC Riccati backward error {err:.3e} > {CARE_TOL:g}"
        if not np.allclose(kooc.gain, b_lifted.T @ kooc.p, rtol=1e-10, atol=1e-12):
            return "KOOC gain is not R^-1 B' P"
        a_lin = model.K[:2, :2]
        if not _is_hurwitz(a_lin - system.input_map @ out.lqr_gain):
            return "LQR closed loop is not Hurwitz"
        if job.kind == "paper":
            if not abs(out.ratio - CONTROL_RATIO) < 2e-3:
                return f"cost ratio {out.ratio:.5f} not within 2e-3 of {CONTROL_RATIO}"
            if not 0.25 <= out.ratio_script <= 0.40:
                return f"script cost ratio {out.ratio_script:.4f} outside [0.25, 0.40]"
        elif not out.ratio < 1.0:
            return f"KOOC did not beat LQR: cost ratio {out.ratio:.4f}"
        return None


def _manifold_reference(mu, lam, poly, x0, times):
    """Closed-form states of dx1 = mu*x1, dx2 = lam*(x2 - P(x1)).

    x1 = a*exp(mu t); x2 - sum c_N x1^N, with c_N = lam*a_N/(lam - N mu), is
    an eigenfunction with eigenvalue lam.
    """
    x1 = x0[0] * np.exp(mu * times)
    c = {n: lam * a / (lam - n * mu) for n, a in poly.items()}
    phi0 = x0[1] - sum(cn * x0[0] ** n for n, cn in c.items())
    x2 = phi0 * np.exp(lam * times) + sum(cn * x1 ** n for n, cn in c.items())
    return np.column_stack([x1, x2])


class LiftWorkload(Workload):
    """``simulate`` and ``spectral``: exact lifts and Carleman truncations."""

    name = "lift"
    ident = 3
    pass_s = 0.5
    manifolds = {"quad_manifold": {2: 1.0}, "quartic_manifold": {2: -2.0, 4: 1.0}}

    def setup(self, kk):
        return {name: kk.builtin(name) for name in
                (*self.manifolds, "center_manifold", "logistic")}

    def jobs(self, seed, pass_index):
        rng = self.rng(seed, pass_index)
        out = []
        for name in self.manifolds:
            x0 = np.array([rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
                           rng.uniform(-2.0, 2.0)])
            out.append(Job(name, {"x0": x0}))
        out.append(Job("center_manifold", {"x0": rng.uniform(0.2, 0.5)}))
        out.append(Job("logistic", {"x0": rng.uniform(0.1, 0.9)}))
        return out

    def run(self, kk, state, job):
        """One result per model: the exact lift, or the Carleman truncation at each rank."""
        system = state[job.kind]
        p = system.params
        x0 = np.atleast_1d(job.params["x0"])
        if job.kind in self.manifolds:
            model = kk.slow_manifold_lift_ct(p["mu"], p["lambda"], self.manifolds[job.kind])
            residual = kk.closure_residual(model, system)
            lifted = kk.propagate(model, x0, t_end=LIFT_STEPS * LIFT_DT, dt=LIFT_DT)
            states = kk.project_states(model, lifted)
            reference = kk.Trajectory(lifted.times, _manifold_reference(
                p["mu"], p["lambda"], self.manifolds[job.kind], x0, lifted.times))
            eig_residuals = [kk.verify_eigenfunction(fn, reference)
                             for fn in kk.eigenfunctions(model)]
            return [{"residual": residual, "states": states, "reference": reference.states,
                     "eig_residuals": eig_residuals}]
        out = []
        for rank in LIFT_RANKS:
            if job.kind == "center_manifold":
                model = kk.carleman_center(rank)
                horizon = 0.8 / x0[0]
                lifted = kk.propagate(model, x0, t_end=horizon, dt=horizon / LIFT_STEPS)
                # the truncated generator is nilpotent: its exact solution is the
                # rank-term partial sum of x0/(1 - x0 t) = sum_k x0^k t^(k-1)
                reference = sum(x0[0] ** k * lifted.times ** (k - 1) for k in range(1, rank + 1))
            else:
                model = kk.carleman_logistic(p["r"], rank)
                lifted = kk.propagate(model, x0, steps=LIFT_MAP_STEPS)
                # only the first step is exact for a truncation: row 1 is r*x - r*x^2
                reference = np.array([x0[0], p["r"] * x0[0] * (1.0 - x0[0])])
            residual = kk.closure_residual(model, system, truncate=True)
            states = kk.project_states(model, lifted)[: len(reference), 0]
            out.append({"residual": residual, "states": states, "reference": reference})
        return out

    def check(self, state, job, out):
        for result in out:
            if result["residual"] != 0.0:
                return f"{job.kind}: closure residual {result['residual']!r} is not exactly 0"
            ref = np.asarray(result["reference"])
            err = float(np.max(np.abs(result["states"] - ref) / np.maximum(np.abs(ref), 1.0)))
            if not err < LIFT_TOL:
                return f"{job.kind}: projected states off the closed form by {err:.3e}"
            worst = max(result.get("eig_residuals", [0.0]))
            if not worst < EIGEN_TOL:
                return f"{job.kind}: eigenfunction residual {worst:.3e} >= {EIGEN_TOL:g}"
        return None


class RiccatiWorkload(Workload):
    """``solve_care`` on random pairs A = randn/sqrt(m), B = randn (m x 2), Q = I, R = I.

    Sizes 3, 9 and 20 run in every timed pass. Sizes 35 and 50 are solved once
    per run after the timed passes (``probe_jobs``) and count in the run's
    attempted and failed jobs and its peak memory, but not in its latencies:
    at these sizes the solver's time depends on whether it refuses early, and
    too few solves fit in a run to give a steady figure.

    Its time goes to dense LAPACK solves (the Kronecker Lyapunov step), so its
    times are scaled by the ``dense`` calibration kernel.
    """

    name = "riccati"
    ident = 4
    pass_s = 1.0
    calibration = "dense"
    refusals = ("NumericsError",)

    def _pairs(self, rng, sizes):
        out = []
        for m, count in sizes:
            for _ in range(count):
                a = rng.standard_normal((m, m)) / np.sqrt(m)
                b = rng.standard_normal((m, RICCATI_INPUTS))
                out.append(Job(f"m{m}", {"a": a, "b": b}))
        return out

    def jobs(self, seed, pass_index):
        return self._pairs(self.rng(seed, pass_index),
                           [(m, RICCATI_PER_SIZE) for m in RICCATI_SIZES])

    def probe_jobs(self, seed):
        return self._pairs(self.rng(seed, -1 % 2**32), RICCATI_PROBE)

    def run(self, kk, state, job):
        a, b = job.params["a"], job.params["b"]
        return kk.solve_care(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))

    def check(self, state, job, out):
        a, b = job.params["a"], job.params["b"]
        q, r = np.eye(a.shape[0]), np.eye(b.shape[1])
        err = care_backward_error(a, b, q, r, out)
        if not err <= CARE_TOL:
            return f"{job.kind}: relative backward error {err:.3e} > {CARE_TOL:g}"
        if not _is_hurwitz(a - b @ np.linalg.solve(r, b.T @ out)):
            return f"{job.kind}: closed loop A - BK is not Hurwitz"
        return None


WORKLOADS = {w.name: w for w in (IdentifyWorkload(), ControlWorkload(), LiftWorkload(),
                                 RiccatiWorkload())}
