"""Linear-quadratic control in state space and in lifted observable space.

The Riccati solver combines the Hamiltonian stable-subspace construction with
a Newton refinement whose Lyapunov steps are solved directly through a
Kronecker linear system, so it has no dependencies beyond dense linear
algebra. Controllers designed on a lifted model feed back on observables:
u = -C Theta(x), which is a nonlinear state feedback whenever the gain
touches a nonlinear observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, PolySystem, Trajectory, integrate
from .exceptions import NotStabilizable, NumericsError
from .lifting import KoopmanModel, eval_library

_NEWTON_MAX_ITER = 25
_RESIDUAL_RTOL = 1e-8


def _symmetric(mat, name, psd=False, pd=False):
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    if psd or pd:
        w = np.linalg.eigvalsh(m)
        bound = -1e-10 * max(1.0, float(np.max(np.abs(w))))
        if pd and w.min() <= 0:
            raise ValueError(f"{name} must be positive definite")
        if psd and w.min() < bound:
            raise ValueError(f"{name} must be positive semidefinite")
    return m


@dataclass
class LqrProblem:
    """Continuous-time LQR data: dx/dt = a x + b u, cost integrand x'q x + u'r u."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if b.shape[0] == 1 and a.shape[0] != 1:
            b = b.T
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError("b must have one row per state")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("a and b must be finite")
        self.a = a
        self.b = b
        self.q = _symmetric(self.q, "q", psd=True)
        self.r = _symmetric(self.r, "r", pd=True)
        if self.q.shape[0] != a.shape[0]:
            raise ValueError("q must match the state dimension")
        if self.r.shape[0] != b.shape[1]:
            raise ValueError("r must match the input dimension")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]


def care_residual(a, b, q, r, p) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    rinv_bt = np.linalg.solve(r, b.T)
    res = a.T @ p + p @ a - p @ b @ rinv_bt @ p + q
    return float(np.linalg.norm(res))


def _lyapunov_solve(a_cl, rhs):
    """Solve a_cl' X + X a_cl = rhs for symmetric X via a Kronecker system."""
    n = a_cl.shape[0]
    eye = np.eye(n)
    coeff = np.kron(a_cl.T, eye) + np.kron(eye, a_cl.T)
    x = np.linalg.solve(coeff, rhs.reshape(-1)).reshape(n, n)
    return 0.5 * (x + x.T)


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Builds the Hamiltonian [[A, -B R^-1 B'], [-Q, -A']], spans its stable
    invariant subspace by eigenvectors, recovers P = X2 X1^-1, then polishes
    with Newton iterations (each a closed-loop Lyapunov solve). Raises
    :class:`NumericsError` if the stable subspace is deficient or the
    residual gate is missed.
    """
    prob = LqrProblem(a, b, q, r)
    a, b, q, r = prob.a, prob.b, prob.q, prob.r
    n = prob.n
    rinv_bt = np.linalg.solve(r, b.T)

    ham = np.block([[a, -b @ rinv_bt], [-q, -a.T]])
    w, v = np.linalg.eig(ham)
    stable = np.where(w.real < 0)[0]
    if stable.size != n:
        raise NumericsError(
            f"Hamiltonian stable subspace has dimension {stable.size}, expected {n}; "
            "the problem may not admit a stabilizing solution"
        )
    basis = v[:, stable]
    x1, x2 = basis[:n, :], basis[n:, :]
    if np.linalg.matrix_rank(x1, tol=1e-12 * max(1.0, float(np.abs(x1).max()))) < n:
        raise NumericsError("stable subspace is not a graph over the state block")
    p = np.real(x2 @ np.linalg.inv(x1))
    p = 0.5 * (p + p.T)

    scale = max(1.0, float(np.linalg.norm(q)))
    best_p, best_res = p, care_residual(a, b, q, r, p)
    stalled = 0
    for _ in range(_NEWTON_MAX_ITER):
        if best_res <= 1e-13 * scale:
            break
        gain = rinv_bt @ p
        a_cl = a - b @ gain
        p = _lyapunov_solve(a_cl, -(q + gain.T @ r @ gain))
        res = care_residual(a, b, q, r, p)
        if res < best_res:
            best_p, best_res = p, res
            stalled = 0
        else:
            # Near the rounding floor the iteration dithers; give it a few
            # chances before settling on the best iterate seen.
            stalled += 1
            if stalled >= 3:
                break
    if best_res > _RESIDUAL_RTOL * scale:
        raise NumericsError(
            f"Riccati residual {best_res:.3e} exceeds gate {_RESIDUAL_RTOL * scale:.3e}"
        )
    return best_p


def lqr_gain(a, b, q, r):
    """Optimal feedback u = -C x. Returns (C, P)."""
    prob = LqrProblem(a, b, q, r)
    p = solve_care(prob.a, prob.b, prob.q, prob.r)
    gain = np.linalg.solve(prob.r, prob.b.T @ p)
    return gain, p


def pbh_unstabilizable_modes(a, b, tol=1e-9, rank_rcond=1e-10):
    """Eigenvalues of ``a`` with Re >= -tol at which [A - lam I, B] loses rank."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] == 1 and a.shape[0] != 1:
        b = b.T
    n = a.shape[0]
    bad = []
    for lam in np.linalg.eigvals(a):
        if lam.real < -tol:
            continue
        pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
        s = np.linalg.svd(pencil, compute_uv=False)
        rank = int(np.sum(s > rank_rcond * max(1.0, float(s[0]))))
        if rank < n:
            bad.append(complex(lam))
    return bad


def _dominant_observable(model: KoopmanModel, eigenvalue) -> str:
    """Library name of the largest component of the right eigenvector."""
    pairs = numerics.eig(model.K)
    idx = int(np.argmin(np.abs(pairs.eigenvalues - eigenvalue)))
    comp = int(np.argmax(np.abs(pairs.right_vectors[:, idx])))
    return model.library.names[comp]


@dataclass
class KoocController:
    """Observable feedback u = -gain . Theta(x) from a lifted LQR design."""

    model: KoopmanModel
    gain: np.ndarray
    p: np.ndarray

    def feedback(self, x):
        theta = eval_library(self.model.library, np.asarray(x, dtype=float))
        return -(self.gain @ theta)

    def __call__(self, x):
        return self.feedback(x)


def kooc_synthesize(model: KoopmanModel, b_lifted, q_state, r,
                    q_lifted=None) -> KoocController:
    """LQR design on the lifted linear model.

    ``b_lifted`` is the input map in observable space (one row per library
    entry). ``q_state`` is the state cost; it is embedded into observable
    space on the model's state rows (pass ``q_lifted`` to weight observables
    directly instead). Stabilizability of the lifted pair is checked mode by
    mode first; failure raises :class:`NotStabilizable` naming the offending
    eigenvalues and the observables their eigenvectors live on.
    """
    if model.time_kind != CONTINUOUS:
        raise ValueError("lifted LQR design requires a continuous-time model")
    m = len(model.library)
    b = np.atleast_2d(np.asarray(b_lifted, dtype=float))
    if b.shape[0] == 1 and m != 1:
        b = b.T
    if b.shape[0] != m:
        raise ValueError("b_lifted must have one row per observable")

    if q_lifted is not None:
        q = _symmetric(q_lifted, "q_lifted", psd=True)
        if q.shape[0] != m:
            raise ValueError("q_lifted must match the library size")
    else:
        n = model.state_dim
        q_state = _symmetric(q_state, "q_state", psd=True)
        if q_state.shape[0] != n:
            raise ValueError("q_state must match the state dimension")
        q = np.zeros((m, m))
        rows = np.asarray(model.state_rows)
        q[np.ix_(rows, rows)] = q_state

    modes = pbh_unstabilizable_modes(model.K, b)
    if modes:
        names = tuple(_dominant_observable(model, lam) for lam in modes)
        listing = ", ".join(
            f"{lam.real:g}{'' if abs(lam.imag) < 1e-12 else f'{lam.imag:+g}j'} (on {name})"
            for lam, name in zip(modes, names)
        )
        raise NotStabilizable(
            f"lifted pair has unstabilizable unstable modes: {listing}",
            modes=tuple(modes), observables=names,
        )

    if not q.any():
        # Zero state cost: u = 0 achieves the infimum J = 0, and P = 0 is the
        # minimal nonnegative Riccati solution, so the gain vanishes.
        return KoocController(model=model, gain=np.zeros((b.shape[1], m)),
                              p=np.zeros((m, m)))

    p = solve_care(model.K, b, q, np.atleast_2d(np.asarray(r, dtype=float)))
    gain = np.linalg.solve(np.atleast_2d(np.asarray(r, dtype=float)), b.T @ p)
    return KoocController(model=model, gain=gain, p=p)


def closed_loop_cost(traj: Trajectory, q, r):
    """Cumulative quadratic cost J(t) = int_0^t (x'q x + u'r u) dtau.

    Trapezoidal accumulation on the trajectory's time grid; J(0) = 0. The
    trajectory must carry the applied inputs.
    """
    if traj.inputs is None:
        raise ValueError("trajectory has no recorded inputs; integrate with a controller")
    q = _symmetric(q, "q", psd=True)
    r = _symmetric(r, "r", pd=True)
    return _trapezoid_cost(traj.times, traj.states, traj.inputs, q, r)


def _gain_cost(traj: Trajectory, gain, q, r):
    """Cost along a trajectory with u replaced by ``gain``-feedback in the integrand."""
    return _trapezoid_cost(traj.times, traj.states, -(traj.states @ gain.T), q, r)


def _trapezoid_cost(times, x, u, q, r):
    integrand = np.einsum("ki,ij,kj->k", x, q, x) + np.einsum("ki,ij,kj->k", u, r, u)
    gaps = np.diff(times)
    cost = np.zeros(len(times))
    cost[1:] = np.cumsum(0.5 * gaps * (integrand[1:] + integrand[:-1]))
    return cost


@dataclass
class ComparisonResult:
    """Closed-loop comparison of state-space LQR against lifted-design KOOC."""

    times: np.ndarray
    lqr_traj: Trajectory
    kooc_traj: Trajectory
    lqr_cost: np.ndarray
    kooc_cost: np.ndarray
    ratio: float
    lqr_cost_script: np.ndarray
    kooc_cost_script: np.ndarray
    ratio_script: float
    lqr_gain: np.ndarray
    kooc_controller: KoocController

    @property
    def final_costs(self):
        return float(self.lqr_cost[-1]), float(self.kooc_cost[-1])


def compare_lqr_kooc(system: PolySystem, model: KoopmanModel, q, r, x0,
                     horizon, dt=0.01) -> ComparisonResult:
    """Run both controllers on the true nonlinear system and cost them.

    The LQR gain comes from the model's state-block linearization with the
    system's own input map; the KOOC gain comes from the full lifted design
    with that input map embedded on the state rows. Each closed loop is
    costed with the inputs it actually applied (``ratio`` = KOOC/LQR final
    cost). A second pair of series re-costs both trajectories with the LQR
    gain substituted into the integrand — a convention some published
    comparisons use — reported separately as the ``_script`` fields.
    """
    if system.input_map is None:
        raise ValueError("system has no input map")
    if system.time_kind != CONTINUOUS or model.time_kind != CONTINUOUS:
        raise ValueError("comparison requires continuous time")
    n = system.dim
    if model.state_dim != n:
        raise ValueError("model state dimension must match the system")
    q = _symmetric(q, "q", psd=True)
    r = _symmetric(r, "r", pd=True)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")

    rows = np.asarray(model.state_rows)
    a_lin = model.K[np.ix_(rows, np.arange(n))]
    b = system.input_map
    c_lqr, _ = lqr_gain(a_lin, b, q, r)

    m = len(model.library)
    b_lifted = np.zeros((m, b.shape[1]))
    b_lifted[rows, :] = b
    kooc = kooc_synthesize(model, b_lifted, q, r)

    lqr_traj = integrate(system, x0, horizon, dt=dt, controller=lambda x: -(c_lqr @ x))
    kooc_traj = integrate(system, x0, horizon, dt=dt, controller=kooc)

    lqr_cost = closed_loop_cost(lqr_traj, q, r)
    kooc_cost = closed_loop_cost(kooc_traj, q, r)
    denom = float(lqr_cost[-1])
    ratio = 1.0 if denom == 0.0 else float(kooc_cost[-1]) / denom

    lqr_script = _gain_cost(lqr_traj, c_lqr, q, r)
    kooc_script = _gain_cost(kooc_traj, c_lqr, q, r)
    denom_script = float(lqr_script[-1])
    ratio_script = 1.0 if denom_script == 0.0 else float(kooc_script[-1]) / denom_script

    return ComparisonResult(
        times=lqr_traj.times, lqr_traj=lqr_traj, kooc_traj=kooc_traj,
        lqr_cost=lqr_cost, kooc_cost=kooc_cost, ratio=ratio,
        lqr_cost_script=lqr_script, kooc_cost_script=kooc_script,
        ratio_script=ratio_script, lqr_gain=c_lqr, kooc_controller=kooc,
    )
