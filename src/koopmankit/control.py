"""Linear-quadratic control in state space and in lifted observable space.

The Riccati solver rests on one primitive, the determinant-scaled Newton
iteration for the matrix sign function (Roberts 1971; Byers 1987): the sign
of the Hamiltonian gives the stabilizing solution, and the sign of a block
triangular matrix gives each Lyapunov solve of its Newton defect-correction
polish (Kleinman 1968). It needs nothing beyond dense inverses and
determinants, and its cost grows as m^3 in the state size m. Controllers
designed on a lifted model feed back on observables: u = -C Theta(x), which
is a nonlinear state feedback whenever the gain touches a nonlinear
observable.

When every observable is a polynomial, both laws a comparison runs, -C x and
-C Theta(x), are polynomials in x, and so is each closed loop f(x) + B u(x).
:func:`compare_lqr_kooc` is the one place a closed loop is formed: it builds
each as one :class:`~koopmankit.dynamics.PolySystem` and integrates it like
any other field; the applied inputs are one column evaluation of the law at
the sample states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, DEFAULT_DT, PolySystem, Trajectory, _initial_state, integrate
from .exceptions import NotStabilizable, NumericsError
from .lifting import KoopmanModel, eval_library, monomials
from .polynomials import PolynomialMap

_SIGN_TOL = 1e-12
_SIGN_MAX_ITER = 100
_POLISH_STEPS = 4
_BACKWARD_ERROR_TOL = 1e-8


def _pair(a, b):
    """``a`` and ``b`` as float arrays: ``a`` square, ``b`` one row per state, both finite."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a must be square")
    if b.shape[0] != a.shape[0]:
        raise ValueError("b must have one row per state")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("a and b must be finite")
    return a, b


def _symmetric(mat, name, definite):
    """``mat`` symmetrized, checked positive definite if ``definite``, else semidefinite."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * (m + m.T)
    w = np.linalg.eigvalsh(m)
    if definite and w.min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    if not definite and w.min() < -1e-10 * max(1.0, float(np.max(np.abs(w)))):
        raise ValueError(f"{name} must be positive semidefinite")
    return m


@dataclass
class LqrProblem:
    """Continuous-time LQR data: dx/dt = a x + b u, cost integrand x'q x + u'r u.

    Construction validates every field once; ``b`` needs one row per state,
    and ``q`` and ``r`` are symmetrized.
    """

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.a, self.b = _pair(self.a, self.b)
        self.q = _symmetric(self.q, "q", definite=False)
        self.r = _symmetric(self.r, "r", definite=True)
        if self.q.shape[0] != self.n:
            raise ValueError("q must match the state dimension")
        if self.r.shape[0] != self.b.shape[1]:
            raise ValueError("r must match the input dimension")

    @property
    def n(self):
        return self.a.shape[0]


def _matrix_sign(z):
    """Matrix sign function by the determinant-scaled Newton iteration.

    z <- (z/c + c z^-1)/2 with c = |det z|^(1/N) (Byers 1987). It stops when
    the relative 1-norm step falls below ``_SIGN_TOL``, or when the step
    stops shrinking once below 1e-3: in that quadratic regime a step that
    does not shrink is the rounding floor of an ill-conditioned z, and the
    caller's gates judge the result. Raises :class:`NumericsError` on a
    singular iterate (z has eigenvalues on the imaginary axis) or after
    ``_SIGN_MAX_ITER`` steps without convergence.
    """
    n = z.shape[0]
    prev = np.inf
    for it in range(_SIGN_MAX_ITER):
        sign, logdet = np.linalg.slogdet(z)
        if sign == 0 or not np.isfinite(logdet):
            raise NumericsError(
                f"matrix sign iteration hit a singular iterate at step {it}; "
                "the matrix has eigenvalues on the imaginary axis"
            )
        c = np.exp(logdet / n)
        new = 0.5 * (z / c + c * np.linalg.inv(z))
        step = np.linalg.norm(new - z, 1) / np.linalg.norm(z, 1)
        z = new
        if step <= _SIGN_TOL or (prev <= 1e-3 and step >= prev):
            return z
        prev = step
    raise NumericsError(f"matrix sign iteration did not converge in {_SIGN_MAX_ITER} steps")


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    S = sign(H) of the Hamiltonian H = [[A, -G], [-Q, -A']], G = B R^-1 B',
    gives P from the least-squares solve [S12; S22 + I] P = -[S11 + I; S21].
    Unless P is already at the rounding floor, Newton steps in
    defect-correction form polish it: P <- P + X with
    A_cl' X + X A_cl = -Res(P), each Lyapunov solve read off
    sign([[A_cl', Res], [0, -A_cl]]) = [[-I, 2X], [0, I]]; the best residual
    seen is kept. Raises :class:`NumericsError` if a sign iteration fails,
    the closed loop A - G P is not Hurwitz, or the relative backward error
    |Res| / (|Q| + 2|A||P| + |G||P|^2) exceeds ``_BACKWARD_ERROR_TOL``.
    """
    return _care(LqrProblem(a, b, q, r))


def _care(prob: LqrProblem) -> np.ndarray:
    a, b, q, r = prob.a, prob.b, prob.q, prob.r
    n = prob.n
    g = b @ np.linalg.solve(r, b.T)
    eye = np.eye(n)
    norm = np.linalg.norm
    a_norm, g_norm, q_norm = norm(a), norm(g), norm(q)

    def defect(p):
        """Residual of p, its norm, and its relative backward error."""
        res = a.T @ p + p @ a - p @ g @ p + q
        res_norm, p_norm = norm(res), norm(p)
        scale = q_norm + 2.0 * a_norm * p_norm + g_norm * p_norm ** 2
        return res, res_norm, (res_norm / scale if scale else 0.0)

    s = _matrix_sign(np.block([[a, -g], [-q, -a.T]]))
    p = np.linalg.lstsq(np.vstack([s[:n, n:], s[n:, n:] + eye]),
                        -np.vstack([s[:n, :n] + eye, s[n:, :n]]), rcond=None)[0]
    p = 0.5 * (p + p.T)

    res, res_norm, err = defect(p)
    floor = 1e-13 * max(1.0, q_norm)
    for _ in range(_POLISH_STEPS):
        if res_norm <= floor or err <= np.finfo(float).eps:
            break
        a_cl = a - g @ p
        s = _matrix_sign(np.block([[a_cl.T, res], [np.zeros((n, n)), -a_cl]]))
        polished = p + 0.25 * (s[:n, n:] + s[:n, n:].T)
        candidate = defect(polished)
        if not candidate[1] < res_norm:
            break
        p, (res, res_norm, err) = polished, candidate

    growth = float(np.max(np.linalg.eigvals(a - g @ p).real))
    if not growth < 0.0:
        raise NumericsError(
            f"closed loop A - G P is not Hurwitz (largest real part {growth:.3e}, "
            f"|P| = {norm(p):.3e}); the pair may not be stabilizable"
        )
    if not err <= _BACKWARD_ERROR_TOL:
        raise NumericsError(
            f"Riccati relative backward error {err:.3e} exceeds {_BACKWARD_ERROR_TOL:g} "
            f"(residual {res_norm:.3e}, |P| = {norm(p):.3e})"
        )
    return p


def lqr_gain(a, b, q, r):
    """Optimal feedback u = -C x. Returns (C, P)."""
    return _lqr(LqrProblem(a, b, q, r))


def _lqr(prob: LqrProblem):
    p = _care(prob)
    return np.linalg.solve(prob.r, prob.b.T @ p), p


def pbh_unstabilizable_modes(a, b):
    """Eigenvalues of ``a`` with Re >= -1e-9 at which [A - lam I, B] loses rank.

    ``a`` must be square, ``b`` needs one row per state, and both must be
    finite. The rank counts singular values above 1e-10 times max(1, the
    largest).
    """
    a, b = _pair(a, b)
    n = a.shape[0]
    bad = []
    for lam in np.linalg.eigvals(a):
        if lam.real < -1e-9:
            continue
        pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
        s = np.linalg.svd(pencil, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
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


def kooc_synthesize(model: KoopmanModel, b_lifted, q_state, r) -> KoocController:
    """LQR design on the lifted linear model.

    ``b_lifted`` is the input map in observable space (one row per library
    entry). ``q_state`` is the state cost; it is embedded into observable
    space on the model's state rows. Stabilizability of the lifted pair is
    checked mode by mode first; failure raises :class:`NotStabilizable`
    naming the offending eigenvalues and the observables their eigenvectors
    live on.
    """
    if model.time_kind != CONTINUOUS:
        raise ValueError("lifted LQR design requires a continuous-time model")
    n = model.state_dim
    q_state = np.asarray(q_state, dtype=float)
    if q_state.shape != (n, n):
        raise ValueError("q_state must match the state dimension")
    m = len(model.library)
    q = np.zeros((m, m))
    rows = np.asarray(model.state_rows)
    q[np.ix_(rows, rows)] = q_state
    prob = LqrProblem(model.K, b_lifted, q, r)

    modes = pbh_unstabilizable_modes(prob.a, prob.b)
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

    if not prob.q.any():
        # Zero state cost: u = 0 achieves the infimum J = 0, and P = 0 is the
        # minimal nonnegative Riccati solution, so the gain vanishes.
        return KoocController(model=model, gain=np.zeros((prob.b.shape[1], prob.n)),
                              p=np.zeros((prob.n, prob.n)))

    gain, p = _lqr(prob)
    return KoocController(model=model, gain=gain, p=p)


def closed_loop_cost(traj: Trajectory, q, r):
    """Cumulative quadratic cost J(t) = int_0^t (x'q x + u'r u) dtau.

    Trapezoidal accumulation on the trajectory's time grid; J(0) = 0. The
    trajectory must carry the applied inputs, as the closed loops of
    :func:`compare_lqr_kooc` do and as :func:`~koopmankit.dynamics.read_trajectory`
    reads them from a CSV with ``u`` columns.
    """
    if traj.inputs is None:
        raise ValueError("trajectory has no recorded inputs; cost a compare_lqr_kooc "
                         "trajectory or one read from a CSV with u columns")
    q = _symmetric(q, "q", definite=False)
    r = _symmetric(r, "r", definite=True)
    return _trapezoid_cost(traj, traj.inputs, q, r)


def _trapezoid_cost(traj: Trajectory, u, q, r):
    """Trapezoidal J(t) of x'q x + u'r u along ``traj`` with inputs ``u``."""
    x = traj.states
    integrand = np.einsum("ki,ij,kj->k", x, q, x) + np.einsum("ki,ij,kj->k", u, r, u)
    gaps = np.diff(traj.times)
    cost = np.zeros(len(traj))
    cost[1:] = np.cumsum(0.5 * gaps * (integrand[1:] + integrand[:-1]))
    return cost


@dataclass
class ComparisonResult:
    """Closed-loop comparison of state-space LQR against lifted-design KOOC.

    Both trajectories share one time grid, on which every cost series is sampled.
    """

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


def _closed_loop_run(system: PolySystem, library, gain, x0, horizon, dt) -> Trajectory:
    """Integrate f(x) + B u(x) under the feedback u = -gain . Theta(x) on ``library``.

    Theta must be polynomial, so u is too: the closed loop is one compiled
    system with no input map. The applied inputs are the law evaluated once
    on the columns of the sampled states.
    """
    law = [library.linear_combination(-row) for row in gain]
    equations = []
    for f, row in zip(system.equations, system.input_map):
        for coeff, u in zip(row, law):
            if coeff != 0.0:
                f = f + coeff * u
        equations.append(f)
    closed = PolySystem(system.dim, CONTINUOUS, tuple(equations), params=system.params,
                        name=system.name)
    traj = integrate(closed, x0, horizon, dt=dt)
    inputs = PolynomialMap(system.dim, law)(traj.states.T).T
    return Trajectory(times=traj.times, states=traj.states, inputs=inputs)


def compare_lqr_kooc(system: PolySystem, model: KoopmanModel, q, r, x0,
                     horizon, dt=DEFAULT_DT) -> ComparisonResult:
    """Run both controllers on the true nonlinear system and cost them.

    The LQR gain comes from the model's state-block linearization with the
    system's own input map; the KOOC gain comes from the full lifted design
    with that input map embedded on the state rows. Each closed loop is
    costed with the inputs it actually applied (``ratio`` = KOOC/LQR final
    cost). A second pair of series re-costs both trajectories with the LQR
    gain substituted into the integrand — a convention some published
    comparisons use — reported separately as the ``_script`` fields.

    Both feedback laws must be polynomials in x, so every observable of the
    model's library must be a polynomial: a named observable raises
    ``ValueError``. Each closed loop runs as one compiled polynomial field.
    """
    if system.input_map is None:
        raise ValueError("system has no input map")
    if system.time_kind != CONTINUOUS or model.time_kind != CONTINUOUS:
        raise ValueError("comparison requires continuous time")
    n = system.dim
    if model.state_dim != n:
        raise ValueError("model state dimension must match the system")
    for obs in model.library.observables:
        if isinstance(obs, str):
            raise ValueError(f"the KOOC law needs a polynomial library; observable "
                             f"'{obs}' is not a polynomial")
    q = _symmetric(q, "q", definite=False)
    r = _symmetric(r, "r", definite=True)
    x0 = _initial_state(n, x0)

    rows = np.asarray(model.state_rows)
    a_lin = model.K[np.ix_(rows, np.arange(n))]
    b = system.input_map
    c_lqr, _ = lqr_gain(a_lin, b, q, r)

    m = len(model.library)
    b_lifted = np.zeros((m, b.shape[1]))
    b_lifted[rows, :] = b
    kooc = kooc_synthesize(model, b_lifted, q, r)

    lqr_traj = _closed_loop_run(system, monomials(n, 1), c_lqr, x0, horizon, dt)
    kooc_traj = _closed_loop_run(system, model.library, kooc.gain, x0, horizon, dt)

    lqr_cost = _trapezoid_cost(lqr_traj, lqr_traj.inputs, q, r)
    kooc_cost = _trapezoid_cost(kooc_traj, kooc_traj.inputs, q, r)
    lqr_script = _trapezoid_cost(lqr_traj, -(lqr_traj.states @ c_lqr.T), q, r)
    kooc_script = _trapezoid_cost(kooc_traj, -(kooc_traj.states @ c_lqr.T), q, r)
    ratio, ratio_script = (1.0 if lqr[-1] == 0.0 else float(kooc[-1]) / float(lqr[-1])
                           for lqr, kooc in ((lqr_cost, kooc_cost), (lqr_script, kooc_script)))

    return ComparisonResult(
        lqr_traj=lqr_traj, kooc_traj=kooc_traj,
        lqr_cost=lqr_cost, kooc_cost=kooc_cost, ratio=ratio,
        lqr_cost_script=lqr_script, kooc_cost_script=kooc_script,
        ratio_script=ratio_script, lqr_gain=c_lqr, kooc_controller=kooc,
    )
