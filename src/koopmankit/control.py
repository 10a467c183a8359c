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

A comparison designs both laws with :func:`kooc_synthesize`: LQR on the
state library x1..xn with the state block of K, KOOC on the whole lift. When
every observable is a polynomial, both laws, -C x and -C Theta(x), are
polynomials in x, and so is each closed loop f(x) + B u(x).
:func:`compare_lqr_kooc` is the one place a closed loop is formed. It works
in two steps. The design step makes both gains and builds each closed loop
as one compiled :class:`~koopmankit.dynamics.PolySystem`, with its law as one
compiled map. The last design built is kept, keyed on the content of the
plant, lift, Q and R, so a comparison repeated from another start reuses it.
The run step, the only work of such a repeat, integrates both loops from x0
like any other field, evaluates each law once on the columns of the sample
states, and costs the two trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import numerics
from .dynamics import CONTINUOUS, DEFAULT_DT, PolySystem, Trajectory, _initial_state, integrate
from .exceptions import NotStabilizable, NumericsError
from .lifting import KoopmanModel, eval_library, monomials
from .polynomials import PolynomialMap

_SIGN_TOL = 1e-12
_SIGN_MAX_ITER = 100
_POLISH_STEPS = 4
_BACKWARD_ERROR_TOL = 1e-8
_PBH_MIN_REAL = -1e-9  # a mode with a real part at or above this is marginal or unstable


def _pair(a, b):
    """``a`` and ``b`` as float arrays: ``a`` square, ``b`` one row per state, both finite."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a must be square")
    if b.shape[0] != a.shape[0]:
        raise ValueError("b must have one row per state")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a and b must be finite")
    return a, b


def _symmetric(mat, name, definite):
    """``mat`` symmetrized, checked positive definite if ``definite``, else semidefinite."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    if not (abs(m - m.T) <= 1e-12 + 1e-10 * abs(m.T)).all():  # np.allclose's test, inlined
        raise ValueError(f"{name} must be symmetric")
    m = 0.5 * m + 0.5 * m.T  # halves first, so a finite m cannot overflow
    w = np.linalg.eigvalsh(m)
    if definite and w.min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    if not definite and w.min() < -1e-10 * max(1.0, float(abs(w).max())):
        raise ValueError(f"{name} must be positive semidefinite")
    return m


def _fro(x):
    """``np.linalg.norm(x)`` without its dispatch: sqrt of the dot product of
    x's entries with themselves, taken in memory order as numpy takes it."""
    v = x.ravel(order="K")
    return np.sqrt(v.dot(v))


def _norm1(abs_x):
    """``np.linalg.norm(x, 1)``, the largest column sum, given ``abs_x`` = |x|."""
    return np.add.reduce(abs_x, axis=0).max(initial=0.0)


@dataclass
class _LqrProblem:
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
    singular iterate (z has eigenvalues on the imaginary axis), on an iterate
    that overflows, or after ``_SIGN_MAX_ITER`` steps without convergence.
    """
    n = z.shape[0]
    prev = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for it in range(_SIGN_MAX_ITER):
            # np.linalg.slogdet and inv call these gufuncs on a float z; each step
            # calls them directly, so their LAPACK work is all a step pays for
            sign, logdet = _umath_linalg.slogdet(z, signature="d->dd")
            if sign == 0 or not math.isfinite(logdet):
                raise NumericsError(
                    f"matrix sign iteration hit a singular iterate at step {it}; "
                    "the matrix has eigenvalues on the imaginary axis"
                )
            c = np.exp(logdet / n)
            # 0.5 * (z / c + c * inv(z)), rounded in the same three places; a
            # nonzero det means the LU that inv repeats has no zero pivot
            new = _umath_linalg.inv(z, signature="d->d")
            new *= c
            new += z / c
            new *= 0.5
            diff = new - z
            step = _norm1(np.abs(diff, out=diff)) / _norm1(abs(z))
            if not step < np.inf:
                raise NumericsError(f"matrix sign iteration overflowed at step {it}: "
                                    "the iterate or its step is not finite")
            z = new
            if step <= _SIGN_TOL or (prev <= 1e-3 and step >= prev):
                return z
            prev = step
    raise NumericsError(f"matrix sign iteration did not converge in {_SIGN_MAX_ITER} steps")


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    S = sign(H) of the Hamiltonian H = [[A, -G], [-Q, -A']], G = B R^-1 B',
    gives P from the least-squares solve [S12; S22 + I] P = -[S11 + I; S21].
    The closed loop is A - B K with the one gain K = (R^-1 B') P, which
    :func:`lqr_gain` returns. Unless P is already at the rounding floor,
    Newton steps in defect-correction form polish it: P <- P + X with
    A_cl' X + X A_cl = -Res(P), A_cl = A - B K, each Lyapunov solve read off
    sign([[A_cl', Res], [0, -A_cl]]) = [[-I, 2X], [0, I]]; the best residual
    seen is kept. With Q = 0 and A Hurwitz, P = 0 (K = 0) is the exact
    stabilizing solution, returned without a sign iteration; any other A
    with Q = 0 takes the sign path.
    Raises :class:`NumericsError` if G is not finite, a sign iteration
    fails, A - B K is not Hurwitz, or the relative backward error
    |Res| / (|Q| + 2|A||P| + |G||P|^2) exceeds ``_BACKWARD_ERROR_TOL`` or
    cannot be measured because |Res| or its scale overflows. One of the 18
    ``riccati`` benchmark pairs at m = 50 is refused: A - B K reads +0.68.
    """
    return _care(_LqrProblem(a, b, q, r))[0]


def _care(prob: _LqrProblem):
    """(P, K) of :func:`solve_care`, K = (R^-1 B') P the gain of the loop it gates."""
    a, b, q, r = prob.a, prob.b, prob.q, prob.r
    n = prob.n
    with np.errstate(over="ignore", invalid="ignore"):
        rinv_bt = np.linalg.solve(r, b.T)
        g = b @ rinv_bt  # only the Hamiltonian and the residual read G
        a_norm, g_norm, q_norm = _fro(a), _fro(g), _fro(q)
    if not np.isfinite(g).all():
        raise NumericsError("G = B R^-1 B' is not finite: R is too close to singular")
    if not q.any() and np.linalg.eigvals(a).real.max() < 0.0:
        return np.zeros((n, n)), np.zeros(rinv_bt.shape)  # K = 0 and A is Hurwitz: P = 0 is exact
    eye = np.eye(n)

    def defect(p):
        """Residual of p, its norm, and its relative backward error."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            res = a.T @ p + p @ a - p @ g @ p + q
            res_norm, p_norm = _fro(res), _fro(p)
            scale = q_norm + 2.0 * a_norm * p_norm + g_norm * p_norm ** 2
        if not (math.isfinite(res_norm) and math.isfinite(scale)):
            raise NumericsError(
                f"Riccati backward error overflowed (residual {res_norm:.3e}, scale {scale:.3e}): "
                "Q or R is too far from unit scale for it to be measured")
        return res, res_norm, (res_norm / scale if scale else 0.0)

    h = np.empty((2 * n, 2 * n))  # the Hamiltonian [[A, -G], [-Q, -A']]
    h[:n, :n] = a
    np.negative(g, out=h[:n, n:])
    np.negative(q, out=h[n:, :n])
    np.negative(a.T, out=h[n:, n:])
    s = _matrix_sign(h)
    # [S12; S22 + I] P = -[S11 + I; S21], with numpy's default cutoff on
    # purpose: numerics.lstsq's 1e-12 refuses more random problems
    lhs, rhs = s[:, n:].copy(), s[:, :n].copy()
    lhs[n:] += eye
    rhs[:n] += eye
    p = np.linalg.lstsq(lhs, np.negative(rhs, out=rhs), rcond=None)[0]
    p = 0.5 * (p + p.T)

    res, res_norm, err = defect(p)
    floor = 1e-13 * max(1.0, q_norm)
    for _ in range(_POLISH_STEPS):
        if res_norm <= floor or err <= np.finfo(float).eps:
            break
        a_cl = a - b @ (rinv_bt @ p)
        h[:n, :n] = a_cl.T  # [[A_cl', Res], [0, -A_cl]]
        h[:n, n:] = res
        h[n:, :n] = 0.0
        np.negative(a_cl, out=h[n:, n:])
        s = _matrix_sign(h)
        polished = p + 0.25 * (s[:n, n:] + s[:n, n:].T)
        candidate = defect(polished)
        if not candidate[1] < res_norm:
            break
        p, (res, res_norm, err) = polished, candidate

    k = rinv_bt @ p
    growth = float(np.linalg.eigvals(a - b @ k).real.max())
    if not growth < 0.0:
        raise NumericsError(
            f"closed loop A - B K is not Hurwitz (largest real part {growth:.3e}, "
            f"|P| = {_fro(p):.3e}); the pair may not be stabilizable"
        )
    if not err <= _BACKWARD_ERROR_TOL:
        raise NumericsError(
            f"Riccati relative backward error {err:.3e} exceeds {_BACKWARD_ERROR_TOL:g} "
            f"(residual {res_norm:.3e}, |P| = {_fro(p):.3e})"
        )
    return p, k


def lqr_gain(a, b, q, r):
    """Optimal feedback u = -C x, C = (R^-1 B') P. Returns (C, P)."""
    p, gain = _care(_LqrProblem(a, b, q, r))
    return gain, p


def pbh_unstabilizable_modes(a, b):
    """Eigenvalues of ``a`` with Re >= ``_PBH_MIN_REAL`` at which [A - lam I, B] loses rank.

    ``a`` must be square, ``b`` needs one row per state, and both must be
    finite. The rank counts singular values above 1e-10 times max(1, the
    largest).
    """
    return [complex(lam) for lam, _ in _unstabilizable(*_pair(a, b))]


def _unstabilizable(a, b):
    """(eigenvalue, eigenvector) of each mode ``pbh_unstabilizable_modes`` reports, in eig order."""
    n = a.shape[0]
    pairs = numerics.eig(a)
    bad = []
    for lam, vec in zip(pairs.eigenvalues, pairs.right_vectors.T):
        if lam.real < _PBH_MIN_REAL:
            continue
        pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
        s = np.linalg.svd(pencil, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
        if rank < n:
            bad.append((lam, vec))
    return bad


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
    entry). ``q_state`` is the state cost; it goes on the first n rows and
    columns of the observable-space cost, where the state x1..xn sits.
    Stabilizability of the lifted pair is checked mode by mode first; failure
    raises :class:`NotStabilizable` naming the offending eigenvalues and the
    observables their eigenvectors live on.
    """
    if model.time_kind != CONTINUOUS:
        raise ValueError("lifted LQR design requires a continuous-time model")
    n = model.state_dim
    q_state = np.asarray(q_state, dtype=float)
    if q_state.shape != (n, n):
        raise ValueError("q_state must match the state dimension")
    m = len(model.library)
    q = np.zeros((m, m))
    q[:n, :n] = q_state
    prob = _LqrProblem(model.K, b_lifted, q, r)

    bad = _unstabilizable(prob.a, prob.b)
    if bad:
        modes = tuple(complex(lam) for lam, _ in bad)
        names = tuple(model.library.names[int(np.argmax(np.abs(vec)))] for _, vec in bad)
        listing = ", ".join(f"{numerics.format_eigenvalue(lam)} (on {name})"
                            for lam, name in zip(modes, names))
        raise NotStabilizable(
            f"lifted pair has unstabilizable unstable modes: {listing}; a mode counts "
            f"when its real part is >= {_PBH_MIN_REAL:g} (marginal or unstable)",
            modes=modes, observables=names,
        )

    if not prob.q.any():
        # Zero state cost: u = 0 achieves the infimum J = 0, and P = 0 is the
        # minimal nonnegative Riccati solution, so the gain vanishes.
        return KoocController(model=model, gain=np.zeros((prob.b.shape[1], prob.n)),
                              p=np.zeros((prob.n, prob.n)))

    p, gain = _care(prob)
    return KoocController(model=model, gain=gain, p=p)


def closed_loop_cost(traj: Trajectory, q, r):
    """Cumulative quadratic cost J(t) = int_0^t (x'q x + u'r u) dtau.

    Trapezoidal accumulation on the trajectory's time grid; J(0) = 0. The
    trajectory must carry the applied inputs, as the closed loops of
    :func:`compare_lqr_kooc` do and as :func:`~koopmankit.artifacts.read_trajectory`
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


def _closed_loop(system: PolySystem, library, gain):
    """f(x) + B u(x) under the feedback u = -gain . Theta(x) on ``library``, and u.

    Theta must be polynomial, so u is too: the closed loop is one compiled
    system with no input map, and the law one compiled map. Neither carries
    the plant's ``params`` or ``name``, so a kept loop holds nothing of the
    caller that built it.
    """
    law = [library.linear_combination(-row) for row in gain]
    equations = []
    for f, row in zip(system.equations, system.input_map):
        for coeff, u in zip(row, law):
            if coeff != 0.0:
                f = f + coeff * u
        equations.append(f)
    return PolySystem(system.dim, CONTINUOUS, tuple(equations)), PolynomialMap(system.dim, law)


def _run_loop(loop, x0, horizon, dt) -> Trajectory:
    """Integrate a :func:`_closed_loop` from ``x0``; the applied inputs are the
    law evaluated once on the columns of the sampled states."""
    closed, law = loop
    traj = integrate(closed, x0, horizon, dt=dt)
    return Trajectory(times=traj.times, states=traj.states, inputs=law(traj.states.T).T)


class _Design(NamedTuple):
    """Both laws of a comparison and their closed loops, LQR first."""

    lqr_gain: np.ndarray
    kooc_gain: np.ndarray
    kooc_p: np.ndarray
    loops: tuple


# (key, design) of the last design built, or None. One slot: the callers that
# repeat a design (a comparison from several starts) repeat it back to back.
# Reading or rebinding it is atomic, so threads need no lock; a design built
# concurrently under another key simply replaces it.
_last = None


def _design_key(system: PolySystem, model: KoopmanModel, q, r):
    """Everything the design reads, by content. Terms are taken in dict order,
    the order in which a compiled loop sums them, so equal keys give equal bits."""
    arrays = (np.asarray(system.input_map, dtype=float), np.asarray(model.K, dtype=float), q, r)
    return (system.dim,
            tuple(tuple(eq.terms.items()) for eq in system.equations),
            tuple(tuple(obs.terms.items()) for obs in model.library.observables),
            tuple((a.shape, a.tobytes()) for a in arrays))


def _design(system: PolySystem, model: KoopmanModel, q, r) -> _Design:
    """Both laws and their compiled closed loops; the last one built is kept
    and returned again while its key repeats. A refusal raises before anything
    is stored."""
    global _last
    key = _design_key(system, model, q, r)
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    n = system.dim
    b_lifted = np.zeros((len(model.library), system.input_map.shape[1]))
    b_lifted[:n] = system.input_map
    state_block = KoopmanModel(monomials(n, 1), model.K[:n, :n], CONTINUOUS)
    lqr, kooc = (kooc_synthesize(lift, b_lifted[:len(lift.library)], q, r)
                 for lift in (state_block, model))
    loops = tuple(_closed_loop(system, d.model.library, d.gain) for d in (lqr, kooc))
    design = _Design(lqr.gain, kooc.gain, kooc.p, loops)
    _last = (key, design)
    return design


def compare_lqr_kooc(system: PolySystem, model: KoopmanModel, q, r, x0,
                     horizon, dt=DEFAULT_DT) -> ComparisonResult:
    """Run both controllers on the true nonlinear system and cost them.

    Both laws are :func:`kooc_synthesize` designs with the system's input
    map on the state rows: LQR on the state library x1..xn with the state
    block K[:n, :n], KOOC on the whole lift. Each closed loop is costed with
    the inputs it actually applied (``ratio`` = KOOC/LQR final cost). The
    ``_script`` fields re-cost the KOOC run with the LQR gain substituted
    into the integrand, a convention some published comparisons use; the
    LQR run applies that gain, so ``lqr_cost_script`` is ``lqr_cost``.

    The design, both gains and each closed loop compiled as one polynomial
    field, is kept from the last call and reused while the (system, model,
    q, r) it was built for repeats, as it does when one design is compared
    from several starts or horizons. The key is the content of the
    equations, input map, observables, K, q and r, so a changed input gives
    a new design. A repeat does only the run step, integrating both loops
    from ``x0`` and costing them, and returns the same bits as a fresh
    design. ``q``, ``r`` and ``x0`` are validated and every refusal raised
    on every call, and the returned gains and P are the caller's own copies.
    """
    if system.input_map is None:
        raise ValueError("system has no input map")
    if system.time_kind != CONTINUOUS or model.time_kind != CONTINUOUS:
        raise ValueError("comparison requires continuous time")
    n = system.dim
    if model.state_dim != n:
        raise ValueError("model state dimension must match the system")
    q = _symmetric(q, "q", definite=False)
    r = _symmetric(r, "r", definite=True)
    x0 = _initial_state(n, x0)

    design = _design(system, model, q, r)
    lqr_traj, kooc_traj = (_run_loop(loop, x0, horizon, dt) for loop in design.loops)

    lqr_cost = _trapezoid_cost(lqr_traj, lqr_traj.inputs, q, r)
    kooc_cost = _trapezoid_cost(kooc_traj, kooc_traj.inputs, q, r)
    kooc_script = _trapezoid_cost(kooc_traj, -(kooc_traj.states @ design.lqr_gain.T), q, r)
    ratio, ratio_script = (1.0 if j_lqr[-1] == 0.0 else float(j_kooc[-1]) / float(j_lqr[-1])
                           for j_lqr, j_kooc in ((lqr_cost, kooc_cost), (lqr_cost, kooc_script)))

    return ComparisonResult(
        lqr_traj=lqr_traj, kooc_traj=kooc_traj,
        lqr_cost=lqr_cost, kooc_cost=kooc_cost, ratio=ratio,
        lqr_cost_script=lqr_cost, kooc_cost_script=kooc_script,
        ratio_script=ratio_script, lqr_gain=design.lqr_gain.copy(),
        kooc_controller=KoocController(model=model, gain=design.kooc_gain.copy(),
                                       p=design.kooc_p.copy()),
    )
