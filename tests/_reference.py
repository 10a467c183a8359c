"""Independent references for the bit-identity tests, one per kernel, the
verdict a Riccati solution is judged by, and the seeded LQR problems that the
Riccati tests and ``tools/oracles.py`` share.

A reference recomputes a kernel's result in the plain order of its definition,
without the package's code, so a change to the kernel cannot move it; from
koopmankit it takes only what ``tests/test_public_api.py`` allows. Polynomials
are read as their ``terms`` dicts, {exponent tuple: coefficient}, and the
algebra returns such dicts.
"""

import math
import operator
from functools import reduce
from types import SimpleNamespace

import numpy as np

from koopmankit import BlowUp, CONTINUOUS, Trajectory
from koopmankit.dynamics import BLOWUP_LIMIT
from koopmankit.identification import _differentiate_series


def bits(poly, dim=None):
    """(dim, terms in dict order as exact hex) of a polynomial, or of a dict and its dim."""
    dim, terms = (poly.dim, poly.terms) if dim is None else (dim, poly)
    return dim, [(exps, float.hex(coeff)) for exps, coeff in terms.items()]


# -- evaluation, one term at a time: x^2 as x * x, libm pow above 2 ------------

def _pow(x, e):
    """libm ``pow`` at a point; an overflow is +-inf, as ``np.float_power`` gives it."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def evaluate(terms, x, zero=0.0, pow=_pow):
    """A polynomial at a point of Python floats, or on the columns of an (n, M)
    array given a zero row and ``np.float_power``: each term its coefficient times
    its factors, variables ascending, and the terms summed in dict order from ``zero``."""
    acc = zero
    for exps, coeff in terms.items():
        term = coeff
        for xi, e in zip(x, exps):
            if e:
                term = term * (xi if e == 1 else xi * xi if e == 2 else pow(xi, e))
        acc = acc + term
    return acc


def values(polys, x):
    """The polynomials' values: (k,) at a point of shape (n,), (k, M) on columns (n, M)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        point = x.tolist()
        return np.array([evaluate(p.terms, point) for p in polys])
    return np.array([evaluate(p.terms, x, np.zeros(x.shape[1]), np.float_power) for p in polys])


# -- trajectories: the numpy loops that the float loops replaced, and defects ---

def _loop(step, x0, times):
    """The states at ``times``, one ``step`` per sample, each sample under the
    blow-up guard: a non-finite step is a ``BlowUp`` of norm inf at its time."""
    states = np.empty((len(times), len(x0)))
    x = states[0] = np.asarray(x0, dtype=float)
    for k, t in enumerate(times):
        norm = float(np.linalg.norm(x))
        if not np.isfinite(norm) or norm > BLOWUP_LIMIT:
            raise BlowUp(t, norm, BLOWUP_LIMIT)
        if k + 1 < len(times):
            x = states[k + 1] = step(x)
            if not np.all(np.isfinite(x)):
                raise BlowUp(times[k + 1], float("inf"), BLOWUP_LIMIT)
    return states


def rk4_step(rhs, x, dt):
    """One classical RK4 step of dx/dt = rhs(x)."""
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(system, x0, t_end, dt=0.01, controller=None):
    """The numpy RK4 loop; with ``controller``, the closed loop of its callback,
    whose inputs are the controller's values at the sample states."""
    def rhs(x):
        dx = values(system.equations, x)
        return dx if controller is None else dx + system.input_map @ np.atleast_1d(controller(x))

    times = np.arange(int(round(t_end / dt)) + 1) * dt
    states = _loop(lambda x: rk4_step(rhs, x, dt), x0, times)
    inputs = None if controller is None else np.vstack([np.atleast_1d(controller(x)) for x in states])
    return Trajectory(times=times, states=states, inputs=inputs)


def iterate(system, x0, steps):
    """The numpy loop of a map."""
    times = np.arange(steps + 1, dtype=float)
    return Trajectory(times=times, states=_loop(lambda x: values(system.equations, x), x0, times))


def relative_defect(rows, advance, traj, time_kind):
    """The RMS over samples of d/dt rows - advance(rows) (a flow) or rows[:, 1:] -
    advance(rows[:, :-1]) (a map), over the RMS of the sampled rows (k, M)."""
    if time_kind == CONTINUOUS:
        dt = float(traj.times[1] - traj.times[0])
        defect = _differentiate_series(rows.T, dt).T - advance(rows)
    else:
        defect = rows[:, 1:] - advance(rows[:, :-1])
    scale = float(np.sqrt(np.mean(np.sum(np.abs(rows) ** 2, axis=0))))
    return float(np.sqrt(np.mean(np.sum(np.abs(defect) ** 2, axis=0)))) / scale


# -- exact algebra on coefficient dicts, one operation at a time ---------------

def _clean(terms):
    """``terms`` without its zeros; a non-finite coefficient raises as a ``Polynomial`` does."""
    if not all(map(math.isfinite, terms.values())):
        raise ValueError("non-finite coefficient")
    return {exps: float(coeff) for exps, coeff in terms.items() if coeff != 0.0}


def add(a, b):
    """a + b: b's terms added into a copy of a."""
    out = dict(a)
    for exps, coeff in b.items():
        out[exps] = out.get(exps, 0.0) + coeff
    return _clean(out)


def mul(a, b):
    """a * b for a dict or a scalar ``b``: each product added into one dict, a's terms outer."""
    if not isinstance(b, dict):
        return _clean({exps: coeff * b for exps, coeff in a.items()})
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(operator.add, e1, e2))
            out[exps] = out.get(exps, 0.0) + c1 * c2
    return _clean(out)


def derivative(terms, i):
    """The partial derivative with respect to variable ``i``."""
    return _clean({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: exps[i] * coeff
                   for exps, coeff in terms.items() if exps[i]})


def lie_derivative(poly, fields):
    """The sum of d_i poly * fields[i] over the nonzero partials, added in turn."""
    out = {}
    for i, f in enumerate(fields):
        if di := derivative(poly.terms, i):
            out = add(out, mul(di, f.terms))
    return out


def compose(poly, components):
    """``poly`` with x_i -> components[i], term by term: the coefficient times each
    factor's power, variables ascending, and each term added to the sum in turn.
    Each power c^e is the left fold ((1 * c) * c) * ..., formed once per call."""
    powers, out = {}, {}
    for exps, coeff in poly.terms.items():
        term = {(0,) * poly.dim: coeff}
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = reduce(mul, [components[i].terms] * e, {(0,) * poly.dim: 1.0})
                term = mul(term, powers[i, e])
        out = add(out, term)
    return out


def advance(obs, system):
    """An observable's image: its Lie derivative along a flow, its composition with a map."""
    if system.time_kind == CONTINUOUS:
        return lie_derivative(obs, system.equations)
    return compose(obs, system.equations)


def linear_combination(observables, coeffs):
    """The sum of coeffs[j] * observable j, added in turn, zero coefficients skipped."""
    out = {}
    for coeff, obs in zip(coeffs, observables):
        if coeff != 0.0:
            out = add(out, mul(obs.terms, coeff))
    return out


def closure_residual(model, system, truncate=False):
    """The largest |coefficient| of advance - K . Theta over the rows; ``truncate``
    first drops the advance's terms whose monomial no observable holds."""
    observables = model.library.observables
    retained = {e for o in observables for e in o.terms}
    worst = 0.0
    for obs, row in zip(observables, model.K):
        lhs = advance(obs, system)
        if truncate:
            lhs = {e: c for e, c in lhs.items() if e in retained}
        diff = add(lhs, {e: -c for e, c in linear_combination(observables, row).items()})
        worst = max(worst, max(map(abs, diff.values()), default=0.0))
    return worst


def close(observables, system, degree_cap, max_rounds):
    """(each observable's terms, rounds, closed) of refinement's monomial closure. Each round
    advances every observable and lists the monomials the advances name that no one-term
    observable holds; an empty list closes. Otherwise they are appended by total degree, then
    descending exponents, until the first above ``degree_cap``, which stops the growth unclosed,
    as does the end of round ``max_rounds``."""
    grown, rounds = [dict(obs.terms) for obs in observables], 0
    for rounds in range(1, max_rounds + 1):
        held = [exps for terms in grown if len(terms) == 1 for exps in terms]
        missing = []
        for terms in grown:
            for exps in advance(SimpleNamespace(dim=system.dim, terms=terms), system):
                if exps not in held and exps not in missing:
                    missing.append(exps)
        if not missing:
            return grown, rounds, True
        for exps in sorted(missing, key=lambda exps: (sum(exps), [-e for e in exps])):
            if sum(exps) > degree_cap:
                return grown, rounds, False
            grown.append({exps: 1.0})
    return grown, rounds, False


# -- the slow-manifold family's exact lift --------------------------------------

def slow_manifold_lift(mu, lam, couplings, time_kind):
    """The closed-form K of the family member x1' = mu*x1, x2' = lam*x2 + sum c_N*x1^N
    on [x1, x2, x1^N1, ...], N ascending: diag(mu, lam, rate(N1), ...) with row 2 the
    couplings c_N, where rate(N) is mu*N in a flow and the fold mu*mu*...*mu in a map.

    An exactly zero coupling, rate or diagonal entry is +0.0, never -0.0: the
    lift is read off the field, and a polynomial holds no zero term.
    """
    k = np.zeros((2 + len(couplings), 2 + len(couplings)))
    k[0, 0], k[1, 1] = mu, lam
    for i, n in enumerate(sorted(couplings), 2):
        k[1, i] = couplings[n]
        k[i, i] = mu * n if time_kind == CONTINUOUS else math.prod([mu] * n)
    return k + 0.0  # -0.0 + 0.0 is +0.0, and every other entry keeps its bits


def tilted_quad_lift(mu, lam, t):
    """The closed-form K of the flow relaxing onto x2 = x1^2, in the coordinates (eta, xi) = T x,
    on (eta, xi, phi), phi = x2 - b*x1^2, b = lam/(lam - 2*mu): along the flow
    d/dt eta_i = T_i1 mu x1 + 2 mu T_i2 x2 + T_i2 (lam - 2 mu) phi, with x = T^-1 (eta, xi),
    and d/dt phi = lam phi."""
    tinv = np.linalg.inv(t)
    k = np.zeros((3, 3))
    for i in range(2):
        k[i, :2] = np.array([t[i, 0] * mu, 2 * mu * t[i, 1]]) @ tinv
        k[i, 2] = t[i, 1] * (lam - 2 * mu)
    k[2, 2] = lam
    return k


# -- the Carleman truncations -----------------------------------------------------

def carleman_logistic(r, rank):
    """The closed-form Carleman K of x -> r x - r x^2 on [x, ..., x^rank]: row n holds
    (-1)^k C(n, k) r^n at column n + k, where r^n is the fold ((1 * r) * r) * ..., and
    the columns beyond the rank are dropped. An exactly zero entry is +0.0."""
    k = np.zeros((rank, rank))
    for n in range(1, rank + 1):
        rn = 1.0
        for _ in range(n):
            rn = rn * r
        for j in range(n + 1):
            if n + j <= rank:
                coeff = math.comb(n, j) * rn
                k[n - 1, n + j - 1] = -coeff if j % 2 else coeff
    return k + 0.0


def carleman_center(rank):
    """The closed-form Carleman K of dx/dt = x^2 on [x, ..., x^rank]: d/dt x^i = i x^(i+1),
    so entry (i, i+1) is i and every other entry is zero."""
    k = np.zeros((rank, rank))
    for i in range(1, rank):
        k[i - 1, i] = float(i)
    return k


# -- lifted propagation --------------------------------------------------------

def block_loop(model, x0, steps, dt=None):
    """``propagate``'s samples, and how many step-matrix powers its stack holds.

    A map's stack is K. A flow's starts at the RK4 step matrix T4 and grows by
    one product while the next power is finite, to at most 64. Each block of
    samples is the stack times the sample before it, copied into place.
    """
    k, m = model.K, len(model.K)
    with np.errstate(over="ignore", invalid="ignore"):
        if dt is None:
            powers = [k]
        else:
            eye, hk = np.eye(m), dt * k
            powers = [eye + hk @ (eye + (hk / 2) @ (eye + (hk / 3) @ (eye + hk / 4)))]
            while len(powers) < 64 and np.all(np.isfinite(nxt := powers[-1] @ powers[0])):
                powers.append(nxt)
        stack = np.vstack(powers)
        ys = np.empty((steps + 1, m))
        ys[0] = values(model.library.observables, x0)
        for i in range(0, steps, len(powers)):
            n = min(len(powers), steps - i)
            ys[i + 1:i + 1 + n] = (stack[:n * m] @ ys[i]).reshape(n, m)
    return len(powers), ys


# -- Riccati solver --------------------------------------------------------------

def matrix_sign(z):
    """The determinant-scaled Newton iteration z <- (z/c + c z^-1)/2,
    c = |det z|^(1/N), with its stopping rules: a relative 1-norm step at or
    below 1e-12, or one that stops shrinking once below 1e-3."""
    n, prev = z.shape[0], np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            sign, logdet = np.linalg.slogdet(z)
            assert sign != 0 and np.isfinite(logdet), "singular iterate"
            c = np.exp(logdet / n)
            new = 0.5 * (z / c + c * np.linalg.inv(z))
            step = np.linalg.norm(new - z, 1) / np.linalg.norm(z, 1)
            z = new
            if step <= 1e-12 or (prev <= 1e-3 and step >= prev):
                return z
            prev = step
    raise AssertionError("no convergence")


def care(a, b, q, r):
    """P from sign([[A, -G], [-Q, -A']]) by least squares, then up to 4
    defect-correction steps on the loop A - B K, K = (R^-1 B') P, each kept
    only while it lowers |Res|. Returns P and the number of steps kept."""
    a, b, q, r = (np.asarray(m, dtype=float) for m in (a, b, q, r))
    q, r = 0.5 * q + 0.5 * q.T, 0.5 * r + 0.5 * r.T
    n, eye = len(a), np.eye(len(a))
    rinv_bt = np.linalg.solve(r, b.T)
    g = b @ rinv_bt

    def defect(p):
        res = a.T @ p + p @ a - p @ g @ p + q
        res_norm, p_norm = np.linalg.norm(res), np.linalg.norm(p)
        scale = (np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * p_norm
                 + np.linalg.norm(g) * p_norm ** 2)
        return res, res_norm, res_norm / scale

    s = matrix_sign(np.block([[a, -g], [-q, -a.T]]))
    p = np.linalg.lstsq(np.vstack([s[:n, n:], s[n:, n:] + eye]),
                        -np.vstack([s[:n, :n] + eye, s[n:, :n]]), rcond=None)[0]
    p = 0.5 * (p + p.T)
    res, res_norm, err = defect(p)
    kept = 0
    for _ in range(4):
        if res_norm <= 1e-13 * max(1.0, np.linalg.norm(q)) or err <= np.finfo(float).eps:
            break
        a_cl = a - b @ (rinv_bt @ p)
        s = matrix_sign(np.block([[a_cl.T, res], [np.zeros((n, n)), -a_cl]]))
        polished = p + 0.25 * (s[:n, n:] + s[:n, n:].T)
        candidate = defect(polished)
        if not candidate[1] < res_norm:
            break
        p, (res, res_norm, err), kept = polished, candidate, kept + 1
    return p, kept


def care_verdict(a, b, q, r, p):
    """How well ``p`` solves A'P + PA - P G P + Q = 0, G = B R^-1 B', computed
    on C-ordered copies of every matrix, so that a problem's verdict does not
    depend on the memory order of its input: ``residual`` |Res| (Frobenius),
    ``backward_error`` |Res| / (|Q| + 2|A||P| + |G||P|^2), and ``growth``, the
    largest real part of A - B R^-1 (B'P), nan if that loop is not finite."""
    a, b, q, r, p = (np.ascontiguousarray(m, dtype=float) for m in (a, b, q, r, p))
    with np.errstate(all="ignore"):
        g = b @ np.linalg.solve(r, b.T)
        res = float(np.linalg.norm(a.T @ p + p @ a - p @ g @ p + q))
        p_norm = np.linalg.norm(p)
        scale = (np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * p_norm
                 + np.linalg.norm(g) * p_norm ** 2)
        err = res / scale if scale else (0.0 if res == 0.0 else math.inf)
        loop = a - b @ np.linalg.solve(r, b.T @ p)
        growth = np.linalg.eigvals(loop).real.max() if np.isfinite(loop).all() else math.nan
    return SimpleNamespace(residual=res, backward_error=float(err), growth=float(growth))


# -- LQR problems --------------------------------------------------------------

def random_stabilizable_problem(rng):
    """Gaussian (A, B, Q, R) rejected until the pair has a PBH margin of 0.2:
    sigma_min([A - lam I, B]) >= 0.2 at each eigenvalue lam with Re >= -0.05."""
    while True:
        n, q_in = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, q_in))
        pencils = [np.hstack([a - lam * np.eye(n), b.astype(complex)])
                   for lam in np.linalg.eigvals(a) if lam.real >= -0.05]
        if all(np.linalg.svd(pencil, compute_uv=False)[-1] >= 0.2 for pencil in pencils):
            g, h = rng.standard_normal((n, n)), rng.standard_normal((q_in, q_in))
            return a, b, g.T @ g, h.T @ h + q_in * np.eye(q_in)


def random_scaled_problem(rng):
    """Gaussian (A, B, Q, R) with n = 1-11 states and 1-3 inputs, Q = G'G and
    R = H'H + k I, each of A, B, Q and R scaled by 10^u with u uniform in [-3, 3]."""
    n, k = int(rng.integers(1, 12)), int(rng.integers(1, 4))
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, k))
    g, h = rng.standard_normal((n, n)), rng.standard_normal((k, k))
    q, r = g.T @ g, h.T @ h + k * np.eye(k)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 4)
    return a * scale[0], b * scale[1], q * scale[2], r * scale[3]
