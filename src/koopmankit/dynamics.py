"""Polynomial vector fields and maps, trajectory generation, benchmark registry,
and the CSV and JSON formats of every artifact the package writes.

Continuous systems are integrated with fixed-step classical RK4; feedback
controllers are evaluated at every substep state, so closed-loop simulation
treats the control law as continuous feedback rather than a zero-order hold.
``integrate(controller=...)`` takes any callable, at the cost of one numpy
call per substep; a polynomial law need not come this way:
:func:`koopmankit.control.compare_lqr_kooc` compiles each of its closed loops
f(x) + B u(x) into a system of its own and integrates it with no controller.
Discrete systems are iterated exactly.

Each :class:`PolySystem` compiles its equations once into a
:class:`~koopmankit.polynomials.PolynomialMap`, and both loops run on lists of
Python floats through its generated function, with no numpy call per step.
Python float ``*`` and ``+`` round like numpy's, and every operation keeps the
order of the numpy loop it replaced, so states are bit-identical to it. A
controller still receives a numpy array of the state, and ``B @ u`` is added
to the field component by component.

Both loops abort with :class:`~koopmankit.exceptions.BlowUp` once the state
norm passes 1e8; a start that is already non-finite is bad input and raises
``ValueError`` instead. After each step a cheap sum-of-squares test runs,
set a hair under the limit squared so that rounding cannot hide a blow-up.
Only a state that trips it gets the full test: a non-finite entry raises
``BlowUp`` at that sample time with norm ``inf``, and otherwise
``np.linalg.norm`` decides, so ``t`` and ``norm`` are those of a full test at
every step.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

from .exceptions import BlowUp
from .polynomials import Polynomial, PolynomialMap

CONTINUOUS = "continuous"
DISCRETE = "discrete"

BLOWUP_LIMIT = 1e8
DEFAULT_DT = 0.01


@dataclass
class PolySystem:
    """A polynomial ODE right-hand side (continuous) or map (discrete).

    ``equations[i]`` is the polynomial for dx_i/dt or x_i(k+1). ``input_map``
    is an optional n-by-q matrix B for actuated systems, in which case the
    field is f(x) + B u. ``params`` records the named constants the equations
    were built from. The equations are compiled once, at construction, into
    the :class:`PolynomialMap` that ``eval_field``, ``integrate`` and
    ``iterate`` share.
    """

    dim: int
    time_kind: str
    equations: tuple
    params: dict = field(default_factory=dict)
    input_map: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.time_kind not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"time_kind must be '{CONTINUOUS}' or '{DISCRETE}'")
        eqs = []
        for eq in self.equations:
            if not isinstance(eq, Polynomial):
                eq = Polynomial.from_terms(self.dim, eq)
            if eq.dim != self.dim:
                raise ValueError("equation dimension mismatch")
            eqs.append(eq)
        if len(eqs) != self.dim:
            raise ValueError(f"expected {self.dim} equations, got {len(eqs)}")
        self.equations = tuple(eqs)
        if self.input_map is not None:
            b = np.atleast_2d(np.asarray(self.input_map, dtype=float))
            if b.shape[0] != self.dim:
                raise ValueError(f"input map must have {self.dim} rows, got {b.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("input map contains non-finite entries")
            self.input_map = b
        self._map = PolynomialMap(self.dim, self.equations)


@dataclass
class Trajectory:
    """Sampled trajectory: times (M,), states (M, n), optional inputs (M, q)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.times.ndim != 1:
            raise ValueError("times must be 1-D")
        if self.states.shape[0] != self.times.size:
            raise ValueError("states row count must match times")
        if self.inputs is not None:
            u = np.asarray(self.inputs, dtype=float)
            if u.ndim == 1:
                u = u[:, None]
            if u.shape[0] != self.times.size:
                raise ValueError("inputs row count must match times")
            self.inputs = u

    def __len__(self):
        return self.times.size

    @property
    def dim(self):
        return self.states.shape[1]


def eval_field(system: PolySystem, x, u=None):
    """Evaluate f(x), or f(x) + B u with the system's input map B.

    Supplying ``u`` to a system without an input map is an error.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (system.dim,):
        raise ValueError(f"state must have shape ({system.dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    out = system._map(x)
    if u is None:
        return out
    if system.input_map is None:
        raise ValueError("input supplied but the system has no input map")
    return out + system.input_map @ np.atleast_1d(np.asarray(u, dtype=float))


def _initial_state(dim, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    return x0


def _time_grid(t_end, dt):
    """Sample times 0, dt, ..., n*dt with n = round(t_end/dt) steps."""
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    return np.arange(int(round(t_end / dt)) + 1) * dt


# The loops test the sum of squares against this, a hair under LIMIT^2 so that
# rounding cannot let a norm past the limit; only a state that trips it gets
# the full test, _check_state.
_GUARD = BLOWUP_LIMIT**2 * (1.0 - 1e-9)


def _check_state(x, t):
    if not all(map(math.isfinite, x)):
        raise BlowUp(t, float("inf"), BLOWUP_LIMIT)
    norm = float(np.linalg.norm(x))
    if not np.isfinite(norm) or norm > BLOWUP_LIMIT:
        raise BlowUp(t, norm, BLOWUP_LIMIT)


def integrate(system: PolySystem, x0, t_end, dt=DEFAULT_DT, controller=None):
    """Fixed-step RK4 integration from t=0 to n_steps*dt covering ``t_end``.

    ``controller`` maps a state to an input vector; it is re-evaluated at each
    RK4 substep state, and the value at each sample time (the first substep
    of the step that leaves it, or one extra call at the last sample) is
    recorded in the returned trajectory.
    """
    if system.time_kind != CONTINUOUS:
        raise ValueError("integrate requires a continuous-time system")
    times = _time_grid(t_end, dt)
    x0 = _initial_state(system.dim, x0)
    if controller is not None and system.input_map is None:
        raise ValueError("controller supplied but the system has no input map")

    drift = system._map._evaluate
    if controller is None:
        rhs = first = drift
    else:
        b = system.input_map
        applied = []

        def rhs(x):
            u = np.atleast_1d(controller(np.array(x)))
            return list(map(add, drift(x), (b @ u).tolist()))

        def first(x):
            u = np.atleast_1d(controller(np.array(x)))
            applied.append(u)
            return list(map(add, drift(x), (b @ u).tolist()))

    half, sixth = 0.5 * dt, dt / 6.0
    x = x0.tolist()
    _check_state(x, times[0])
    states = [x]
    for k in range(len(times) - 1):
        k1 = first(x)
        k2 = rhs([a + half * d for a, d in zip(x, k1)])
        k3 = rhs([a + half * d for a, d in zip(x, k2)])
        k4 = rhs([a + dt * d for a, d in zip(x, k3)])
        x = [a + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for a, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)]
        states.append(x)
        if not sum(map(mul, x, x)) <= _GUARD:
            _check_state(x, times[k + 1])

    inputs = None
    if controller is not None:
        applied.append(np.atleast_1d(controller(np.array(x))))
        inputs = np.vstack(applied)
    return Trajectory(times=times, states=np.array(states), inputs=inputs)


def _check_steps(steps):
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError("steps must be non-negative")


def iterate(system: PolySystem, x0, steps):
    """Iterate a discrete map for ``steps`` steps (times are step indices)."""
    if system.time_kind != DISCRETE:
        raise ValueError("iterate requires a discrete-time system")
    _check_steps(steps)
    x0 = _initial_state(system.dim, x0)
    step = system._map._evaluate
    x = x0.tolist()
    _check_state(x, 0.0)
    states = [x]
    for k in range(steps):
        x = step(x)
        states.append(x)
        if not sum(map(mul, x, x)) <= _GUARD:
            _check_state(x, float(k + 1))
    return Trajectory(times=np.arange(steps + 1, dtype=float), states=np.array(states))


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

def slow_manifold_field(mu, lam, poly):
    """Equations of dx1/dt = mu*x1, dx2/dt = lam*(x2 - P(x1)).

    ``poly`` maps exponent N -> coefficient a for P(x) = sum a*x^N.
    """
    return _slow_manifold_equations(mu, lam, poly, -lam)


def _slow_manifold_equations(mu, lam, poly, coupling):
    """Equations of x1' = mu*x1, x2' = lam*x2 + coupling*P(x1).

    The flow takes coupling -lam; the map x1 -> mu*x1,
    x2 -> lam*x2 + (1 - lam)*P(x1) takes 1 - lam.
    """
    eq1 = Polynomial(2, {(1, 0): mu})
    terms = {(0, 1): lam}
    for n, a in poly.items():
        terms[(int(n), 0)] = terms.get((int(n), 0), 0.0) + coupling * a
    return (eq1, Polynomial(2, terms))


def _lifting():
    from . import lifting  # local import: lifting imports this module

    return lifting


_PARABOLA = {2: 1.0}  # P(x1) = x1^2


def _slow_manifold(poly, time_kind=CONTINUOUS, input_map=None):
    """Builder and exact lift of the slow-manifold system on x2 = P(x1).

    The field (or map) and its lift are both built from the one ``poly``.
    """
    def builder(p):
        lam = p["lambda"]
        coupling = -lam if time_kind == CONTINUOUS else 1.0 - lam
        return PolySystem(2, time_kind, _slow_manifold_equations(p["mu"], lam, poly, coupling),
                          params=p, input_map=input_map)

    def lift(p, rank):
        lifting = _lifting()
        make = (lifting.slow_manifold_lift_ct if time_kind == CONTINUOUS
                else lifting.slow_manifold_lift_dt)
        return make(p["mu"], p["lambda"], poly)

    return {"builder": builder, "lift": lift, "manifold": poly}


def _build_tu_map(p):
    lam, mu = p["lambda"], p["mu"]
    eq1 = Polynomial(2, {(1, 0): lam})
    eq2 = Polynomial(2, {(0, 1): mu, (2, 0): lam * lam - mu})
    return PolySystem(2, DISCRETE, (eq1, eq2), params=p)


def _build_logistic(p):
    r = p["r"]
    eq = Polynomial(1, {(1,): r, (2,): -r})
    return PolySystem(1, DISCRETE, (eq,), params=p)


def _build_center_manifold(p):
    return PolySystem(1, CONTINUOUS, (Polynomial(1, {(2,): 1.0}),), params=p)


def _build_rotated_quad(p):
    # coordinates (eta, xi) = T(angle) x for the quad-manifold field; the
    # transform matches spectral.rotation_matrix so the rotated data and the
    # rotated model line up.
    from .spectral import rotation_matrix  # local import to avoid a cycle

    t = rotation_matrix(p["angle"])
    tinv = np.linalg.inv(t)
    base = slow_manifold_field(p["mu"], p["lambda"], _PARABOLA)
    old_vars = [Polynomial(2, {(1, 0): tinv[i, 0], (0, 1): tinv[i, 1]}) for i in range(2)]
    substituted = [eq.compose(old_vars) for eq in base]
    eqs = tuple(
        sum((t[i, j] * substituted[j] for j in range(2)), Polynomial.zero(2))
        for i in range(2)
    )
    return PolySystem(2, CONTINUOUS, eqs, params=p)


def _lift_rotated_quad(p, rank):
    from .spectral import rotate_model  # local import to avoid a cycle

    base = _lifting().slow_manifold_lift_ct(p["mu"], p["lambda"], _PARABOLA)
    return rotate_model(base, p["angle"])


def _center_manifold_horizon(x0):
    """80% of the way to the blow-up time 1/x0 of dx/dt = x^2."""
    if not x0[0] > 0:
        raise ValueError(
            f"the default center_manifold horizon 0.8/x0 needs x0 > 0 (got {x0[0]:g}); "
            "give the horizon explicitly with --horizon"
        )
    return 0.8 / float(x0[0])


# identification training starts on a grid: flows reach |x| = 2, maps 1
_FLOW_STARTS = tuple((a, b) for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (-2.0, 2.0))
_MAP_STARTS = tuple((a, b) for a in (-1.0, -0.5, 0.0, 0.5, 1.0) for b in (-1.0, 1.0))

# Each entry is the one place that knows its system:
#   builder(params) -> PolySystem; "defaults" and "description";
#   "x0"        the default start;
#   "horizon"   the default end time of a flow, or a rule on x0;
#   "training"  (identification starts, their horizon for a flow or step
#               count for a map);
#   lift(params, rank) -> the closed-form lifted model (rank sets the
#               Carleman truncations);
#   "manifold"  P of the slow manifold x2 = P(x1), where there is one;
#   "eigenfunctions"  named closed-form eigenfunctions -> eigenvalue.
_REGISTRY = {
    "quad_manifold": {
        **_slow_manifold(_PARABOLA),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow with attracting quadratic slow manifold x2 = x1^2",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "quartic_manifold": {
        **_slow_manifold({2: -2.0, 4: 1.0}),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow whose slow manifold is the quartic x2 = x1^4 - 2*x1^2",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "discrete_manifold": {
        **_slow_manifold(_PARABOLA, time_kind=DISCRETE),
        "defaults": {"mu": 0.9, "lambda": 0.1},
        "description": "discrete 2-state map contracting onto x2 = x1^2 (multipliers mu slow, lambda fast)",
        "x0": (1.5, -1.0),
        "training": (_MAP_STARTS, 40),
    },
    "tu_map": {
        "builder": _build_tu_map,
        "lift": lambda p, rank: _lifting().tu_lift(p["lambda"], p["mu"]),
        "defaults": {"lambda": 0.9, "mu": 0.5},
        "description": "discrete quadratic map x1 -> lambda*x1, x2 -> mu*x2 + (lambda^2 - mu)*x1^2",
        "x0": (1.0, 1.0),
        "training": (_MAP_STARTS, 40),
    },
    "logistic": {
        "builder": _build_logistic,
        "lift": lambda p, rank: _lifting().carleman_logistic(p["r"], rank),
        "defaults": {"r": 3.5},
        "description": "discrete 1-state logistic map x -> r*x*(1 - x)",
        "x0": (0.5,),
        "training": (tuple((v,) for v in np.linspace(0.1, 0.8, 8)), 40),
    },
    "center_manifold": {
        "builder": _build_center_manifold,
        "lift": lambda p, rank: _lifting().carleman_center(rank),
        "defaults": {},
        "description": "continuous 1-state flow dx/dt = x^2 (finite-time blow-up at t = 1/x0)",
        "x0": (0.5,),
        "horizon": _center_manifold_horizon,
        "training": (tuple((v,) for v in np.linspace(0.05, 0.45, 9)), 1.5),
        "eigenfunctions": {"exp_neg_inv": 1.0},  # d/dt exp(-1/x) = exp(-1/x)
    },
    "kooc_demo": {
        **_slow_manifold(_PARABOLA, input_map=((0.0,), (1.0,))),
        "defaults": {"mu": -0.1, "lambda": 1.0},
        "description": "actuated quad-manifold flow, input on x2 (B = [0, 1]); lifted-control benchmark",
        "x0": (-5.0, 5.0),
        "horizon": 5.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "limitation": {
        **_slow_manifold(_PARABOLA, input_map=((1.0,), (0.0,))),
        "defaults": {"mu": 0.1, "lambda": -1.0},
        "description": "actuated quad-manifold flow, input on x1 (B = [1, 0]); lifted x1^2 mode at 2*mu is uncontrollable",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "rotated_quad": {
        "builder": _build_rotated_quad,
        "lift": _lift_rotated_quad,
        "manifold": _PARABOLA,
        "defaults": {"mu": -0.05, "lambda": 1.0, "angle": float(np.pi / 4)},
        "description": "quad-manifold flow expressed in tilted coordinates (eta, xi) at the given angle",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
}


def registry_names():
    return sorted(_REGISTRY)


def registry_info():
    """Description strings keyed by system name."""
    return {key: _REGISTRY[key]["description"] for key in registry_names()}


def _canonical(name):
    key = str(name).replace("-", "_")
    if key not in _REGISTRY:
        raise ValueError(f"unknown system '{name}'; known: {', '.join(registry_names())}")
    return key


def builtin(name, **params):
    """Construct a registry system; keyword params override the defaults.

    ``lam`` is accepted as an alias for the reserved word ``lambda``.
    """
    key = _canonical(name)
    entry = _REGISTRY[key]
    merged = dict(entry["defaults"])
    for pname, value in params.items():
        pname = "lambda" if pname == "lam" else pname
        if pname not in merged:
            raise ValueError(f"system '{key}' takes no parameter '{pname}'")
        merged[pname] = float(value)
    system = entry["builder"](merged)
    system.name = key
    return system


# ---------------------------------------------------------------------------
# artifact formats: CSV tables (RFC 4180) and JSON documents
# ---------------------------------------------------------------------------

def _fmt(value):
    """A number as text that reads back to the same float."""
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_trajectory(traj: Trajectory, path, state_names=None):
    """Write a trajectory as CSV with header t,x1,...,xn[,u or u1..uq]."""
    n = traj.dim
    names = list(state_names) if state_names else [f"x{i + 1}" for i in range(n)]
    if len(names) != n:
        raise ValueError("state_names length mismatch")
    header = ["t"] + names
    columns = [traj.times, traj.states]
    if traj.inputs is not None:
        q = traj.inputs.shape[1]
        header += ["u"] if q == 1 else [f"u{i + 1}" for i in range(q)]
        columns.append(traj.inputs)
    _write_csv(path, header, np.column_stack(columns))


def _numeric_row(path, line, row):
    """The cells of one CSV row as floats; a bad cell is named by line and column."""
    values = []
    for column, cell in enumerate(row, start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}: line {line}, column {column}: not a number: {cell!r}") from None
    return values


def read_trajectory(path):
    """Read a trajectory CSV produced by :func:`write_trajectory`.

    The writer's input names, ``u`` and ``u<k>``, mark the input columns;
    every other column after ``t`` is a state, whatever its name.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [_numeric_row(path, reader.line_num, row) for row in reader if row]
    if not header or header[0] != "t":
        raise ValueError(f"{path}: expected header starting with 't'")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    columns = data[:, 1:]
    is_input = np.array([re.fullmatch(r"u\d*", name) is not None for name in header[1:]], dtype=bool)
    inputs = columns[:, is_input] if is_input.any() else None
    return Trajectory(times=data[:, 0], states=columns[:, ~is_input], inputs=inputs)
