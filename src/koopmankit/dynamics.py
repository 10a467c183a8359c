"""Polynomial vector fields and maps, and trajectory generation.

Continuous systems are integrated with fixed-step classical RK4, and
discrete systems are iterated exactly. The module defines no particular
system; the paper's live in :mod:`koopmankit.registry`.

Maps and flows run one generated trajectory loop per system, built from a
:class:`~koopmankit.polynomials.PolynomialMap` of its equations on the first
``iterate`` or ``integrate`` call and kept on the system (systems of one
structure share one compile of its source); a system that is never run
builds no map. The loop's states reach numpy as one flat list of floats. A
step is straight-line code on local floats ``x0, x1, ...``: a map's lines
once, or one RK4 step with the field's lines inlined once per substep. A
step makes no numpy call: a power above 2 is an inline ``x ** e`` (libm
``pow``), whose overflow raises its step's ``BlowUp``, a +-1 coefficient
multiplies nothing, and only rows whose sign of zero can reach a state start
from ``0.0`` (see ``_loop_source``). ``integrate`` runs the field f(x)
alone; the one closed-loop path,
:func:`koopmankit.control.compare_lqr_kooc`, compiles each feedback law into
its closed loop f(x) + B u(x), a system of its own. Python float ``*``,
``+`` and ``-`` round like numpy's, and every operation keeps the order of
the numpy loops this replaced, so states are bit-identical to them.

The loop aborts with :class:`~koopmankit.exceptions.BlowUp` once the state
norm passes 1e8; a start that is already non-finite is bad input and raises
``ValueError`` instead. After each step a cheap sum-of-squares test runs,
set a hair under the limit squared so that rounding cannot hide a blow-up.
Only a state that trips it gets the full test: a non-finite entry raises
``BlowUp`` at that sample time with norm ``inf``, and otherwise
``np.linalg.norm`` decides, so ``t`` and ``norm`` are those of a full test at
every step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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

    ``equations[i]`` is the :class:`Polynomial` for dx_i/dt or x_i(k+1).
    ``input_map`` is an optional n-by-q matrix B for actuated systems, which
    :func:`koopmankit.control.compare_lqr_kooc` closes into f(x) + B u(x);
    ``integrate`` and ``iterate`` use f alone. ``params`` records the named
    constants the equations were built from. The first ``integrate`` or
    ``iterate`` call compiles the system's trajectory loop from a
    :class:`PolynomialMap` of the equations, and pickling drops the loop.
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
        self.equations = tuple(self.equations)
        for eq in self.equations:
            if not isinstance(eq, Polynomial):
                raise ValueError(f"each equation must be a Polynomial, got {type(eq).__name__}")
            if eq.dim != self.dim:
                raise ValueError("equation dimension mismatch")
        if len(self.equations) != self.dim:
            raise ValueError(f"expected {self.dim} equations, got {len(self.equations)}")
        if self.input_map is not None:
            b = np.atleast_2d(np.asarray(self.input_map, dtype=float))
            if b.shape[0] != self.dim:
                raise ValueError(f"input map must have {self.dim} rows, got {b.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("input map contains non-finite entries")
            self.input_map = b
        self._loop = None  # the trajectory loop of either time kind, compiled on first use

    def __getstate__(self):
        return {**self.__dict__, "_loop": None}  # generated code does not pickle


def _field_key(system):
    """The field by content: its time kind and its equations' terms in dict order, the order in
    which the compiled loops and the polynomial algebra read them, so equal keys give equal bits."""
    return system.time_kind, tuple(tuple(eq.terms.items()) for eq in system.equations)


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


def _initial_state(dim, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    return x0


def _time_grid(t_end, dt):
    """Sample times 0, dt, ..., n*dt with n = round(t_end/dt) >= 1 steps."""
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end {t_end:g} takes too many steps of dt {dt:g}: "
                         "t_end/dt is not finite")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ValueError(f"t_end {t_end:g} takes no step of dt {dt:g}: round(t_end/dt) is 0")
    return _step_grid(steps) * dt


def _step_grid(steps):
    """The floats 0, 1, ..., ``steps``: the sample grid of a map, and of a flow before dt."""
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    try:
        return np.arange(steps + 1, dtype=float)
    except (MemoryError, ValueError):  # numpy raises ValueError for a size it cannot even address
        raise ValueError(f"{steps} steps take more samples than numpy can allocate") from None


# The loop tests the sum of squares against this, a hair under LIMIT^2 so that
# rounding cannot let a norm past the limit; only a state that trips it gets
# the full test, _check_state.
_GUARD = BLOWUP_LIMIT**2 * (1.0 - 1e-9)


def _check_state(x, t):
    if not all(map(math.isfinite, x)):
        raise BlowUp(t, float("inf"), BLOWUP_LIMIT)
    with np.errstate(over="ignore"):  # a norm past the float range reports inf
        norm = float(np.linalg.norm(x))
    if not np.isfinite(norm) or norm > BLOWUP_LIMIT:
        raise BlowUp(t, norm, BLOWUP_LIMIT)


def _loop_source(pmap, time_kind):
    """The body of the trajectory loop over ``pmap``, the one loop of both time kinds.

    The state is the locals ``x0, x1, ...``. A map's step is its lines once,
    into ``a0, a1, ...``, each row summed from ``zero`` as it is the next
    state. A flow's step is one RK4 step with the field inlined four times:
    ``a0, a1, ...`` hold each substep's state and ``d<s>_<i>`` its
    derivative. Every operation is the numpy loop's, in its order, so states
    keep its bits: ``a_i = x_i + half * d1_i``,
    ``x_i + sixth * (d1_i + 2.0 * d2_i + 2.0 * d3_i + d4_i)``.

    Only the first substep's rows start from ``zero``; the others start at
    their first term, which changes at most their sign of zero. A derivative
    reaches the state only through ``x_i + y``, which depends on the sign of
    a zero y only at ``x_i == -0.0``, and ``d1_i + 2.0 * d2_i + ...`` cannot
    be -0.0 once ``d1_i`` is not, so states keep their bits from any start.
    A power above 2 is an inline ``x ** e``; its ``OverflowError``, caught
    once around the loop, raises the ``BlowUp(t, inf)`` that the step's
    state would have, as the +-inf of ``pow`` reaches it through a nonzero
    coefficient. The states go into one flat list.
    """
    n = pmap.dim
    xs, subs = [f"x{i}" for i in range(n)], [f"a{i}" for i in range(n)]
    if time_kind == DISCRETE:
        start, step = [], pmap._lines(xs, subs, inline=True) + [f"x{i} = a{i}" for i in range(n)]
    else:
        start, step = ["half = 0.5 * dt", "sixth = dt / 6.0"], []
        substeps = ((xs, None), (subs, "half"), (subs, "half"), (subs, "dt"))
        for s, (inputs, scale) in enumerate(substeps, 1):
            if scale:
                step += [f"a{i} = x{i} + {scale} * d{s - 1}_{i}" for i in range(n)]
            step += pmap._lines(inputs, [f"d{s}_{i}" for i in range(n)], zero=s == 1, inline=True)
        step += [f"x{i} = x{i} + sixth * (d1_{i} + 2.0 * d2_{i} + 2.0 * d3_{i} + d4_{i})"
                 for i in range(n)]
    step += [*(f"append({v})" for v in xs),
             f"if not {' + '.join(f'{v} * {v}' for v in xs)} <= guard:",
             f"    check(({''.join(f'{v}, ' for v in xs)}), times[k + 1])"]
    return [*start, f"[{', '.join(xs)}] = states = x", "append = states.append", "try:",
            "    for k in range(len(times) - 1):", *(f"        {line}" for line in step),
            "except OverflowError:", "    check((inf,), times[k + 1])", "return states"]


def _run(system, x0, times, dt=None):
    """Run ``system``'s loop from ``x0`` over ``times``, a flow's at step ``dt``;
    the first call builds the loop and keeps it on the system."""
    x = _initial_state(system.dim, x0).tolist()
    _check_state(x, times[0])
    if system._loop is None:
        pmap = PolynomialMap(system.dim, system.equations)
        system._loop = pmap._compile(
            "_loop(x, times, dt, zero=0.0, guard=_GUARD, check=_check_state)",
            _loop_source(pmap, system.time_kind),
            _GUARD=_GUARD, _check_state=_check_state, inf=math.inf)
    n, samples = system.dim, len(times)
    states = np.fromiter(system._loop(x, times, dt), float, n * samples)
    return Trajectory(times=times, states=states.reshape(samples, n))


def integrate(system: PolySystem, x0, t_end, dt=DEFAULT_DT):
    """Fixed-step RK4 integration of f from t=0 to n_steps*dt covering ``t_end``."""
    if system.time_kind != CONTINUOUS:
        raise ValueError("integrate requires a continuous-time system")
    return _run(system, x0, _time_grid(t_end, dt), dt)


def iterate(system: PolySystem, x0, steps):
    """Iterate a discrete map for ``steps`` steps (times are step indices)."""
    if system.time_kind != DISCRETE:
        raise ValueError("iterate requires a discrete-time system")
    return _run(system, x0, _step_grid(steps))
