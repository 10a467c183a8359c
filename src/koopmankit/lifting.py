"""Observable libraries and Koopman lifts read off the field, and their closure.

Every observable is a polynomial. A :class:`KoopmanModel` packages a library
with the square matrix K that advances it. :func:`field_lift` reads K off the
field for any library of linearly independent polynomials, and every lift in
the package is built that way: the Carleman truncations and the slow-manifold
family's exact and tilted lifts, whose systems live in :mod:`koopmankit.registry`.
:func:`closure_residual` compares coefficients: 0 means the library is exactly
invariant, and a Carleman truncation's dropped monomials are its truncation
error. Both read a library's advances from its one slot, which holds those
along the last field it was advanced along. ``_close``, the growth loop of
refinement, adds the monomials a library's advances name until it closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import isfinite

import numpy as np

from . import dynamics
from .dynamics import CONTINUOUS, DISCRETE, Trajectory
from .exceptions import BlowUp
from .polynomials import Polynomial, PolynomialMap, _compose_all, _graded_lex, _linear_sum, format_polynomial


def _as_observable(obs, dim):
    if isinstance(obs, Polynomial):
        if obs.dim != dim:
            raise ValueError("observable dimension mismatch")
        if obs.is_zero():
            raise ValueError("zero polynomial is not a valid observable")
        return obs
    if isinstance(obs, str):
        raise ValueError(f"observable {obs!r} is not a polynomial")
    return Polynomial.monomial(dim, tuple(obs))  # an exponent sequence


@dataclass
class ObservableLibrary:
    """Ordered collection of polynomial observables on an n-dimensional state.

    An entry is a :class:`Polynomial` or an exponent sequence, read as that
    monomial. ``state_inclusive`` is read off the entries at construction:
    True when the first n are x1..xn. The entries are compiled into one
    :class:`PolynomialMap` at construction. The entries' advances along the last
    field that :func:`field_lift` or :func:`closure_residual` read are kept with it.
    """

    dim: int
    observables: tuple

    def __post_init__(self):
        obs = tuple(_as_observable(o, self.dim) for o in self.observables)
        if len(set(obs)) != len(obs):
            raise ValueError("duplicate observables in library")
        self.observables = obs
        self._state_inclusive = obs[:self.dim] == tuple(Polynomial.variable(self.dim, i)
                                                        for i in range(self.dim))
        self._map = PolynomialMap(self.dim, obs)
        self._advanced = None  # (field key, advances)

    def __len__(self):
        return len(self.observables)

    @property
    def names(self):
        return [format_polynomial(o) for o in self.observables]

    @property
    def state_inclusive(self):
        """True when the first n observables are the state coordinates x1..xn."""
        return self._state_inclusive

    def linear_combination(self, coeffs):
        """The polynomial sum of coeffs[j] * observable j, zero coefficients skipped.

        The terms are summed in one dict, in the order and with the bits of
        the fold ``out + coeff * obs``.
        """
        coeffs = np.asarray(coeffs, dtype=float).tolist()  # Python floats, the entries' bits
        return _linear_sum(self.dim, ((coeff, obs)
                                      for coeff, obs in zip(coeffs, self.observables)
                                      if coeff != 0.0))


def monomials(dim, max_degree):
    """State-inclusive library of all monomials of degree 1..max_degree.

    Graded-lexicographic order: by total degree, then descending exponent of
    the earliest variable, so the state coordinates come first.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    exps = [tuple(combo.count(i) for i in range(dim))
            for degree in range(1, max_degree + 1)
            for combo in combinations_with_replacement(range(dim), degree)]
    return ObservableLibrary(dim, tuple(sorted(exps, key=_graded_lex)))


def eval_library(library: ObservableLibrary, x):
    """Stack observable values: (m,) for a point, (m, M) for snapshot columns.

    The values come from the library's one compiled :class:`PolynomialMap`,
    which refuses a state whose leading dimension is not the library's.
    """
    return library._map(x)


@dataclass
class KoopmanModel:
    """A linear advance matrix K over a state-inclusive observable library.

    Continuous kind: d/dt Theta(x) = K Theta(x); discrete kind:
    Theta(F(x)) = K Theta(x). The first n rows of Theta are the state
    x1..xn, so the first n rows of K advance it; any other library raises
    ``ValueError``.
    """

    library: ObservableLibrary
    K: np.ndarray
    time_kind: str

    def __post_init__(self):
        if self.time_kind not in (CONTINUOUS, DISCRETE):
            raise ValueError("bad time_kind")
        if not self.library.state_inclusive:
            raise ValueError("a Koopman model needs a state-inclusive library")
        k = np.asarray(self.K, dtype=float)
        m = len(self.library)
        if k.shape != (m, m):
            raise ValueError(f"K must be {m}x{m} for this library, got {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("K contains non-finite entries")
        self.K = k

    @property
    def state_dim(self):
        return self.library.dim

    @property
    def state_rows(self):
        return tuple(range(self.state_dim))


def field_lift(library: ObservableLibrary, system):
    """The lift of ``system`` on linearly independent polynomials: K C = A, with C the observables'
    coefficients and A their exact advances on the monomials the observables hold, in order of first
    appearance. Unit monomials have C = I and K = A; any other library solves on the columns partial
    pivoting of C^T picks, and raises ``ValueError`` on an observable spanned by those before it.
    Advance terms off those columns are left to :func:`closure_residual`, 0 for an invariant library."""
    if system.dim != library.dim:
        raise ValueError("state dimension mismatch")
    column = _held_monomials(library)
    a = _coefficients(_library_advances(library, system), column)
    if all(obs.is_monomial() for obs in library.observables):
        return KoopmanModel(library, a, system.time_kind)
    c = _coefficients(library.observables, column)
    rest, pivots = c.copy(), []
    for i, obs in enumerate(library.observables):
        pivots.append(j := int(np.argmax(np.abs(rest[i]))))
        if abs(rest[i, j]) <= len(c) * np.finfo(float).eps * np.abs(c[i]).max():
            raise ValueError(f"observable {format_polynomial(obs)} is linearly dependent on the ones before it")
        rest[i + 1:] -= np.outer(rest[i + 1:, j] / rest[i, j], rest[i])
    k = np.linalg.solve(c[:, pivots].T, a[:, pivots].T).T
    return KoopmanModel(library, np.ascontiguousarray(k), system.time_kind)


def _held_monomials(library):
    """{exponents: column} of each monomial the observables hold, in first-appearance order."""
    return {e: j for j, e in enumerate(dict.fromkeys([e for obs in library.observables for e in obs.terms]))}


def _coefficients(polys, column):
    """The polynomials' coefficients on ``column``'s monomials; other terms are dropped."""
    out = np.zeros((len(polys), len(column)))
    for i, poly in enumerate(polys):
        for exps, coeff in poly.terms.items():
            if exps in column:
                out[i, column[exps]] = coeff
    return out


# ---------------------------------------------------------------------------
# symbolic closure
# ---------------------------------------------------------------------------

def _advances(observables, system):
    """Each observable's image under the dynamics; the compositions of a map
    share one table of the powers of its equations."""
    if system.time_kind == CONTINUOUS:
        return [obs.lie_derivative(system.equations) for obs in observables]
    return _compose_all(observables, system.equations)


def _library_advances(library, system):
    """The library's advances along ``system``, formed once while its
    :func:`~koopmankit.dynamics._field_key` repeats; a field of another key
    replaces the library's one slot."""
    key = dynamics._field_key(system)
    if library._advanced is None or library._advanced[0] != key:
        library._advanced = (key, _advances(library.observables, system))
    return library._advanced[1]


def _close(observables, system, degree_cap, max_rounds):
    """Grow ``observables`` by each monomial their advances along ``system`` name and none holds.

    An observable of one term holds its monomial. Round 1 advances the observables given; a round
    that does not stop adds, in graded-lex order, every monomial its advances name, so each later
    round advances only those. Growth stops closed when a round adds nothing, and unclosed at a
    monomial above ``degree_cap`` or after ``max_rounds`` rounds. Returns (observables, rounds, closed)."""
    grown = list(observables)
    held = {e for obs in grown if len(obs.terms) == 1 for e in obs.terms}
    fresh, rounds = grown, 0
    for rounds in range(1, max_rounds + 1):
        missing = {e for advance in _advances(fresh, system) for e in advance.terms} - held
        if not missing:
            return grown, rounds, True
        admissible = sorted((e for e in missing if sum(e) <= degree_cap), key=_graded_lex)
        fresh = [Polynomial.monomial(system.dim, e) for e in admissible]
        grown += fresh
        held.update(admissible)
        if len(admissible) < len(missing):
            break  # some or all of the closure lies beyond the cap
    return grown, rounds, False


def closure_residual(model: KoopmanModel, system, truncate=False):
    """Largest coefficient mismatch between each observable's advance and K·Theta.

    Zero means the library is exactly invariant and K reproduces the dynamics
    coefficient-for-coefficient. With ``truncate=True``, advance terms whose
    monomials no observable holds (the discarded tail of a Carleman
    truncation) are dropped before comparing: K·Theta reaches exactly the
    monomials of the observables, so a library with a non-monomial
    observable such as x + x^2 keeps its x^2 terms.

    The residual is absolute, so compare it with max|K|.

    The two coefficient dicts are compared as they are, with no truncated,
    negated or difference polynomial built. ``lhs - rhs`` would add
    ``lhs + (-rhs)``, which IEEE rounds as ``lhs - rhs``, and a monomial on
    one side alone differs by its own coefficient, so the residual has the
    bits of the largest absolute coefficient of ``lhs - rhs``. Both sides
    are validated, so only a difference can be non-finite, and that raises
    the ``ValueError`` ("non-finite coefficient") the difference polynomial
    would.
    """
    if system.time_kind != model.time_kind:
        raise ValueError("model and system time kinds differ")
    if system.dim != model.library.dim:
        raise ValueError("state dimension mismatch")
    retained = _held_monomials(model.library)
    worst = 0.0
    for i, advance in enumerate(_library_advances(model.library, system)):
        lhs = advance.terms
        if truncate:
            lhs = {e: c for e, c in lhs.items() if e in retained}
        rhs = model.library.linear_combination(model.K[i]).terms
        gaps = [abs(c - rhs.get(e, 0.0)) for e, c in lhs.items()]
        gaps += [abs(c) for e, c in rhs.items() if e not in lhs]
        worst = max(worst, max(gaps, default=0.0))
        if not isfinite(worst):
            raise ValueError("non-finite coefficient")
    return worst


# ---------------------------------------------------------------------------
# linear propagation of lifted states
# ---------------------------------------------------------------------------

_BLOCK = 64  # flow samples filled by one product with the stacked step-matrix powers


def propagate(model: KoopmanModel, x0, t_end=None, dt=dynamics.DEFAULT_DT, steps=None):
    """Advance the lifted state linearly and return the lifted trajectory.

    A discrete model takes ``steps`` steps of K. A continuous model takes
    fixed RK4 steps of dt on [0, t_end], each the step matrix T4(dt K) =
    I + dt K + (dt K)^2/2 + (dt K)^3/6 + (dt K)^4/24. A flow fills 64 samples
    per product of the stacked powers T4, T4^2, ..., T4^64 with the sample
    before them. The 64 powers fill one preallocated stack, each the product
    of the one before it with T4, and one finiteness test over the stack cuts
    it before its first non-finite power; a map steps by K alone, as its
    powers can overflow where its samples do not.
    A non-finite sample raises :class:`~koopmankit.exceptions.BlowUp` at its
    time. No norm limit applies: a truncated Carleman lift can hold finite
    entries far above ``integrate``'s 1e8 while its state row stays accurate.
    """
    y0 = eval_library(model.library, dynamics._initial_state(model.state_dim, x0))
    k = model.K
    if model.time_kind == DISCRETE:
        if t_end is not None:
            raise ValueError("a discrete model takes steps, not t_end")
        if steps is None:
            raise ValueError("steps required for a discrete model")
        times, stack = dynamics._step_grid(steps), k
    else:
        if steps is not None:
            raise ValueError("a continuous model takes t_end, not steps")
        if t_end is None:
            raise ValueError("t_end required for a continuous model")
        times = dynamics._time_grid(t_end, dt)
        eye, hk = np.eye(len(k)), dt * k
        powers = np.empty((_BLOCK, len(k), len(k)))
        with np.errstate(over="ignore", invalid="ignore"):
            powers[0] = eye + hk @ (eye + (hk / 2) @ (eye + (hk / 3) @ (eye + hk / 4)))
            for j in range(1, _BLOCK):
                np.matmul(powers[j - 1], powers[0], out=powers[j])
        finite = np.isfinite(powers)
        if not finite.all():  # per power only on failure; T4 itself is always kept
            powers = powers[:max(1, np.argmin(finite.all(axis=(1, 2))))]
        stack = powers.reshape(-1, len(k))
    m = len(y0)
    block = len(stack) // m
    ys = np.empty((len(times), m))
    ys[0] = y0
    flat = ys.reshape(-1)  # a view: each product writes its block of samples in place
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(times) - 1, block):
            n = min(block, len(times) - 1 - i)
            np.matmul(stack[:n * m], flat[i * m:(i + 1) * m], out=flat[(i + 1) * m:(i + 1 + n) * m])
    finite = np.isfinite(ys)
    if not finite.all():  # a whole-array test; rows only on failure, as all(axis=1) is slow
        raise BlowUp(float(times[np.argmin(finite.all(axis=1))]), float("inf"), dynamics.BLOWUP_LIMIT)
    return Trajectory(times=times, states=ys)


def project_states(model: KoopmanModel, lifted: Trajectory):
    """Extract the original state coordinates: the lifted trajectory's first n rows."""
    return lifted.states[:, :model.state_dim]
