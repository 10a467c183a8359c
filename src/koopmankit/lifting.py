"""Observable libraries, closed-form Koopman lifts, and truncated Carleman matrices.

A lift packages an observable library together with the square matrix that
advances it, as a :class:`KoopmanModel`. For the slow-manifold family the
matrix closes exactly on the library; :func:`closure_residual` verifies that
symbolically, with zero residual, by comparing polynomial coefficients.
Carleman constructions are truncations: rows within the retained rank are
exact, and the neglected monomials are the truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import dynamics
from .dynamics import CONTINUOUS, DISCRETE, Trajectory
from .exceptions import BlowUp
from .polynomials import Polynomial, PolynomialMap, _graded_lex, format_polynomial, ipow, monomial_name

EXP_NEG_INV = "exp_neg_inv"
_NAMED = (EXP_NEG_INV,)


def eval_named_observable(name, values):
    """Evaluate a named closed-form observable on scalar samples.

    ``exp_neg_inv`` is exp(-1/x) for x > 0, extended continuously by 0 at
    x = 0; negative arguments are outside its domain.
    """
    if name != EXP_NEG_INV:
        raise ValueError(f"unknown named observable '{name}'")
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError("exp_neg_inv is undefined for negative arguments")
    safe = np.where(v > 0, v, 1.0)
    return np.where(v > 0, np.exp(-1.0 / safe), 0.0)


def _as_observable(obs, dim):
    if isinstance(obs, str):
        name = obs.replace("-", "_")
        if name not in _NAMED:
            raise ValueError(f"unknown named observable '{obs}'")
        if dim != 1:
            raise ValueError("named observables require a 1-state library")
        return name
    if isinstance(obs, Polynomial):
        if obs.dim != dim:
            raise ValueError("observable dimension mismatch")
        if obs.is_zero():
            raise ValueError("zero polynomial is not a valid observable")
        return obs
    # bare exponent tuple -> monomial
    return Polynomial.monomial(dim, tuple(obs))


def observable_name(obs):
    if isinstance(obs, str):
        return obs
    if obs.is_monomial():
        return monomial_name(obs.exponents())
    return format_polynomial(obs)


@dataclass
class ObservableLibrary:
    """Ordered collection of observables on an n-dimensional state.

    Entries are polynomials (monomials being the common case) or the name of
    a closed-form scalar function. ``state_inclusive`` asserts that the first
    n observables are the state coordinates themselves. The polynomial
    entries are compiled into one :class:`PolynomialMap` at construction; a
    named entry keeps its own row, filled by :func:`eval_named_observable`.
    """

    dim: int
    observables: tuple
    state_inclusive: bool = False

    def __post_init__(self):
        obs = tuple(_as_observable(o, self.dim) for o in self.observables)
        keys = [o if isinstance(o, str) else o.key() for o in obs]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate observables in library")
        if self.state_inclusive:
            if len(obs) < self.dim:
                raise ValueError("state-inclusive library shorter than the state")
            for i in range(self.dim):
                expected = Polynomial.variable(self.dim, i)
                if not (isinstance(obs[i], Polynomial) and obs[i] == expected):
                    raise ValueError(f"observable {i} must be x{i + 1} in a state-inclusive library")
        self.observables = obs
        zero = Polynomial.zero(self.dim)
        self._map = PolynomialMap(self.dim, (zero if isinstance(o, str) else o for o in obs))
        self._named = tuple((j, o) for j, o in enumerate(obs) if isinstance(o, str))

    def __len__(self):
        return len(self.observables)

    @property
    def names(self):
        return [observable_name(o) for o in self.observables]

    def is_polynomial(self):
        return all(isinstance(o, Polynomial) for o in self.observables)

    def linear_combination(self, coeffs):
        """The polynomial sum of coeffs[j] * observable j, zero coefficients skipped."""
        out = Polynomial.zero(self.dim)
        for coeff, obs in zip(coeffs, self.observables):
            if coeff != 0.0:
                out = out + coeff * obs
        return out


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
    return ObservableLibrary(dim, tuple(sorted(exps, key=_graded_lex)), state_inclusive=True)


def eval_library(library: ObservableLibrary, x):
    """Stack observable values: (m,) for a point, (m, M) for snapshot columns."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != library.dim:
        raise ValueError(f"state dimension {x.shape[0]} does not match library dim {library.dim}")
    out = library._map(x)
    for j, name in library._named:
        out[j] = eval_named_observable(name, x[0])
    return out


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


def _manifold_library(powers):
    obs = [(1, 0), (0, 1)] + [(n, 0) for n in powers]
    return ObservableLibrary(2, tuple(obs), state_inclusive=True)


def slow_manifold_lift_ct(mu, lam, poly):
    """Exact lift of dx1/dt = mu*x1, dx2/dt = lam*(x2 - P(x1)).

    P is given as {exponent: coefficient}. The library is
    [x1, x2, x1^N1, ..., x1^NM] with exponents ascending, and K is
    diag(mu, lam, mu*N1, ..., mu*NM) plus row-2 couplings -a_i*lam.
    """
    return _slow_manifold_lift(mu, lam, poly, -lam, lambda n: mu * n, CONTINUOUS)


def slow_manifold_lift_dt(mu, lam, poly):
    """Exact lift of the discrete family x1 -> mu*x1, x2 -> lam*x2 + (1-lam)*P(x1).

    Same library as the continuous lift; the diagonal carries the multipliers
    mu, lam, mu^N1, ..., and row 2 couples through a_i*(1-lam).
    """
    return _slow_manifold_lift(mu, lam, poly, 1.0 - lam, lambda n: ipow(mu, n), DISCRETE)


def _slow_manifold_lift(mu, lam, poly, coupling, rate, time_kind):
    """K = diag(mu, lam, rate(N1), ...) with row-2 couplings coupling*a_i."""
    terms = dynamics._poly_dict(poly)
    powers = list(terms)
    m = 2 + len(powers)
    k = np.zeros((m, m))
    k[0, 0] = mu
    k[1, 1] = lam
    for i, n in enumerate(powers):
        k[1, 2 + i] = coupling * terms[n]
        k[2 + i, 2 + i] = rate(n)
    return KoopmanModel(_manifold_library(powers), k, time_kind)


def tu_lift(lam, mu):
    """Exact lift of x1 -> lam*x1, x2 -> mu*x2 + (lam^2 - mu)*x1^2.

    Built directly (rather than by rewriting into the discrete family) so the
    matrix entries are bit-identical to the registry map's coefficients and
    the symbolic closure check is exact.
    """
    k = np.zeros((3, 3))
    k[0, 0] = lam
    k[1, 1] = mu
    k[1, 2] = lam * lam - mu
    k[2, 2] = lam * lam
    return KoopmanModel(_manifold_library([2]), k, DISCRETE)


def carleman_logistic(r, rank):
    """Truncated Carleman matrix of the logistic map on [x, x^2, ..., x^rank].

    Row n carries r^n times the alternating Pascal row: entry (n, n+k) is
    (-1)^k * C(n, k) * r^n for k = 0..n, with columns beyond the rank dropped.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    k = np.zeros((rank, rank))
    for n in range(1, rank + 1):
        rn = ipow(r, n)
        for j in range(n + 1):
            col = n + j
            if col > rank:
                break
            coeff = comb(n, j) * rn
            k[n - 1, col - 1] = -coeff if j % 2 else coeff
    return KoopmanModel(monomials(1, rank), k, DISCRETE)


def carleman_center(rank):
    """Truncated Carleman generator of dx/dt = x^2 on [x, x^2, ..., x^rank].

    Superdiagonal entry (i, i+1) is i; the matrix is nilpotent, so every
    truncation has determinant exactly zero.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    k = np.zeros((rank, rank))
    for i in range(1, rank):
        k[i - 1, i] = float(i)
    return KoopmanModel(monomials(1, rank), k, CONTINUOUS)


# ---------------------------------------------------------------------------
# symbolic closure
# ---------------------------------------------------------------------------

def observable_advance(obs: Polynomial, system) -> Polynomial:
    """The observable's image under the dynamics: Lie derivative or composition."""
    if system.time_kind == CONTINUOUS:
        return obs.lie_derivative(system.equations)
    return obs.compose(system.equations)


def closure_residual(model: KoopmanModel, system, truncate=False):
    """Largest coefficient mismatch between each observable's advance and K·Theta.

    Zero means the library is exactly invariant and K reproduces the dynamics
    coefficient-for-coefficient. With ``truncate=True``, advance terms whose
    monomials lie outside the library (the discarded tail of a Carleman
    truncation) are dropped before comparing.
    """
    if not model.library.is_polynomial():
        raise ValueError("closure check requires a polynomial library")
    if system.time_kind != model.time_kind:
        raise ValueError("model and system time kinds differ")
    if system.dim != model.library.dim:
        raise ValueError("state dimension mismatch")
    retained = {o.exponents() for o in model.library.observables if o.is_monomial()}
    worst = 0.0
    for i, obs in enumerate(model.library.observables):
        lhs = observable_advance(obs, system)
        if truncate:
            lhs = Polynomial(lhs.dim, {e: c for e, c in lhs.terms.items() if e in retained})
        rhs = model.library.linear_combination(model.K[i])
        worst = max(worst, (lhs - rhs).max_abs_coeff())
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
    before them, stopping the stack before its first non-finite power; a map
    steps by K alone, as its powers can overflow where its samples do not.
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
        dynamics._check_steps(steps)
        times, stack = np.arange(steps + 1, dtype=float), k
    else:
        if steps is not None:
            raise ValueError("a continuous model takes t_end, not steps")
        if t_end is None:
            raise ValueError("t_end required for a continuous model")
        times = dynamics._time_grid(t_end, dt)
        eye, hk = np.eye(len(k)), dt * k
        powers = [eye + hk @ (eye + (hk / 2) @ (eye + (hk / 3) @ (eye + hk / 4)))]
        with np.errstate(over="ignore", invalid="ignore"):
            while len(powers) < _BLOCK and np.all(np.isfinite(nxt := powers[-1] @ powers[0])):
                powers.append(nxt)
        stack = np.vstack(powers)
    m = len(y0)
    block = len(stack) // m
    ys = np.empty((len(times), m))
    ys[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(times) - 1, block):
            n = min(block, len(times) - 1 - i)
            ys[i + 1:i + 1 + n] = (stack[:n * m] @ ys[i]).reshape(n, m)
    finite = np.isfinite(ys)
    if not finite.all():  # a whole-array test; rows only on failure, as all(axis=1) is slow
        raise BlowUp(float(times[np.argmin(finite.all(axis=1))]), float("inf"), dynamics.BLOWUP_LIMIT)
    return Trajectory(times=times, states=ys)


def project_states(model: KoopmanModel, lifted: Trajectory):
    """Extract the original state coordinates: the lifted trajectory's first n rows."""
    return lifted.states[:, :model.state_dim]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def observable_to_json(obs):
    if isinstance(obs, str):
        return obs
    if obs.is_monomial():
        return list(obs.exponents())
    return {"terms": [[c, list(e)] for e, c in sorted(obs.terms.items())]}


def observable_from_json(entry, dim):
    if isinstance(entry, str):
        return entry
    if isinstance(entry, dict):
        return Polynomial.from_terms(dim, [(c, tuple(e)) for c, e in entry["terms"]])
    return Polynomial.monomial(dim, tuple(entry))


def _library_to_json(library: ObservableLibrary) -> dict:
    return {
        "dim": library.dim,
        "state_inclusive": library.state_inclusive,
        "observables": [observable_to_json(o) for o in library.observables],
    }


def _library_from_json(data: dict) -> ObservableLibrary:
    dim = int(data["dim"])
    return ObservableLibrary(
        dim,
        tuple(observable_from_json(o, dim) for o in data["observables"]),
        state_inclusive=bool(data.get("state_inclusive", False)),
    )


def model_to_json(model: KoopmanModel) -> dict:
    return {
        "time_kind": model.time_kind,
        **_library_to_json(model.library),
        "K": [[float(v) for v in row] for row in model.K],
        "state_rows": list(model.state_rows),
    }


def model_from_json(data: dict) -> KoopmanModel:
    model = KoopmanModel(_library_from_json(data), np.asarray(data["K"], dtype=float),
                         data["time_kind"])
    rows = data.get("state_rows")
    if rows != list(model.state_rows):
        raise ValueError(f"state_rows {rows} are not the library's first {model.state_dim} rows")
    return model


def save_model(model: KoopmanModel, path):
    dynamics._write_json(path, model_to_json(model))


def load_model(path) -> KoopmanModel:
    return model_from_json(dynamics._read_json(path))
