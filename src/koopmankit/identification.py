"""Data-driven identification: DMD, sparse regression, and subspace refinement.

The sparse regression is sequential thresholded least squares on a candidate
observable library. Library columns are scaled to unit RMS before regression
and coefficients un-scaled afterwards, so the threshold acts on each term's
contribution to the signal rather than on raw coefficients whose size depends
on monomial degree.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, DISCRETE, PolySystem, Trajectory
from .lifting import (
    KoopmanModel,
    ObservableLibrary,
    _library_from_json,
    _library_to_json,
    eval_library,
    observable_advance,
    observable_name,
)
from .polynomials import Polynomial

DEFAULT_THRESHOLD = 0.025
DEFAULT_MAX_ITER = 10


@dataclass
class DataSet:
    """Aligned snapshot data: X holds states as columns, Y their advances.

    For continuous-time data Y holds time-derivative estimates; for discrete
    data Y holds the next-step states and dt is the step count (1.0).
    """

    X: np.ndarray
    Y: np.ndarray
    dt: float
    time_kind: str = CONTINUOUS

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape != self.Y.shape:
            raise ValueError(f"X and Y must have the same shape, got {self.X.shape} vs {self.Y.shape}")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise ValueError("data contains non-finite entries")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.time_kind not in (CONTINUOUS, DISCRETE):
            raise ValueError("bad time_kind")

    @property
    def n_samples(self):
        return self.X.shape[1]


# ---------------------------------------------------------------------------
# derivative estimation and dataset assembly
# ---------------------------------------------------------------------------

def differentiate_series(values, dt):
    """Columnwise d/dt of uniformly sampled series (M, c).

    Fourth-order stencils at every interior sample (central where possible,
    biased five-point one sample in from each end); second-order one-sided
    stencils at the two end samples.
    """
    m = values.shape[0]
    if m < 5:
        raise ValueError("need at least 5 samples to differentiate")
    out = np.empty_like(values)
    v = values
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * dt)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * dt)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


def _uniform_dt(times):
    if len(times) < 2:
        raise ValueError(f"a trajectory needs at least 2 samples for a sampling step, got {len(times)}")
    gaps = np.diff(times)
    dt = float(gaps[0])
    if dt <= 0 or not np.allclose(gaps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("trajectory samples are not uniformly spaced")
    return dt


def estimate_derivatives(traj: Trajectory) -> DataSet:
    """Finite-difference derivative estimates along a uniformly sampled trajectory."""
    dt = _uniform_dt(traj.times)
    dx = differentiate_series(traj.states, dt)
    return DataSet(X=traj.states.T, Y=dx.T, dt=dt, time_kind=CONTINUOUS)


def dataset_from_trajectories(trajectories, time_kind) -> DataSet:
    """Concatenate snapshot pairs from several trajectories.

    Continuous: per-trajectory derivative estimates (all trajectories must
    share the sampling step). Discrete: aligned shift pairs.
    """
    if not trajectories:
        raise ValueError("no trajectories supplied")
    xs, ys = [], []
    dt = None
    for traj in trajectories:
        if time_kind == CONTINUOUS:
            part = estimate_derivatives(traj)
            if dt is None:
                dt = part.dt
            elif not np.isclose(part.dt, dt, rtol=1e-9):
                raise ValueError("trajectories have differing sample steps")
            xs.append(part.X)
            ys.append(part.Y)
        else:
            if len(traj) < 2:
                raise ValueError(f"discrete trajectory needs at least 2 samples, got {len(traj)}")
            xs.append(traj.states[:-1].T)
            ys.append(traj.states[1:].T)
            dt = 1.0
    return DataSet(X=np.hstack(xs), Y=np.hstack(ys), dt=dt, time_kind=time_kind)


# ---------------------------------------------------------------------------
# dynamic mode decomposition
# ---------------------------------------------------------------------------

def dmd(x, xp, rcond=numerics.DEFAULT_RCOND):
    """Best-fit linear advance Xi minimizing ||Xi X - Xp||_F: Xi = Xp pinv(X)."""
    x = numerics.as_matrix(x, "x")
    xp = numerics.as_matrix(xp, "xp")
    if x.shape != xp.shape:
        raise ValueError("snapshot matrices must share a shape")
    return xp @ numerics.pinv(x, rcond=rcond)


# ---------------------------------------------------------------------------
# sparse regression
# ---------------------------------------------------------------------------

@dataclass
class SparseModel:
    """Row-sparse coefficients over an observable library.

    ``coefficients[i, j]`` multiplies observable j in the advance of target i
    (time derivative for continuous data, next value for discrete). Entries
    removed by thresholding are exactly zero.
    """

    library: ObservableLibrary
    coefficients: np.ndarray
    threshold: float
    time_kind: str

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if c.shape[1] != len(self.library):
            raise ValueError("coefficient columns must match the library")
        self.coefficients = c

    @property
    def n_targets(self):
        return self.coefficients.shape[0]

    def active_mask(self):
        return self.coefficients != 0.0

    def equations(self):
        """Per-target polynomials (requires a polynomial library)."""
        if not self.library.is_polynomial():
            raise ValueError("equations need a polynomial library")
        return tuple(self.library.linear_combination(row) for row in self.coefficients)

    def as_system(self) -> PolySystem:
        """The identified dynamics as a polynomial system."""
        if self.n_targets != self.library.dim:
            raise ValueError("targets do not span the state")
        return PolySystem(self.library.dim, self.time_kind, self.equations())

    def predict(self, x):
        return self.coefficients @ eval_library(self.library, x)


def sindy(data: DataSet, library: ObservableLibrary, threshold=DEFAULT_THRESHOLD,
          max_iter=DEFAULT_MAX_ITER) -> SparseModel:
    """Sequential thresholded least squares of Y onto library features of X.

    Thresholding compares coefficients in the unit-RMS column scaling; the
    returned coefficients are un-scaled. Raises if thresholding empties a
    target's row entirely.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    theta = eval_library(library, data.X).T  # samples x features
    n_samples, n_features = theta.shape
    if n_samples < n_features:
        warnings.warn(
            f"underdetermined regression: {n_samples} samples for {n_features} features",
            stacklevel=2,
        )
    targets = data.Y.T  # samples x targets
    _, mask, _ = _stlsq(theta, targets, threshold, max_iter)
    empty = np.flatnonzero(~mask.any(axis=0))
    if empty.size:
        raise ValueError(
            f"threshold eliminated every term for target(s) {list(empty)}; lower it"
        )
    # debias: refit on the final support in the original scaling, so
    # threshold 0 reproduces the plain least-squares solution exactly
    if mask.all():
        coeffs = numerics.lstsq(theta, targets).T
    else:
        coeffs = np.zeros((targets.shape[1], n_features))
        for i in range(targets.shape[1]):
            active = mask[:, i]
            coeffs[i, active] = numerics.lstsq(theta[:, active], targets[:, i])
    return SparseModel(library=library, coefficients=coeffs, threshold=threshold,
                       time_kind=data.time_kind)


def _stlsq(design, targets, threshold, max_iter):
    """The thresholding loop of sequential thresholded least squares.

    Columns of ``design`` are scaled to unit RMS and the threshold applies in
    that scaling. Returns the scaled coefficients (features x targets), their
    support mask and the column scales. A target whose support empties keeps
    zero coefficients from then on.
    """
    scales = np.sqrt(np.mean(design ** 2, axis=0))
    scales[scales == 0.0] = 1.0
    scaled = design / scales
    w = numerics.lstsq(scaled, targets)
    mask = np.abs(w) >= threshold
    for _ in range(max_iter):
        w = np.zeros_like(w)
        for i in range(targets.shape[1]):
            active = mask[:, i]
            if active.any():
                w[active, i] = numerics.lstsq(scaled[:, active], targets[:, i])
        new_mask = np.abs(w) >= threshold
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    return w, mask, scales


# ---------------------------------------------------------------------------
# subspace refinement
# ---------------------------------------------------------------------------

@dataclass
class RefinementResult:
    """Outcome of :func:`refine_subspace`.

    ``converged`` is False when the observable set kept growing (the dynamics
    do not close at the permitted degree); the partially refined model is
    still returned for inspection.
    """

    model: KoopmanModel
    converged: bool
    rounds: int
    added: tuple


def refine_subspace(sparse: SparseModel, data: DataSet, max_rounds=10,
                    threshold=None) -> RefinementResult:
    """Grow the active observables into an invariant set and fit its advance matrix.

    Starting from the states plus the sparse model's active observables, each
    round symbolically advances every observable through the identified
    dynamics and adds any monomial the advances need, up to twice the
    candidate library's degree. Once the set is fixed, each observable's
    advance (derivative or shift, from the data) is regressed onto the set
    with plain least squares; pass ``threshold`` to re-threshold those rows.
    """
    if not sparse.library.is_polynomial():
        raise ValueError("refinement needs a polynomial library")
    n = sparse.library.dim
    if sparse.n_targets != n:
        raise ValueError("sparse model does not cover the full state")
    identified = sparse.as_system()

    degree_cap = 2 * max(o.degree() for o in sparse.library.observables)
    working = [Polynomial.variable(n, i) for i in range(n)]
    keys = {w.key() for w in working}
    for obs, col in zip(sparse.library.observables, sparse.active_mask().any(axis=0)):
        if col and obs.key() not in keys:
            working.append(obs)
            keys.add(obs.key())

    added = []
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        missing = {}
        for obs in working:
            advance = observable_advance(obs, identified)
            for exps in advance.terms:
                mono = Polynomial.monomial(n, exps)
                if mono.key() not in keys:
                    missing[exps] = mono
        if not missing:
            converged = True
            break
        admissible = [missing[e] for e in sorted(missing, key=lambda e: (sum(e), tuple(-v for v in e)))
                      if sum(e) <= degree_cap]
        if not admissible:
            break  # every needed monomial exceeds the degree cap
        for mono in admissible:
            working.append(mono)
            keys.add(mono.key())
            added.append(observable_name(mono))
        if len(admissible) < len(missing):
            break  # part of the closure lies beyond the cap

    refined_lib = ObservableLibrary(n, tuple(working), state_inclusive=True)
    theta = eval_library(refined_lib, data.X)  # (m, M)
    targets = np.empty((len(working), data.n_samples))
    for i, obs in enumerate(working):
        if data.time_kind == CONTINUOUS:
            total = np.zeros(data.n_samples)
            for axis in range(n):
                d = obs.derivative(axis)
                if not d.is_zero():
                    total += d(data.X) * data.Y[axis]
            targets[i] = total
        else:
            targets[i] = obs(data.Y)

    if threshold is None:
        k = numerics.lstsq(theta.T, targets.T).T
    else:
        w, mask, scales = _stlsq(theta.T, targets.T, threshold, DEFAULT_MAX_ITER)
        k = (np.where(mask, w, 0.0) / scales[:, None]).T

    model = KoopmanModel(refined_lib, k, data.time_kind, state_rows=tuple(range(n)))
    return RefinementResult(model=model, converged=converged, rounds=rounds, added=tuple(added))


# ---------------------------------------------------------------------------
# invariance diagnostics
# ---------------------------------------------------------------------------

def invariance_residual(model: KoopmanModel, traj: Trajectory) -> float:
    """Relative RMS defect of the model's linear advance along a trajectory.

    Continuous: ||d/dt Theta - K Theta|| with the derivative taken by finite
    differences; discrete: ||Theta(x_{k+1}) - K Theta(x_k)||. Normalized by
    the RMS lifted-state norm; a zero trajectory returns 0.
    """
    lifted = eval_library(model.library, traj.states.T)  # (m, M)
    denom = float(np.sqrt(np.mean(np.sum(lifted ** 2, axis=0))))
    if denom == 0.0:
        return 0.0
    if model.time_kind == CONTINUOUS:
        dt = _uniform_dt(traj.times)
        lifted_dot = differentiate_series(lifted.T, dt).T
        defect = lifted_dot - model.K @ lifted
    else:
        if len(traj) < 2:
            raise ValueError("need at least 2 samples for a discrete residual")
        defect = lifted[:, 1:] - model.K @ lifted[:, :-1]
    num = float(np.sqrt(np.mean(np.sum(defect ** 2, axis=0))))
    return num / denom


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def sparse_to_json(model: SparseModel) -> dict:
    names = model.library.names
    rows = []
    for i, row in enumerate(model.coefficients):
        terms = [{"observable": names[j], "coeff": float(c)}
                 for j, c in enumerate(row) if c != 0.0]
        rows.append({"target": f"x{i + 1}", "terms": terms})
    return {
        "library": _library_to_json(model.library),
        "threshold": float(model.threshold),
        "time_kind": model.time_kind,
        "rows": rows,
    }


def sparse_from_json(data: dict) -> SparseModel:
    lib = _library_from_json(data["library"])
    names = lib.names
    coeffs = np.zeros((len(data["rows"]), len(lib)))
    for i, row in enumerate(data["rows"]):
        for term in row["terms"]:
            coeffs[i, names.index(term["observable"])] = term["coeff"]
    return SparseModel(library=lib, coefficients=coeffs,
                       threshold=float(data["threshold"]), time_kind=data["time_kind"])


def save_sparse(model: SparseModel, path):
    with open(path, "w") as fh:
        json.dump(sparse_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sparse(path) -> SparseModel:
    with open(path) as fh:
        return sparse_from_json(json.load(fh))
