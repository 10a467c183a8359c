"""Data-driven identification: DMD, sparse regression, and subspace refinement.

The sparse regression is sequential thresholded least squares on a candidate
observable library. Library columns are scaled to unit RMS before regression
and coefficients un-scaled afterwards, so the threshold acts on each term's
contribution to the signal rather than on raw coefficients whose size depends
on monomial degree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, DISCRETE, PolySystem, Trajectory, _write_json
from .exceptions import TrajectoryError
from .lifting import (
    KoopmanModel,
    ObservableLibrary,
    _library_to_json,
    eval_library,
    observable_advance,
    observable_name,
)
from .polynomials import Polynomial, PolynomialMap, _graded_lex

DEFAULT_THRESHOLD = 0.025
DEFAULT_MAX_ITER = 10
MAX_ROUNDS = 10  # refine_subspace's cap on closure rounds


@dataclass
class DataSet:
    """Aligned snapshot data: X holds states as columns, Y their advances.

    For continuous-time data Y holds time-derivative estimates; for discrete
    data Y holds the next-step states and dt is the step count (1.0).
    """

    X: np.ndarray
    Y: np.ndarray
    dt: float
    time_kind: str

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


def _sampled_advance(values, times, time_kind):
    """Each sample of a trajectory series paired with its advance.

    ``values`` holds one sample per row (leading axis). Continuous: every
    sample with its finite-difference derivative, which needs uniform
    sampling; discrete: every sample but the last with the next one, dt 1.0.
    Returns (now, advance, dt).
    """
    if len(times) < 2:
        raise ValueError(f"a trajectory needs at least 2 samples, got {len(times)}")
    if time_kind != CONTINUOUS:
        return values[:-1], values[1:], 1.0
    gaps = np.diff(times)
    dt = float(gaps[0])
    if dt <= 0 or not np.allclose(gaps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("trajectory samples are not uniformly spaced")
    return values, differentiate_series(values, dt), dt


def dataset_from_trajectories(trajectories, time_kind) -> DataSet:
    """Concatenate snapshot pairs from several trajectories.

    Continuous: per-trajectory derivative estimates (all trajectories must
    share the sampling step). Discrete: aligned shift pairs. A trajectory
    with too few or non-uniform samples, a non-finite sample, or a state
    dimension or step unlike the first one's raises :class:`TrajectoryError`.
    """
    if not trajectories:
        raise ValueError("no trajectories supplied")
    xs, ys = [], []
    for i, traj in enumerate(trajectories):
        if i and traj.dim != trajectories[0].dim:
            raise TrajectoryError(i, f"state dimension {traj.dim} differs from the first "
                                     f"trajectory's {trajectories[0].dim}")
        finite = np.isfinite(traj.states)
        if not finite.all():
            raise TrajectoryError(i, f"non-finite state at sample {np.argwhere(~finite)[0, 0]}")
        try:
            now, advance, step = _sampled_advance(traj.states, traj.times, time_kind)
        except ValueError as exc:
            raise TrajectoryError(i, str(exc)) from None
        if i == 0:
            dt = step
        elif time_kind == CONTINUOUS and not np.isclose(step, dt, rtol=1e-9):
            raise TrajectoryError(i, f"sample step {step:g} differs from the first trajectory's {dt:g}")
        xs.append(now.T)
        ys.append(advance.T)
    return DataSet(X=np.hstack(xs), Y=np.hstack(ys), dt=dt, time_kind=time_kind)


# ---------------------------------------------------------------------------
# dynamic mode decomposition
# ---------------------------------------------------------------------------

def dmd(x, xp):
    """Best-fit linear advance Xi minimizing ||Xi X - Xp||_F: Xi = Xp pinv(X)."""
    x = numerics.as_matrix(x, "x")
    xp = numerics.as_matrix(xp, "xp")
    if x.shape != xp.shape:
        raise ValueError("snapshot matrices must share a shape")
    return xp @ numerics.pinv(x)


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


def sindy(data: DataSet, library: ObservableLibrary, threshold=DEFAULT_THRESHOLD) -> SparseModel:
    """Sparse regression of the advances Y onto library features of X (STLSQ).

    Sequentially thresholded least squares: terms whose coefficient falls
    below ``threshold`` in the unit-RMS column scaling are dropped, at most
    ``DEFAULT_MAX_ITER`` times, and each target is then refit on its final
    support in the original scaling. Threshold 0 is plain least squares.
    Warns when there are fewer samples than features; raises ``ValueError``
    when the threshold is negative or leaves a target with no term.
    """
    theta = eval_library(library, data.X).T  # samples x features
    n_samples, n_features = theta.shape
    if n_samples < n_features:
        warnings.warn(
            f"underdetermined regression: {n_samples} samples for {n_features} features",
            stacklevel=2,
        )
    coeffs, support = _sparse_fit(theta, data.Y.T, threshold)
    empty = np.flatnonzero(~support.any(axis=1))
    if empty.size:
        raise ValueError(
            f"threshold eliminated every term for target(s) {list(empty)}; lower it"
        )
    return SparseModel(library=library, coefficients=coeffs, threshold=threshold,
                       time_kind=data.time_kind)


def _sparse_fit(design, targets, threshold):
    """Sequentially thresholded least squares of ``targets`` on ``design``.

    ``design`` is samples x features, ``targets`` samples x targets. The
    thresholding loop runs on design columns scaled to unit RMS; the final
    support (targets x features) is then refit in the original scaling.
    Threshold 0 skips the loop: every term stays and the fit is plain least
    squares. Returns (coefficients, support), both targets x features.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    support = np.ones((targets.shape[1], design.shape[1]), dtype=bool)
    if threshold > 0:
        scales = np.sqrt(np.mean(design ** 2, axis=0))
        scales[scales == 0.0] = 1.0
        scaled = design / scales
        for _ in range(DEFAULT_MAX_ITER + 1):  # the full fit, then the refits
            kept = np.abs(_masked_lstsq(scaled, targets, support)) >= threshold
            if np.array_equal(kept, support):
                break
            support = kept
    return _masked_lstsq(design, targets, support), support


def _masked_lstsq(design, targets, support):
    """Least squares of each target on its support columns; zero elsewhere."""
    if support.all():
        return numerics.lstsq(design, targets).T
    coeffs = np.zeros(support.shape)
    for i, active in enumerate(support):
        if active.any():
            coeffs[i, active] = numerics.lstsq(design[:, active], targets[:, i])
    return coeffs


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


def refine_subspace(sparse: SparseModel, data: DataSet) -> RefinementResult:
    """Grow the active observables into an invariant set and fit its advance matrix.

    Starting from the states plus the sparse model's active observables, each
    round symbolically advances every observable through the identified
    dynamics and adds any monomial the advances need, up to twice the
    candidate library's degree, for at most ``MAX_ROUNDS`` rounds. Once the
    set is fixed, each observable's advance from the data (chain-rule
    derivative for flows, next value for maps) is regressed onto the set by
    plain least squares.
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
    for rounds in range(1, MAX_ROUNDS + 1):
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
        admissible = [missing[e] for e in sorted(missing, key=_graded_lex) if sum(e) <= degree_cap]
        for mono in admissible:
            working.append(mono)
            keys.add(mono.key())
            added.append(observable_name(mono))
        if len(admissible) < len(missing):
            break  # some or all of the closure lies beyond the cap

    refined_lib = ObservableLibrary(n, tuple(working), state_inclusive=True)
    theta = eval_library(refined_lib, data.X)  # (m, M)
    if data.time_kind == CONTINUOUS:
        # chain rule, summed in axis order from +0.0: zero partials add
        # (+-)0.0 to finite data, which leaves every sum's bits unchanged
        partials = PolynomialMap(n, [obs.derivative(axis) for obs in working for axis in range(n)])
        partials = partials(data.X).reshape(len(working), n, data.n_samples)
        targets = np.zeros((len(working), data.n_samples))
        for axis in range(n):
            targets += partials[:, axis] * data.Y[axis]
    else:
        targets = eval_library(refined_lib, data.Y)

    k = numerics.lstsq(theta.T, targets.T).T
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
    now, advance, _ = _sampled_advance(lifted.T, traj.times, model.time_kind)
    defect = advance.T - model.K @ now.T
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


def save_sparse(model: SparseModel, path):
    _write_json(path, sparse_to_json(model))
