"""Data-driven identification: sparse regression and subspace refinement.

The sparse regression is sequential thresholded least squares on a candidate
library, with columns scaled to unit RMS for the threshold and coefficients
un-scaled afterwards, so the threshold acts on each term's contribution to
the signal, not on a coefficient whose size depends on monomial degree. DMD
is ``sindy(data, monomials(n, 1), threshold=0.0)``: plain least squares on
the linear library, the advance Y pinv(X). Refinement closes the active
observables by :mod:`koopmankit.lifting`'s growth loop, then fits their K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, DISCRETE, PolySystem, Trajectory
from .exceptions import TrajectoryError
from .lifting import KoopmanModel, ObservableLibrary, _close, eval_library
from .polynomials import Polynomial, PolynomialMap, format_polynomial

DEFAULT_THRESHOLD = 0.025
DEFAULT_MAX_ITER = 10
MAX_ROUNDS = 10  # refine_subspace's cap on closure rounds


@dataclass
class DataSet:
    """Aligned snapshot data: X holds states as columns, Y their advances.

    For continuous-time data Y holds time-derivative estimates; for discrete
    data Y holds the next-step states.
    """

    X: np.ndarray
    Y: np.ndarray
    time_kind: str

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape != self.Y.shape:
            raise ValueError(f"X and Y must have the same shape, got {self.X.shape} vs {self.Y.shape}")
        if self.X.shape[1] == 0:
            raise ValueError("data has no samples: X and Y have no columns")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise ValueError("data contains non-finite entries")
        if self.time_kind not in (CONTINUOUS, DISCRETE):
            raise ValueError("bad time_kind")

    @property
    def n_samples(self):
        return self.X.shape[1]


# ---------------------------------------------------------------------------
# derivative estimation and dataset assembly
# ---------------------------------------------------------------------------

def _differentiate_series(values, dt):
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
    sampling; discrete: every sample but the last with the next one, which
    needs samples one step (time 1) apart. Returns (now, advance, dt).
    """
    if len(times) < 2:
        raise ValueError(f"a trajectory needs at least 2 samples, got {len(times)}")
    gaps = np.diff(times)
    if time_kind != CONTINUOUS:
        if not np.all(_same_step(gaps, 1.0)):
            raise ValueError("map samples are not one step (time 1) apart")
        return values[:-1], values[1:], 1.0
    dt = float(gaps[0])
    if not 0 < dt < np.inf or not np.all(_same_step(gaps, dt)):
        raise ValueError("trajectory samples are not uniformly spaced")
    return values, _differentiate_series(values, dt), dt


def _same_step(gap, step):
    """np.isclose(gap, step, rtol=1e-9, atol=1e-12), inlined: one rule within and between trajectories."""
    return abs(gap - step) <= 1e-12 + 1e-9 * step


def dataset_from_trajectories(trajectories, time_kind) -> DataSet:
    """Concatenate snapshot pairs from several trajectories.

    Continuous: per-trajectory derivative estimates (all trajectories must
    share the sampling step, by the test that holds one trajectory's gaps to
    its first). Discrete: aligned shift pairs. A trajectory with too few or
    non-uniform samples, a non-finite sample, or a state dimension or step
    unlike the first one's raises :class:`TrajectoryError`.
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
        elif time_kind == CONTINUOUS and not _same_step(step, dt):
            raise TrajectoryError(i, f"sample step {step!r} differs from the first trajectory's {dt!r}")
        xs.append(now.T)
        ys.append(advance.T)
    return DataSet(X=np.hstack(xs), Y=np.hstack(ys), time_kind=time_kind)


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
        """Per-target polynomials."""
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
    when the threshold is negative or NaN, or leaves a target with no term.
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
        targets = ", ".join(f"x{i + 1}" for i in empty)
        raise ValueError(f"threshold eliminated every term for target(s) {targets}; lower it")
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
    if not threshold >= 0:  # NaN too: it would pass both tests and skip the loop
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

    The states plus the sparse model's active observables grow by the monomials
    their advances through the identified dynamics name (``lifting._close``), up
    to twice the candidate library's degree, in at most ``MAX_ROUNDS`` rounds.
    Once the set is fixed, each observable's advance from the data (chain-rule
    derivative for flows, next value for maps) is regressed onto the set by
    plain least squares.
    """
    n = sparse.library.dim
    if sparse.n_targets != n:
        raise ValueError("sparse model does not cover the full state")

    degree_cap = 2 * max(o.degree() for o in sparse.library.observables)
    active = [o for o, col in zip(sparse.library.observables, sparse.active_mask().any(axis=0)) if col]
    start = list(dict.fromkeys([Polynomial.variable(n, i) for i in range(n)] + active))
    working, rounds, converged = _close(start, sparse.as_system(), degree_cap, MAX_ROUNDS)
    added = tuple(format_polynomial(mono) for mono in working[len(start):])

    refined_lib = ObservableLibrary(n, tuple(working))
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
    model = KoopmanModel(refined_lib, k, data.time_kind)
    return RefinementResult(model=model, converged=converged, rounds=rounds, added=added)


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
