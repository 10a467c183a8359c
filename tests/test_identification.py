"""Tests for sparse regression and subspace refinement.

DMD has no function of its own: it is ``sindy`` at threshold 0 on the linear
library ``monomials(n, 1)``, and the DMD tests below fit it that way.
"""

import functools
import itertools
import json

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DISCRETE,
    DataSet,
    ObservableLibrary,
    Polynomial,
    PolynomialMap,
    Trajectory,
    TrajectoryError,
    builtin,
    carleman_logistic,
    dataset_from_trajectories,
    eval_library,
    field_lift,
    integrate,
    invariance_residual,
    iterate,
    lstsq,
    monomials,
    refine_subspace,
    registry_names,
    save_sparse,
    sindy,
    slow_manifold_lift_ct,
)
from koopmankit import lifting
from koopmankit.artifacts import _library_from_json, _sparse_to_json
from koopmankit.identification import MAX_ROUNDS, _differentiate_series, _sampled_advance
from koopmankit.registry import _MAP_STARTS, _REGISTRY

import _reference as ref


def tu_model(lam=0.9, mu=0.5):
    """The tu map's exact lift on [x1, x2, x1^2], read off the map."""
    return field_lift(ObservableLibrary(2, [(1, 0), (0, 1), (2, 0)]), builtin("tu_map", lam=lam, mu=mu))


def quad_training_data(lam=-1.0, dt=0.002):
    """10 trajectories from a coarse grid over [-2, 2]^2, horizon 10."""
    system = builtin("quad_manifold", mu=-0.05, lam=lam)
    trajs = [
        integrate(system, [a, b], 10.0, dt=dt)
        for a in (-2.0, -1.0, 0.0, 1.0, 2.0)
        for b in (-2.0, 2.0)
    ]
    return dataset_from_trajectories(trajs, CONTINUOUS)


# ---------------------------------------------------------------------------
# derivative estimation
# ---------------------------------------------------------------------------

def test_derivatives_of_exponential_are_accurate_inside():
    t = np.arange(0.0, 2.0 + 1e-12, 0.01)
    traj = Trajectory(times=t, states=np.exp(-0.05 * t)[:, None], inputs=None)
    data = dataset_from_trajectories([traj], CONTINUOUS)
    err = np.abs(data.Y[0] - (-0.05) * np.exp(-0.05 * t))
    assert err[1:-1].max() < 1e-9  # fourth-order stencils at interior samples
    assert err.max() < 1e-8  # the two end samples are second-order


def test_derivatives_of_constant_are_exactly_zero():
    t = np.arange(0.0, 1.0 + 1e-12, 0.01)
    traj = Trajectory(times=t, states=np.full((len(t), 2), 3.25), inputs=None)
    data = dataset_from_trajectories([traj], CONTINUOUS)
    np.testing.assert_array_equal(data.Y, np.zeros_like(data.Y))


def test_derivatives_exact_for_quadratic_at_midpoint():
    # dyadic grid keeps t and t^2 exactly representable, so the stencil's
    # algebraic exactness on low-degree polynomials survives in floats
    dt = 1.0 / 128.0
    t = np.arange(129) * dt
    traj = Trajectory(times=t, states=(t * t)[:, None], inputs=None)
    data = dataset_from_trajectories([traj], CONTINUOUS)
    assert data.Y[0, 64] == 1.0  # t = 0.5
    np.testing.assert_array_equal(data.Y[0, 1:-1], 2.0 * t[1:-1])


def test_derivatives_reject_nonuniform_sampling():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
    traj = Trajectory(times=t, states=np.zeros((6, 1)), inputs=None)
    with pytest.raises(ValueError):
        dataset_from_trajectories([traj], CONTINUOUS)


def test_map_samples_must_be_one_step_apart():
    flow = np.arange(6) * 0.01  # a flow's sample times
    for times in (flow, np.array([0.0, 1.0, 2.0, 4.0, 5.0, 6.0])):
        traj = Trajectory(times=times, states=np.zeros((6, 1)), inputs=None)
        with pytest.raises(ValueError, match="^trajectory 0: map samples are not one step"):
            dataset_from_trajectories([traj], DISCRETE)
    shifted = Trajectory(times=np.arange(6.0) + 3.0, states=np.zeros((6, 1)), inputs=None)
    assert dataset_from_trajectories([shifted], DISCRETE).n_samples == 5


def _allclose_grid_test(times, time_kind):
    """Whether the grid passes the spacing test ``_sampled_advance`` made through np.allclose."""
    gaps = np.diff(times)
    if time_kind != CONTINUOUS:
        return np.allclose(gaps, 1.0, rtol=1e-9, atol=1e-12)
    dt = float(gaps[0])
    return dt > 0 and np.allclose(gaps, dt, rtol=1e-9, atol=1e-12)


def _perturbed_grids(time_kind, step):
    """Eight-sample grids of ``step`` with one gap moved to either side of the
    tolerance 1e-12 + 1e-9 * step, and grids with a NaN or infinite time."""
    bound = 1e-12 + 1e-9 * step
    offsets = [step * 1e-9 + 1e-12, step * 1e-9 - 1e-12, bound * (1 - 1e-3), bound * (1 + 1e-3)]
    for offset, sign, where in itertools.product(offsets, (1.0, -1.0), (0, 3)):
        gaps = np.full(7, step)
        gaps[where] = step + sign * offset
        yield np.concatenate([[0.0], np.cumsum(gaps)])
    for bad in (np.nan, np.inf):
        times = np.arange(8) * step
        times[3] = bad
        yield times
    yield np.array([0.0, np.inf])


@pytest.mark.parametrize("time_kind, step", [(CONTINUOUS, 0.01), (CONTINUOUS, 0.3),
                                             (CONTINUOUS, 1.0 / 128.0), (DISCRETE, 1.0)])
def test_the_inlined_spacing_test_accepts_exactly_what_allclose_did(time_kind, step):
    outcomes = set()
    with np.errstate(invalid="ignore"):  # np.diff of inf - inf
        for times in _perturbed_grids(time_kind, step):
            accepted = _allclose_grid_test(times, time_kind) and (
                time_kind == DISCRETE or len(times) >= 5)  # a flow differentiates 5 or more
            values = np.zeros((len(times), 1))
            if accepted:
                _sampled_advance(values, times, time_kind)
            else:
                with pytest.raises(ValueError):
                    _sampled_advance(values, times, time_kind)
            outcomes.add(accepted)
    assert outcomes == {True, False}  # moved gaps fall on both sides of the bound


def test_a_one_sample_trajectory_is_refused_with_its_sample_count():
    traj = Trajectory(times=np.zeros(1), states=np.array([[1.5, -1.0]]), inputs=None)
    for kind in (CONTINUOUS, DISCRETE):
        with pytest.raises(ValueError, match="at least 2 samples.*got 1"):
            dataset_from_trajectories([traj], kind)


def test_a_faulty_trajectory_is_named_by_its_index():
    good = integrate(builtin("quad_manifold"), [1.0, 0.5], 1.0, dt=0.01)
    nan = good.states.copy()
    nan[7, 1] = np.nan
    faulty = {
        "state dimension 1 differs from the first trajectory's 2":
            Trajectory(good.times, good.states[:, :1]),
        "non-finite state at sample 7": Trajectory(good.times, nan),
        "sample step 0.02 differs from the first trajectory's 0.01":
            integrate(builtin("quad_manifold"), [1.0, 0.5], 1.0, dt=0.02),
    }
    for reason, bad in faulty.items():
        with pytest.raises(TrajectoryError, match=f"^trajectory 2: {reason}$") as info:
            dataset_from_trajectories([good, good, bad], CONTINUOUS)
        assert (info.value.index, info.value.reason) == (2, reason)
    steps = Trajectory(np.arange(len(good), dtype=float), good.states)  # map samples, one step apart
    with pytest.raises(TrajectoryError, match="^trajectory 1: a trajectory needs at least 2"):
        dataset_from_trajectories([steps, Trajectory(np.zeros(1), [[1.0, 1.0]])], DISCRETE)


@pytest.mark.parametrize("first, second", [(1e-9, 5e-9), (0.005, 0.005 * (1 + 8e-7))])
def test_trajectories_are_held_to_one_step_by_the_rule_that_holds_one_trajectory(first, second):
    """|a - b| <= 1e-12 + 1e-9 b decides both whether one trajectory's gaps are uniform and
    whether two trajectories share a step, so steps of 1e-9 and 5e-9 are not one data set."""
    with pytest.raises(ValueError, match="not uniformly spaced"):
        _sampled_advance(np.zeros((7, 1)), np.append(np.arange(6) * first, 5 * first + second),
                         CONTINUOUS)
    trajs = [Trajectory(np.arange(6) * step, np.zeros((6, 1))) for step in (first, second)]
    with pytest.raises(TrajectoryError) as info:
        dataset_from_trajectories(trajs, CONTINUOUS)
    reason = f"sample step {second!r} differs from the first trajectory's {first!r}"
    assert (info.value.index, info.value.reason) == (1, reason)


def test_derivatives_need_five_samples():
    with pytest.raises(ValueError):
        _differentiate_series(np.zeros((4, 1)), 0.01)


# ---------------------------------------------------------------------------
# DMD
# ---------------------------------------------------------------------------

def _dmd(x, xp):
    """DMD of the snapshot pairs (x, xp): the threshold-0 fit on the linear library."""
    data = DataSet(X=x, Y=xp, time_kind=DISCRETE)
    return sindy(data, monomials(x.shape[0], 1), threshold=0.0).coefficients


def test_dmd_recovers_known_linear_map():
    a = np.diag([0.9, 0.5])
    x = np.empty((2, 50))
    x[:, 0] = [1.0, 1.0]
    for k in range(49):
        x[:, k + 1] = a @ x[:, k]
    xi = _dmd(x[:, :-1], x[:, 1:])
    np.testing.assert_allclose(xi, a, atol=1e-10)


def test_dmd_equals_pseudoinverse_formula():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 60))
    xp = rng.standard_normal((4, 60))
    xi = _dmd(x, xp)
    oracle = xp @ np.linalg.pinv(x)
    np.testing.assert_allclose(xi, oracle, atol=1e-12)


def test_dmd_on_lifted_tu_snapshots_recovers_the_lift():
    lam, mu = 0.9, 0.5
    system = builtin("tu_map", lam=lam, mu=mu)
    lib = tu_model(lam, mu).library
    cols = []
    cols_next = []
    for x0 in [(1.0, 1.0), (-0.5, 0.8), (0.3, -0.7), (1.2, 0.1)]:
        traj = iterate(system, x0, 25)
        lifted = eval_library(lib, traj.states.T)
        cols.append(lifted[:, :-1])
        cols_next.append(lifted[:, 1:])
    # DMD on the lifted snapshots: the threshold-0 fit on the lift's own
    # three observables, which monomials(3, 1) names as states
    xi = _dmd(np.hstack(cols), np.hstack(cols_next))
    np.testing.assert_allclose(xi, tu_model(lam, mu).K, atol=1e-8)


def test_dmd_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="X and Y must have the same shape"):
        _dmd(np.zeros((2, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError, match="no samples"):
        _dmd(np.zeros((2, 0)), np.zeros((2, 0)))


def test_sindy_at_threshold_zero_on_the_linear_library_is_dmd():
    """Sparse regression is related to DMD: with no thresholding on [x1, x2]
    it is the least-squares advance Y pinv(X), here on the registry's tu_map."""
    trajs = [iterate(builtin("tu_map"), x0, 40) for x0 in _MAP_STARTS]
    data = dataset_from_trajectories(trajs, DISCRETE)
    coefficients = sindy(data, monomials(2, 1), threshold=0.0).coefficients
    xi = data.Y @ np.linalg.pinv(data.X)
    assert np.max(np.abs(coefficients - xi)) <= 1e-12 * np.max(np.abs(xi))


# ---------------------------------------------------------------------------
# SINDy
# ---------------------------------------------------------------------------

def test_sindy_recovers_quadratic_manifold_dynamics():
    data = quad_training_data()
    model = sindy(data, monomials(2, 3), threshold=0.01)
    lib_names = model.library.names
    coeffs = {
        name: dict(zip(lib_names, row))
        for name, row in zip(("dx1", "dx2"), model.coefficients)
    }
    assert coeffs["dx1"]["x1"] == pytest.approx(-0.05, abs=1e-6)
    assert coeffs["dx2"]["x2"] == pytest.approx(-1.0, abs=1e-6)
    assert coeffs["dx2"]["x1^2"] == pytest.approx(1.0, abs=1e-6)
    # nothing else is active
    active = model.active_mask()
    assert active.sum() == 3


def test_sindy_threshold_zero_is_plain_least_squares():
    data = quad_training_data(dt=0.01)
    lib = monomials(2, 2)
    model = sindy(data, lib, threshold=0.0)
    theta = eval_library(lib, data.X)
    oracle = lstsq(theta.T, data.Y.T).T
    np.testing.assert_array_equal(model.coefficients, oracle)


def test_sindy_logistic_map_exact_representation():
    system = builtin("logistic", r=3.5)
    trajs = [iterate(system, [x0], 60) for x0 in np.linspace(0.1, 0.8, 8)]
    data = dataset_from_trajectories(trajs, DISCRETE)
    model = sindy(data, monomials(1, 3), threshold=0.025)
    row = dict(zip(model.library.names, model.coefficients[0]))
    assert row["x1"] == pytest.approx(3.5, abs=1e-10)
    assert row["x1^2"] == pytest.approx(-3.5, abs=1e-10)
    assert row["x1^3"] == 0.0


def test_sindy_matches_bruteforce_best_subset():
    """STLSQ lands on the optimal sparse support (d_max=2, n=2).

    The oracle enumerates every support of size <= 3 per row and picks the
    smallest one whose residual is within 5% of the overall optimum: a
    superset can always shave an epsilon off the residual, so raw argmin
    would reward overfitting, not the true terms.
    """
    data = quad_training_data(dt=0.01)
    lib = monomials(2, 2)
    theta = eval_library(lib, data.X).T  # samples x features
    model = sindy(data, lib, threshold=0.025)
    for row_idx in range(2):
        target = data.Y[row_idx]
        best_by_size = {}
        for size in (1, 2, 3):
            for support in itertools.combinations(range(len(lib.names)), size):
                sol = lstsq(theta[:, support], target)
                res = np.linalg.norm(theta[:, support] @ sol - target)
                if size not in best_by_size or res < best_by_size[size][0]:
                    best_by_size[size] = (res, set(support))
        overall = min(res for res, _ in best_by_size.values())
        oracle = next(
            best_by_size[size][1]
            for size in (1, 2, 3)
            if best_by_size[size][0] <= 1.05 * overall
        )
        found = set(np.nonzero(model.coefficients[row_idx])[0])
        assert found == oracle


def test_sindy_raises_when_threshold_wipes_a_row():
    data = quad_training_data(dt=0.01)
    with pytest.raises(ValueError):
        sindy(data, monomials(2, 2), threshold=50.0)


def test_sindy_names_the_targets_a_threshold_wipes_as_the_report_does():
    message = r"^threshold eliminated every term for target\(s\) {}; lower it$"
    with pytest.raises(ValueError, match=message.format("x1, x2")):
        sindy(quad_training_data(dt=0.01), monomials(2, 2), threshold=10.0)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 40))
    only_x2 = DataSet(X=x, Y=np.vstack([-x[0], np.zeros(40)]), time_kind=CONTINUOUS)
    with pytest.raises(ValueError, match=message.format("x2")):
        sindy(only_x2, monomials(2, 2), threshold=0.1)


def test_sindy_warns_when_underdetermined():
    lib = monomials(2, 3)
    data = DataSet(
        X=np.random.default_rng(0).standard_normal((2, 4)),
        Y=np.zeros((2, 4)),
        time_kind=CONTINUOUS,
    )
    with pytest.warns(UserWarning):
        sindy(data, lib, threshold=0.0)


# ---------------------------------------------------------------------------
# subspace refinement
# ---------------------------------------------------------------------------

def test_refine_recovers_quadratic_lift_matrix():
    data = quad_training_data(dt=0.01)  # recovery within 1e-6 already at dt=0.01
    sparse = sindy(data, monomials(2, 2), threshold=0.025)
    result = refine_subspace(sparse, data)
    assert result.converged
    target = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    names = result.model.library.names
    assert set(target.library.names) <= set(names)
    idx = [names.index(n) for n in target.library.names]
    np.testing.assert_allclose(result.model.K[np.ix_(idx, idx)], target.K, atol=1e-6)


def test_sindy_rejects_a_negative_threshold():
    data = quad_training_data(dt=0.01)
    for threshold in (-0.01, float("nan")):  # NaN would skip thresholding unrefused
        with pytest.raises(ValueError, match="threshold must be non-negative"):
            sindy(data, monomials(2, 2), threshold=threshold)


def test_refine_linear_system_reduces_to_dmd():
    a = np.array([[0.95, 0.02], [0.0, 0.8]])
    x = np.empty((2, 80))
    x[:, 0] = [1.0, -1.0]
    for k in range(79):
        x[:, k + 1] = a @ x[:, k]
    data = DataSet(X=x[:, :-1], Y=x[:, 1:], time_kind=DISCRETE)
    sparse = sindy(data, monomials(2, 1), threshold=0.0)
    result = refine_subspace(sparse, data)
    assert result.converged
    assert result.model.library.names == ["x1", "x2"]
    oracle = x[:, 1:] @ np.linalg.pinv(x[:, :-1])
    np.testing.assert_allclose(result.model.K, oracle, atol=1e-10)


def test_refine_center_manifold_does_not_converge():
    """dx = x^2 keeps demanding the next power; reported, not fatal."""
    system = builtin("center_manifold")
    trajs = [integrate(system, [x0], 1.5, dt=0.002) for x0 in np.linspace(0.05, 0.45, 9)]
    data = dataset_from_trajectories(trajs, CONTINUOUS)
    sparse = sindy(data, monomials(1, 2), threshold=0.025)
    result = refine_subspace(sparse, data)
    assert not result.converged
    assert result.rounds == MAX_ROUNDS or len(result.added) >= 2
    assert "x1^3" in result.added


def test_refine_held_out_invariance_residual():
    data = quad_training_data(dt=0.005)
    sparse = sindy(data, monomials(2, 2), threshold=0.025)
    result = refine_subspace(sparse, data)
    held_out = integrate(builtin("quad_manifold"), [1.7, -0.4], 10.0, dt=0.005)
    assert invariance_residual(result.model, held_out) < 1e-4


def test_a_single_term_observable_holds_its_monomial():
    """2*x1^2 holds x1^2: refinement adds no unit x1^2 beside it, which would make the library
    dependent (design condition 2.8e16) and refused by field_lift."""
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    system = builtin("quad_manifold")
    trajs = [integrate(system, [a, b], 10.0, dt=0.005) for a in (-2.0, -1.0, 1.0, 2.0) for b in (-2.0, 2.0)]
    data = dataset_from_trajectories(trajs, CONTINUOUS)
    sparse = sindy(data, ObservableLibrary(2, (x1, x2, 2 * x1 ** 2)))
    result = refine_subspace(sparse, data)
    assert result.model.library.names == ["x1", "x2", "2*x1^2"]
    assert (result.converged, result.rounds, result.added) == (True, 1, ())
    assert np.linalg.cond(eval_library(result.model.library, data.X).T) < 10.0
    field_lift(result.model.library, sparse.as_system())  # independent, so not refused


# ---------------------------------------------------------------------------
# invariance residual
# ---------------------------------------------------------------------------

def test_invariance_residual_exact_lift_is_tiny():
    model = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    traj = integrate(builtin("quad_manifold"), [1.5, -1.0], 10.0, dt=0.005)
    assert invariance_residual(model, traj) < 1e-6


def test_invariance_residual_detects_bad_truncation():
    """Rank-5 logistic truncation is far from invariant in the chaotic regime."""
    system = builtin("logistic", r=3.9)
    traj = iterate(system, [0.5], 200)
    model = carleman_logistic(3.9, 5)
    assert invariance_residual(model, traj) > 1e-2


def test_invariance_residual_zero_trajectory_is_zero():
    model = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    t = np.arange(0.0, 0.05, 0.01)
    traj = Trajectory(times=t, states=np.zeros((len(t), 2)), inputs=None)
    assert invariance_residual(model, traj) == 0.0


def test_invariance_residual_discrete_exact_lift():
    model = tu_model()
    traj = iterate(builtin("tu_map", lam=0.9, mu=0.5), [1.0, 1.0], 40)
    assert invariance_residual(model, traj) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_sparse_model_json_roundtrip(tmp_path):
    data = quad_training_data(dt=0.01)
    model = sindy(data, monomials(2, 2), threshold=0.025)
    blob = json.loads(json.dumps(_sparse_to_json(model)))
    names = _library_from_json(blob["library"]).names
    assert names == model.library.names
    coeffs = np.zeros_like(model.coefficients)
    for i, row in enumerate(blob["rows"]):
        assert row["target"] == f"x{i + 1}"
        for term in row["terms"]:
            coeffs[i, names.index(term["observable"])] = term["coeff"]
    np.testing.assert_array_equal(coeffs, model.coefficients)
    assert blob["threshold"] == model.threshold
    assert blob["time_kind"] == model.time_kind

    path = tmp_path / "sparse.json"
    save_sparse(model, path)
    assert json.loads(path.read_text()) == blob


def test_sparse_model_as_system_reproduces_field():
    data = quad_training_data(dt=0.01)
    model = sindy(data, monomials(2, 2), threshold=0.025)
    system = model.as_system()
    x = np.array([0.7, -0.3])
    truth = np.array([-0.05 * 0.7, -1.0 * (-0.3 - 0.49)])
    np.testing.assert_allclose(PolynomialMap(system.dim, system.equations)(x), truth, atol=1e-5)


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the reference fit and targets
# ---------------------------------------------------------------------------

def _reference_stlsq(theta, targets, threshold, max_iter=10):
    """Reference STLSQ: threshold in unit-RMS scaling, then refit the final
    support in the original scaling (all targets at once when it is full)."""
    scales = np.sqrt(np.mean(theta ** 2, axis=0))
    scales[scales == 0.0] = 1.0
    scaled = theta / scales
    w = lstsq(scaled, targets)
    mask = np.abs(w) >= threshold
    for _ in range(max_iter):
        w = np.zeros_like(w)
        for i in range(targets.shape[1]):
            active = mask[:, i]
            if active.any():
                w[active, i] = lstsq(scaled[:, active], targets[:, i])
        new_mask = np.abs(w) >= threshold
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    if mask.all():
        return lstsq(theta, targets).T
    coeffs = np.zeros((targets.shape[1], theta.shape[1]))
    for i in range(targets.shape[1]):
        active = mask[:, i]
        coeffs[i, active] = lstsq(theta[:, active], targets[:, i])
    return coeffs


def _reference_refine_targets(library, data):
    """Reference refinement targets: the chain rule summed one nonzero partial
    derivative at a time for flows, the lifted next sample for maps."""
    if data.time_kind == DISCRETE:
        return ref.values(library.observables, data.Y)
    targets = np.empty((len(library), data.n_samples))
    for i, obs in enumerate(library.observables):
        total = np.zeros(data.n_samples)
        for axis in range(library.dim):
            d = ref.derivative(obs.terms, axis)
            if d:
                total += ref.evaluate(d, data.X, 0.0, np.float_power) * data.Y[axis]
        targets[i] = total
    return targets


_TRAINING = {
    "quad_manifold": ([(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 2.0)], 10.0),
    "quartic_manifold": ([(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 2.0)], 10.0),
    "tu_map": ([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 1.0)], 40),
}


def _training_data(name):
    system = builtin(name)
    starts, span = _TRAINING[name]
    if system.time_kind == DISCRETE:
        trajs = [iterate(system, x0, span) for x0 in starts]
    else:
        trajs = [integrate(system, x0, span, dt=0.01) for x0 in starts]
    return dataset_from_trajectories(trajs, system.time_kind)


@pytest.mark.parametrize("name", sorted(_TRAINING))
def test_sindy_and_refinement_match_the_reference_bit_for_bit(name):
    data = _training_data(name)
    lib = monomials(2, 3)
    theta = ref.values(lib.observables, data.X).T
    for threshold in (0.0, 0.025):
        model = sindy(data, lib, threshold=threshold)
        oracle = _reference_stlsq(theta, data.Y.T, threshold)
        assert model.coefficients.tobytes() == oracle.tobytes()
    result = refine_subspace(sindy(data, lib), data)
    refined = result.model.library
    design = ref.values(refined.observables, data.X).T
    oracle_k = lstsq(design, _reference_refine_targets(refined, data).T).T
    assert result.model.K.tobytes() == oracle_k.tobytes()


def _reference_invariance_residual(model, traj):
    lifted = ref.values(model.library.observables, traj.states.T)
    return ref.relative_defect(lifted, lambda rows: model.K @ rows, traj, model.time_kind)


def test_invariance_residual_matches_the_reference_bit_for_bit():
    flow = integrate(builtin("quad_manifold"), [1.5, -1.0], 10.0, dt=0.005)
    model = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    assert invariance_residual(model, flow) == _reference_invariance_residual(model, flow)
    chaotic = iterate(builtin("logistic", r=3.9), [0.5], 200)
    truncated = carleman_logistic(3.9, 5)
    assert invariance_residual(truncated, chaotic) == _reference_invariance_residual(truncated, chaotic)


# ---------------------------------------------------------------------------
# one sample-count rule, one sparse fit
# ---------------------------------------------------------------------------

def test_a_one_sample_map_trajectory_is_refused_everywhere_with_one_message():
    traj = Trajectory(times=np.zeros(1), states=np.array([[1.0, 1.0]]), inputs=None)
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        dataset_from_trajectories([traj], DISCRETE)
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        invariance_residual(tu_model(), traj)


# ---------------------------------------------------------------------------
# the printed equations against the fitted K
# ---------------------------------------------------------------------------

# The systems whose identification is right at the CLI's defaults; the other five print wrong
# equations or refine to a library that does not close. The bounds below are the measured split
# between the two groups, not the bound that a check in identify itself would flag at.
_RIGHT_FITS = ("kooc_demo", "limitation", "quad_manifold", "tu_map")


@pytest.mark.parametrize("name", registry_names())
def test_the_equations_identify_fits_imply_its_k_only_where_the_fit_is_right(name):
    """On each system's CLI training data (dt 0.005 for a flow, degree 3, default threshold),
    max|field_lift(refined library, sparse.as_system()).K - K_data| / max|K_data| reads at most
    5.6e-11 on the right fits and at least 0.111 on the others."""
    system = builtin(name)
    starts, span = _REGISTRY[name]["training"]
    trajs = [iterate(system, x0, span) if system.time_kind == DISCRETE
             else integrate(system, x0, span, dt=0.005) for x0 in starts]
    data = dataset_from_trajectories(trajs, system.time_kind)
    sparse = sindy(data, monomials(system.dim, 3))
    fitted = refine_subspace(sparse, data).model
    k_field = field_lift(fitted.library, sparse.as_system()).K
    gap = np.abs(k_field - fitted.K).max() / np.abs(fitted.K).max()
    if name in _RIGHT_FITS:
        assert gap <= 1e-9
    else:
        assert gap >= 0.1


# ---------------------------------------------------------------------------
# refinement's growth against the reference closure
# ---------------------------------------------------------------------------

@functools.cache
def _cli_fit(name):
    """``identify --generate``'s sparse fit and data: the registry's training starts, dt 0.005
    for a flow, degree 3 and the default threshold."""
    system = builtin(name)
    starts, span = _REGISTRY[name]["training"]
    trajs = [iterate(system, x0, span) if system.time_kind == DISCRETE
             else integrate(system, x0, span, dt=0.005) for x0 in starts]
    data = dataset_from_trajectories(trajs, system.time_kind)
    return sindy(data, monomials(system.dim, 3)), data


@pytest.mark.parametrize("name", registry_names())
def test_refinement_grows_each_cli_fit_as_the_reference_and_advances_each_observable_once(
        name, monkeypatch):
    sparse, data = _cli_fit(name)
    advanced, advances = [], lifting._advances

    def recording(observables, system):
        advanced.extend(observables)
        return advances(observables, system)

    monkeypatch.setattr(lifting, "_advances", recording)
    result = refine_subspace(sparse, data)
    n = sparse.library.dim
    active = [o for o, used in zip(sparse.library.observables, sparse.active_mask().any(axis=0)) if used]
    start = list(dict.fromkeys([Polynomial.variable(n, i) for i in range(n)] + active))
    terms, rounds, closed = ref.close(start, sparse.as_system(), 6, MAX_ROUNDS)
    library = result.model.library
    assert [obs.terms for obs in library.observables] == terms
    assert (result.rounds, result.converged) == (rounds, closed)
    assert list(result.added) == library.names[len(start):]
    # each observable advanced once, in library order: all of them when the growth closed
    assert advanced == list(library.observables[:len(advanced)])
    if result.converged:
        assert len(advanced) == len(library)
