"""Tests for DMD, sparse regression, and subspace refinement."""

import itertools
import json

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DISCRETE,
    DataSet,
    PolynomialMap,
    Trajectory,
    TrajectoryError,
    builtin,
    carleman_logistic,
    dataset_from_trajectories,
    differentiate_series,
    dmd,
    eval_library,
    integrate,
    invariance_residual,
    iterate,
    lstsq,
    monomials,
    refine_subspace,
    save_sparse,
    sindy,
    slow_manifold_lift_ct,
    sparse_to_json,
    tu_lift,
)
from koopmankit.dynamics import _MAP_STARTS
from koopmankit.identification import MAX_ROUNDS
from koopmankit.lifting import _library_from_json


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
    with pytest.raises(TrajectoryError, match="^trajectory 1: a trajectory needs at least 2"):
        dataset_from_trajectories([good, Trajectory(np.zeros(1), [[1.0, 1.0]])], DISCRETE)


def test_derivatives_need_five_samples():
    with pytest.raises(ValueError):
        differentiate_series(np.zeros((4, 1)), 0.01)


# ---------------------------------------------------------------------------
# DMD
# ---------------------------------------------------------------------------

def test_dmd_recovers_known_linear_map():
    a = np.diag([0.9, 0.5])
    x = np.empty((2, 50))
    x[:, 0] = [1.0, 1.0]
    for k in range(49):
        x[:, k + 1] = a @ x[:, k]
    xi = dmd(x[:, :-1], x[:, 1:])
    np.testing.assert_allclose(xi, a, atol=1e-10)


def test_dmd_identity_on_fixed_data():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 30))
    xi = dmd(x, x)
    # identity on the span of x, which is all of R^3 here
    np.testing.assert_allclose(xi, np.eye(3), atol=1e-12)


def test_dmd_equals_pseudoinverse_formula():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 60))
    xp = rng.standard_normal((4, 60))
    xi = dmd(x, xp)
    oracle = xp @ np.linalg.pinv(x)
    np.testing.assert_allclose(xi, oracle, atol=1e-12)


def test_dmd_on_lifted_tu_snapshots_recovers_the_lift():
    lam, mu = 0.9, 0.5
    system = builtin("tu_map", lam=lam, mu=mu)
    lib = tu_lift(lam, mu).library
    cols = []
    cols_next = []
    for x0 in [(1.0, 1.0), (-0.5, 0.8), (0.3, -0.7), (1.2, 0.1)]:
        traj = iterate(system, x0, 25)
        lifted = eval_library(lib, traj.states.T)
        cols.append(lifted[:, :-1])
        cols_next.append(lifted[:, 1:])
    xi = dmd(np.hstack(cols), np.hstack(cols_next))
    np.testing.assert_allclose(xi, tu_lift(lam, mu).K, atol=1e-8)


def test_dmd_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        dmd(np.zeros((2, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        dmd(np.zeros((2, 0)), np.zeros((2, 0)))


def test_sindy_at_threshold_zero_on_the_linear_library_is_dmd():
    """Sparse regression is related to DMD: with no thresholding on [x1, x2]
    it is the least-squares advance Y pinv(X), here on the registry's tu_map."""
    trajs = [iterate(builtin("tu_map"), x0, 40) for x0 in _MAP_STARTS]
    data = dataset_from_trajectories(trajs, DISCRETE)
    coefficients = sindy(data, monomials(2, 1), threshold=0.0).coefficients
    xi = dmd(data.X, data.Y)
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


def test_sindy_warns_when_underdetermined():
    lib = monomials(2, 3)
    data = DataSet(
        X=np.random.default_rng(0).standard_normal((2, 4)),
        Y=np.zeros((2, 4)),
        dt=0.01,
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
    with pytest.raises(ValueError, match="threshold must be non-negative"):
        sindy(data, monomials(2, 2), threshold=-0.01)


def test_refine_linear_system_reduces_to_dmd():
    a = np.array([[0.95, 0.02], [0.0, 0.8]])
    x = np.empty((2, 80))
    x[:, 0] = [1.0, -1.0]
    for k in range(79):
        x[:, k + 1] = a @ x[:, k]
    data = DataSet(X=x[:, :-1], Y=x[:, 1:], dt=1.0, time_kind=DISCRETE)
    sparse = sindy(data, monomials(2, 1), threshold=0.0)
    result = refine_subspace(sparse, data)
    assert result.converged
    assert result.model.library.names == ["x1", "x2"]
    oracle = dmd(x[:, :-1], x[:, 1:])
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
    model = tu_lift(0.9, 0.5)
    traj = iterate(builtin("tu_map", lam=0.9, mu=0.5), [1.0, 1.0], 40)
    assert invariance_residual(model, traj) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_sparse_model_json_roundtrip(tmp_path):
    data = quad_training_data(dt=0.01)
    model = sindy(data, monomials(2, 2), threshold=0.025)
    blob = json.loads(json.dumps(sparse_to_json(model)))
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
        return eval_library(library, data.Y)
    targets = np.empty((len(library), data.n_samples))
    for i, obs in enumerate(library.observables):
        total = np.zeros(data.n_samples)
        for axis in range(library.dim):
            d = obs.derivative(axis)
            if not d.is_zero():
                total += d(data.X) * data.Y[axis]
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
    theta = eval_library(lib, data.X).T
    for threshold in (0.0, 0.025):
        model = sindy(data, lib, threshold=threshold)
        oracle = _reference_stlsq(theta, data.Y.T, threshold)
        assert model.coefficients.tobytes() == oracle.tobytes()
    result = refine_subspace(sindy(data, lib), data)
    refined = result.model.library
    design = eval_library(refined, data.X).T
    oracle_k = lstsq(design, _reference_refine_targets(refined, data).T).T
    assert result.model.K.tobytes() == oracle_k.tobytes()


def _reference_invariance_residual(model, traj):
    lifted = eval_library(model.library, traj.states.T)
    denom = float(np.sqrt(np.mean(np.sum(lifted ** 2, axis=0))))
    if model.time_kind == CONTINUOUS:
        dt = float(traj.times[1] - traj.times[0])
        defect = differentiate_series(lifted.T, dt).T - model.K @ lifted
    else:
        defect = lifted[:, 1:] - model.K @ lifted[:, :-1]
    return float(np.sqrt(np.mean(np.sum(defect ** 2, axis=0)))) / denom


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
        invariance_residual(tu_lift(0.9, 0.5), traj)
