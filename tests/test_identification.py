"""Tests for DMD, sparse regression, and subspace refinement."""

import itertools
import json

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DISCRETE,
    DataSet,
    Trajectory,
    builtin,
    carleman_logistic,
    dataset_from_trajectories,
    differentiate_series,
    dmd,
    estimate_derivatives,
    eval_library,
    integrate,
    invariance_residual,
    iterate,
    load_sparse,
    lstsq,
    monomials,
    refine_subspace,
    save_sparse,
    sindy,
    slow_manifold_lift_ct,
    sparse_from_json,
    sparse_to_json,
    tu_lift,
)


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
    data = estimate_derivatives(traj)
    err = np.abs(data.Y[0] - (-0.05) * np.exp(-0.05 * t))
    assert err[1:-1].max() < 1e-9  # fourth-order stencils at interior samples
    assert err.max() < 1e-8  # the two end samples are second-order


def test_derivatives_of_constant_are_exactly_zero():
    t = np.arange(0.0, 1.0 + 1e-12, 0.01)
    traj = Trajectory(times=t, states=np.full((len(t), 2), 3.25), inputs=None)
    data = estimate_derivatives(traj)
    np.testing.assert_array_equal(data.Y, np.zeros_like(data.Y))


def test_derivatives_exact_for_quadratic_at_midpoint():
    # dyadic grid keeps t and t^2 exactly representable, so the stencil's
    # algebraic exactness on low-degree polynomials survives in floats
    dt = 1.0 / 128.0
    t = np.arange(129) * dt
    traj = Trajectory(times=t, states=(t * t)[:, None], inputs=None)
    data = estimate_derivatives(traj)
    assert data.Y[0, 64] == 1.0  # t = 0.5
    np.testing.assert_array_equal(data.Y[0, 1:-1], 2.0 * t[1:-1])


def test_derivatives_reject_nonuniform_sampling():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
    traj = Trajectory(times=t, states=np.zeros((6, 1)), inputs=None)
    with pytest.raises(ValueError):
        estimate_derivatives(traj)


def test_a_one_sample_trajectory_is_refused_with_its_sample_count():
    # integrate returns a single sample when the horizon rounds to zero steps
    traj = integrate(builtin("quad_manifold"), [1.5, -1.0], 0.001, dt=0.005)
    assert len(traj) == 1
    for kind in (CONTINUOUS, DISCRETE):
        with pytest.raises(ValueError, match="at least 2 samples.*got 1"):
            dataset_from_trajectories([traj], kind)
    with pytest.raises(ValueError, match="at least 2 samples.*got 1"):
        estimate_derivatives(traj)


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


def test_refine_threshold_zeroes_the_entries_the_exact_lift_lacks():
    system = builtin("quad_manifold")
    trajs = [integrate(system, [a, b], 10.0, dt=0.005)
             for a in (-2.0, -1.0, 1.0, 2.0) for b in (-2.0, 2.0)]
    data = dataset_from_trajectories(trajs, CONTINUOUS)
    sparse = sindy(data, monomials(2, 2), threshold=0.025)
    plain = refine_subspace(sparse, data)
    result = refine_subspace(sparse, data, threshold=0.025)
    assert result.model.library.names == ["x1", "x2", "x1^2"]
    target = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    zeros = target.K == 0.0
    assert np.all(plain.model.K[zeros] != 0.0)  # least squares leaves rounding noise
    assert np.all(result.model.K[zeros] == 0.0)
    np.testing.assert_allclose(result.model.K[~zeros], target.K[~zeros], atol=1e-6)


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
    result = refine_subspace(sparse, data, max_rounds=5)
    assert not result.converged
    assert result.rounds == 5 or len(result.added) >= 2
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
    blob = sparse_to_json(model)
    again = sparse_from_json(json.loads(json.dumps(blob)))
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    assert again.threshold == model.threshold
    assert again.time_kind == model.time_kind
    assert again.library.names == model.library.names

    path = tmp_path / "sparse.json"
    save_sparse(model, path)
    loaded = load_sparse(path)
    np.testing.assert_array_equal(loaded.coefficients, model.coefficients)


def test_sparse_model_as_system_reproduces_field():
    data = quad_training_data(dt=0.01)
    model = sindy(data, monomials(2, 2), threshold=0.025)
    system = model.as_system()
    from koopmankit import eval_field

    x = np.array([0.7, -0.3])
    truth = np.array([-0.05 * 0.7, -1.0 * (-0.3 - 0.49)])
    np.testing.assert_allclose(eval_field(system, x), truth, atol=1e-5)
