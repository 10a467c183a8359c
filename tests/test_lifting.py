"""Tests for observable libraries, exact lifts, and Carleman truncation."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from koopmankit import (
    BlowUp,
    CONTINUOUS,
    DISCRETE,
    EXP_NEG_INV,
    KoopmanModel,
    ObservableLibrary,
    Polynomial,
    builtin,
    carleman_center,
    carleman_logistic,
    closure_residual,
    eval_library,
    eval_named_observable,
    integrate,
    iterate,
    load_model,
    model_from_json,
    model_to_json,
    monomials,
    observable_advance,
    project_states,
    propagate,
    registry_names,
    save_model,
    slow_manifold_field,
    slow_manifold_lift_ct,
    slow_manifold_lift_dt,
    tu_lift,
)
from koopmankit.dynamics import _REGISTRY


# ---------------------------------------------------------------------------
# observable libraries
# ---------------------------------------------------------------------------

def test_monomials_graded_order_without_constant():
    lib = monomials(2, 2)
    assert lib.names == ["x1", "x2", "x1^2", "x1*x2", "x2^2"]
    assert lib.state_inclusive
    lib3 = monomials(2, 3)
    assert lib3.names[5:] == ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]
    for dim in range(1, 5):
        for degree in range(1, 6):
            # brute force: every exponent tuple of each total degree, the
            # largest first exponent first
            oracle = [exps for total in range(1, degree + 1)
                      for exps in sorted(itertools.product(range(total + 1), repeat=dim),
                                         reverse=True)
                      if sum(exps) == total]
            lib = monomials(dim, degree)
            assert [obs.exponents() for obs in lib.observables] == oracle, (dim, degree)


def test_eval_library_matches_direct_monomials():
    lib = monomials(2, 3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(20, 2))
    vals = eval_library(lib, pts.T)
    assert vals.shape == (len(lib.names), 20)
    np.testing.assert_allclose(vals[0], pts[:, 0], rtol=1e-15)
    np.testing.assert_allclose(vals[4], pts[:, 1] ** 2, rtol=1e-15)
    np.testing.assert_allclose(vals[6], pts[:, 0] ** 2 * pts[:, 1], rtol=1e-14)


def test_named_observable_evaluation():
    x = np.array([0.25, 0.5, 2.0])
    np.testing.assert_allclose(
        eval_named_observable(EXP_NEG_INV, x), np.exp(-1.0 / x), rtol=1e-15
    )


def test_library_index_lookup():
    lib = monomials(2, 2)
    assert lib.names.index("x1^2") == 2
    with pytest.raises(ValueError):
        lib.names.index("x9")


# ---------------------------------------------------------------------------
# closed-form lifts: structure and exact closure
# ---------------------------------------------------------------------------

def test_quadratic_lift_matrix_structure():
    mu, lam = -0.05, 1.0
    model = slow_manifold_lift_ct(mu, lam, {2: 1.0})
    assert model.library.names == ["x1", "x2", "x1^2"]
    expected = np.array([[mu, 0.0, 0.0], [0.0, lam, -lam], [0.0, 0.0, 2 * mu]])
    np.testing.assert_array_equal(model.K, expected)


def test_quadratic_lift_closure_is_exactly_zero():
    for lam in (1.0, -1.0):
        model = slow_manifold_lift_ct(-0.05, lam, {2: 1.0})
        system = builtin("quad_manifold", mu=-0.05, lam=lam)
        assert closure_residual(model, system) == 0.0


def test_quartic_lift_closure_is_exactly_zero():
    # P(x) = x^4 - 2 x^2 needs both x1^2 and x1^4 in the library
    model = slow_manifold_lift_ct(-0.05, 1.0, {4: 1.0, 2: -2.0})
    assert model.library.names == ["x1", "x2", "x1^2", "x1^4"]
    system = builtin("quartic_manifold", mu=-0.05, lam=1.0)
    assert closure_residual(model, system) == 0.0
    # row 2 carries -a_i * lam for each polynomial term
    np.testing.assert_array_equal(model.K[1], [0.0, 1.0, 2.0, -1.0])
    assert model.K[2, 2] == -0.1
    assert model.K[3, 3] == -0.2


def test_discrete_lift_closure_is_exactly_zero():
    mu, lam = 0.9, 0.1
    model = slow_manifold_lift_dt(mu, lam, {2: 1.0})
    system = builtin("discrete_manifold", mu=mu, lam=lam)
    assert closure_residual(model, system) == 0.0
    # x2 <- lam x2 + (1 - lam) a x1^2 family: row 2 coupling is a (1 - lam)
    assert model.K[1, 2] == (1 - lam) * 1.0
    assert model.K[2, 2] == mu**2


def test_tu_lift_structure_and_closure():
    lam, mu = 0.9, 0.5
    model = tu_lift(lam, mu)
    expected = np.array(
        [[lam, 0.0, 0.0], [0.0, mu, lam**2 - mu], [0.0, 0.0, lam**2]]
    )
    np.testing.assert_array_equal(model.K, expected)
    assert model.time_kind == DISCRETE
    system = builtin("tu_map", lam=lam, mu=mu)
    assert closure_residual(model, system) == 0.0


def test_lift_state_appends_observables():
    model = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    np.testing.assert_array_equal(eval_library(model.library, [1.5, -1.0]), [1.5, -1.0, 2.25])


def test_polynomial_exponents_must_be_at_least_two():
    # 2.5 would otherwise truncate to 2 and overwrite the x1^2 coefficient
    for poly in ({1: 2.0}, {3: 1.0, 0: 2.0}, {2.5: 1.0}, {2: 1.0, 2.5: 3.0}):
        with pytest.raises(ValueError, match="exponents must be >= 2"):
            slow_manifold_lift_ct(-0.05, 1.0, poly)
        with pytest.raises(ValueError, match="exponents must be >= 2"):
            slow_manifold_field(-0.05, 1.0, poly)


# ---------------------------------------------------------------------------
# linear propagation of the lifted system
# ---------------------------------------------------------------------------

def test_lifted_propagation_matches_nonlinear_simulation():
    """Projection of the linear lifted flow equals the nonlinear flow."""
    model = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    system = builtin("quad_manifold")  # same parameters
    x0 = [1.5, -1.0]
    nonlinear = integrate(system, x0, 10.0, dt=0.01)
    lifted = propagate(model, x0, t_end=10.0, dt=0.01)
    states = project_states(model, lifted)
    assert np.max(np.abs(states - nonlinear.states)) < 1e-6
    # the third lifted coordinate tracks x1^2 along the whole trajectory
    np.testing.assert_allclose(
        lifted.states[:, 2], nonlinear.states[:, 0] ** 2, atol=1e-6
    )


def test_discrete_propagation_matches_map_iteration():
    lam, mu = 0.9, 0.5
    model = tu_lift(lam, mu)
    system = builtin("tu_map", lam=lam, mu=mu)
    x0 = [1.0, 1.0]
    rolled = iterate(system, x0, 30)
    lifted = propagate(model, x0, steps=30)
    states = project_states(model, lifted)
    np.testing.assert_allclose(states, rolled.states, atol=1e-12)


def test_propagate_requires_matching_time_arguments():
    model = tu_lift(0.9, 0.5)
    with pytest.raises(ValueError):
        propagate(model, [1.0, 1.0], t_end=5.0)  # discrete model wants steps
    ct = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    with pytest.raises(ValueError):
        propagate(ct, [1.0, 1.0], steps=5)  # continuous model wants t_end
    # the other kind's argument is refused, not ignored
    with pytest.raises(ValueError, match="discrete model takes steps, not t_end"):
        propagate(model, [1.0, 1.0], t_end=5.0, steps=5)
    with pytest.raises(ValueError, match="continuous model takes t_end, not steps"):
        propagate(ct, [1.0, 1.0], t_end=1.0, steps=5)
    for bad in (2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            propagate(model, [1.0, 1.0], steps=bad)
    assert len(propagate(model, [1.0, 1.0], steps=np.int64(3))) == 4


# ---------------------------------------------------------------------------
# one step matrix: the references are the per-sample loops it replaced
# ---------------------------------------------------------------------------

def _reference_rk4_step(k, y, dt):
    k1 = k @ y
    k2 = k @ (y + 0.5 * dt * k1)
    k3 = k @ (y + 0.5 * dt * k2)
    k4 = k @ (y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_loop(model, x0, n, step):
    """The lifted trajectory of n steps, one ``step(y)`` call per sample."""
    ys = np.empty((n + 1, len(model.library)))
    ys[0] = y = eval_library(model.library, np.asarray(x0, dtype=float))
    for i in range(n):
        y = step(y)
        ys[i + 1] = y
    return ys


def _registry_lift(name):
    return _REGISTRY[name]["lift"](builtin(name).params, 4), _REGISTRY[name]["x0"]


MAP_LIFTS = {
    "tu_lift": (tu_lift(0.9, 0.5), [1.0, 1.0]),
    "slow_manifold_lift_dt": (slow_manifold_lift_dt(0.9, 0.1, {2: 1.0}), [1.5, -1.0]),
    **{f"carleman_logistic_{r}": (carleman_logistic(3.5, r), [0.5]) for r in range(2, 17)},
}
FLOW_LIFTS = {
    **{name: _registry_lift(name)
       for name in ("quad_manifold", "quartic_manifold", "rotated_quad", "kooc_demo")},
    **{f"carleman_center_{r}": (carleman_center(r), [0.5]) for r in range(4, 17)},
}
FLOW_STEPS = (0, 1, 63, 64, 65, 10_000)


def _assert_blows_up_no_earlier(run, reference, dt):
    """``run()`` raises BlowUp no earlier than the reference's first non-finite row."""
    with pytest.raises(BlowUp) as info:
        run()
    assert info.value.t >= np.argmin(np.all(np.isfinite(reference), axis=1)) * dt


@pytest.mark.parametrize("name", MAP_LIFTS)
def test_map_propagation_is_bit_identical_to_the_step_loop(name):
    model, x0 = MAP_LIFTS[name]
    # carleman_logistic(3.5, r) overflows within 65 steps for r >= 9 (within 40
    # for r = 15, 16): there propagate raises BlowUp instead
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in (0, 1, 40, 65):
            reference = _reference_loop(model, x0, steps, lambda y: model.K @ y)
            if np.all(np.isfinite(reference)):
                assert propagate(model, x0, steps=steps).states.tobytes() == reference.tobytes()
            else:
                _assert_blows_up_no_earlier(lambda: propagate(model, x0, steps=steps),
                                            reference, 1.0)
    if name == "carleman_logistic_16":
        assert not np.all(np.isfinite(reference))


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.1, 0.3])
@pytest.mark.parametrize("name", FLOW_LIFTS)
def test_flow_propagation_stays_within_1e12_of_the_rk4_loop(name, dt):
    model, x0 = FLOW_LIFTS[name]
    # the unstable lifts overflow over 10,000 long steps: there propagate raises BlowUp
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _reference_loop(model, x0, FLOW_STEPS[-1],
                                    lambda y: _reference_rk4_step(model.K, y, dt))
    for steps in FLOW_STEPS:
        if steps == 0:  # a horizon under dt/2 takes no step
            with pytest.raises(ValueError, match=r"takes no step .*round\(t_end/dt\) is 0"):
                propagate(model, x0, t_end=0.4 * dt, dt=dt)
            continue
        old = reference[:steps + 1]
        if not np.all(np.isfinite(old)):
            _assert_blows_up_no_earlier(lambda: propagate(model, x0, t_end=steps * dt, dt=dt),
                                        old, dt)
            continue
        states = propagate(model, x0, t_end=steps * dt, dt=dt).states
        assert len(states) == steps + 1
        gap = np.max(np.abs(states - old), axis=1)
        assert np.all(gap <= 1e-12 * np.max(np.abs(old), axis=1))


def test_propagate_raises_blowup_at_its_first_non_finite_sample():
    flow, x0 = FLOW_LIFTS["kooc_demo"]  # from (-5, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp, match=r"^state norm inf exceeded 1.0e\+08 at t=707.1;") as info:
            propagate(flow, x0, t_end=1000.0, dt=0.1)
        assert info.value.t == pytest.approx(707.1, abs=1e-9)
        with pytest.raises(BlowUp, match="at t=36;") as info:
            propagate(carleman_logistic(3.5, 16), [0.5], steps=40)
        assert info.value.t == 36.0


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.1, 0.3])
def test_the_step_matrix_takes_each_unit_vector_one_rk4_step(dt):
    for model, _ in FLOW_LIFTS.values():
        m = len(model.library)
        # on the linear library the lift of a state is the state itself
        linear = KoopmanModel(monomials(m, 1), model.K, CONTINUOUS)
        for e in np.eye(m):
            step = propagate(linear, e, t_end=dt, dt=dt).states[1]
            reference = _reference_rk4_step(model.K, e, dt)
            np.testing.assert_allclose(step, reference, rtol=1e-14,
                                       atol=1e-15 * np.max(np.abs(reference)))


@pytest.mark.parametrize("k, x0, dt, t_end", [
    ([[-500.0]], [1.0], 0.01, 1.0),
    # T4 = 240,784: its 58th power overflows, so the stack holds 57 powers
    ([[-500.0]], [1.0], 0.1, 0.5),
    ([[-500.0, 0.0], [0.0, -1.0]], [0.0, 1.0], 0.1, 20.0),
])
def test_a_stiff_flow_propagates_without_floating_point_warnings(k, x0, dt, t_end):
    model = KoopmanModel(monomials(len(k), 1), np.array(k), CONTINUOUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = propagate(model, x0, t_end=t_end, dt=dt).states
    reference = _reference_loop(model, x0, len(states) - 1,
                                lambda y: _reference_rk4_step(model.K, y, dt))
    np.testing.assert_allclose(states, reference, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Carleman truncations
# ---------------------------------------------------------------------------

def test_carleman_logistic_rank4_exact_entries():
    r = 3.5
    m = carleman_logistic(r, 4)
    assert m.library.names == ["x1", "x1^2", "x1^3", "x1^4"]
    assert m.time_kind == DISCRETE
    # row n holds r^n * (-1)^k * C(n, k) at columns n + k, truncated at rank
    expected = np.zeros((4, 4))
    for n in range(1, 5):
        for k in range(0, n + 1):
            col = n + k
            if col <= 4:
                expected[n - 1, col - 1] = r**n * (-1) ** k * math.comb(n, k)
    np.testing.assert_array_equal(m.K, expected)


def test_carleman_logistic_full_rows_sum_to_zero_exactly():
    """Each full binomial row r^n (x - x^2)^n collapses at x = 1.

    The matrix keeps only columns up to the rank; the zero-sum identity
    belongs to the full row, which is reconstructed here term by term.
    With r = 3.5 every term is an exactly-representable double, so the
    compensated sum must be exactly 0.0, not merely small.
    """
    r = 3.5
    m = carleman_logistic(r, 4)
    for n in range(1, 5):
        full_row = [r**n * (-1) ** k * math.comb(n, k) for k in range(n + 1)]
        assert math.fsum(full_row) == 0.0
        # stored row is exactly the retained prefix of the full row
        stored = m.K[n - 1]
        for k, coeff in enumerate(full_row):
            col = n + k
            if col <= 4:
                assert stored[col - 1] == coeff


def test_carleman_logistic_truncated_closure():
    system = builtin("logistic", r=3.5)
    m = carleman_logistic(3.5, 4)
    assert closure_residual(m, system, truncate=True) == 0.0
    assert closure_residual(m, system, truncate=False) > 1.0


def test_carleman_center_structure_and_singularity():
    for rank in (3, 4, 8):
        m = carleman_center(rank)
        k = m.K
        assert m.time_kind == CONTINUOUS
        # d/dt x^i = i x^(i+1): nilpotent superdiagonal with entries 1..rank-1
        np.testing.assert_array_equal(np.diag(k, 1), np.arange(1, rank))
        np.testing.assert_array_equal(k - np.diag(np.diag(k, 1), 1), np.zeros_like(k))
        assert np.linalg.det(k) == 0.0


def test_carleman_center_prediction_is_taylor_partial_sum():
    """Truncated linear flow of dx = x^2 reproduces the geometric series."""
    x0 = 0.5
    t = 1.0
    for rank in (3, 5, 8):
        m = carleman_center(rank)
        lifted = propagate(m, [x0], t_end=t, dt=0.001)
        partial = sum(x0 ** (k + 1) * t**k for k in range(rank))
        assert lifted.states[-1, 0] == pytest.approx(partial, abs=1e-12)


def test_carleman_center_divergence_horizon_monotone_in_rank():
    """Time to 10% relative error grows with truncation rank."""
    x0 = 0.5
    horizons = []
    for rank in (4, 8, 12):
        m = carleman_center(rank)
        lifted = propagate(m, [x0], t_end=1.9, dt=0.001)
        truth = 1.0 / (1.0 / x0 - lifted.times)
        rel = np.abs(lifted.states[:, 0] - truth) / np.abs(truth)
        crossed = np.nonzero(rel > 0.1)[0]
        horizons.append(lifted.times[crossed[0]] if crossed.size else np.inf)
    assert horizons[0] <= horizons[1] <= horizons[2]
    assert horizons[0] > 0.5  # rank 4 is already decent well inside blow-up


# ---------------------------------------------------------------------------
# symbolic observable dynamics
# ---------------------------------------------------------------------------

def test_observable_advance_continuous():
    system = builtin("quad_manifold", mu=-0.05, lam=1.0)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert observable_advance(x1, system) == -0.05 * x1
    assert observable_advance(x1**2, system) == -0.1 * x1**2
    assert observable_advance(x2, system) == x2 - x1**2


def test_observable_advance_discrete_composes_with_the_map():
    system = builtin("logistic", r=3.5)
    x = Polynomial.variable(1, 0)
    # x^2 after the map is (r x (1-x))^2
    advanced = observable_advance(x**2, system)
    direct = (3.5 * (x - x**2)) * (3.5 * (x - x**2))
    assert advanced == direct


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_preserves_exact_floats(tmp_path):
    model = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    data = model_to_json(model)
    again = model_from_json(json.loads(json.dumps(data)))
    np.testing.assert_array_equal(again.K, model.K)
    assert again.library.names == model.library.names
    assert again.time_kind == model.time_kind
    assert again.state_rows == model.state_rows

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.K, model.K)


def test_model_json_roundtrip_with_named_observable(tmp_path):
    lib = ObservableLibrary(1, [(1,), EXP_NEG_INV], state_inclusive=True)
    model = KoopmanModel(lib, np.array([[-1.0, 0.0], [0.0, 1.0]]), CONTINUOUS)
    path = tmp_path / "named.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.library.names == model.library.names
    np.testing.assert_array_equal(
        eval_library(loaded.library, np.array([[0.5]])),
        eval_library(model.library, np.array([[0.5]])),
    )


def test_model_rejects_mismatched_matrix_size():
    lib = monomials(2, 2)
    with pytest.raises(ValueError):
        KoopmanModel(lib, np.eye(3), CONTINUOUS)


@pytest.mark.parametrize("lib", [
    ObservableLibrary(1, [EXP_NEG_INV]),
    ObservableLibrary(2, [(0, 1), (1, 0)]),
    ObservableLibrary(2, [(1, 0), (0, 1)]),  # x1, x2 first, but not declared state-inclusive
])
def test_model_refuses_a_library_that_is_not_state_inclusive(lib):
    with pytest.raises(ValueError, match="needs a state-inclusive library"):
        KoopmanModel(lib, np.eye(len(lib)), CONTINUOUS)


@pytest.mark.parametrize("rows", [[1, 0], [2, 1], [0], [0, 1, 2], None])
def test_load_model_refuses_state_rows_other_than_the_first_n(tmp_path, rows):
    data = model_to_json(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}))
    if rows is None:
        del data["state_rows"]
    else:
        data["state_rows"] = rows
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"are not the library's first 2 rows"):
        load_model(path)


@pytest.mark.parametrize("name", registry_names())
def test_every_registry_lift_holds_its_state_in_its_first_rows(name):
    system = builtin(name)
    model = _REGISTRY[name]["lift"](system.params, 4)
    n = system.dim
    assert model.state_rows == tuple(range(n))
    x0 = _REGISTRY[name]["x0"]
    if model.time_kind == DISCRETE:
        lifted = propagate(model, x0, steps=3)
    else:
        lifted = propagate(model, x0, t_end=0.03, dt=0.01)
    states = project_states(model, lifted)
    np.testing.assert_array_equal(states, lifted.states[:, :n])
    np.testing.assert_array_equal(states[0], x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagate_rejects_a_non_finite_start(bad):
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [bad, 0.0], t_end=1.0)
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        propagate(tu_lift(0.9, 0.5), [0.0, bad], steps=3)


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (-1.0, 0.01), (1.0, -0.01), (math.inf, 0.01)])
def test_propagate_rejects_a_non_positive_or_infinite_horizon_or_step(t_end, dt):
    with pytest.raises(ValueError, match="t_end and dt must be positive"):
        propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [1.0, 0.0], t_end=t_end, dt=dt)


def test_propagate_rejects_a_negative_step_count():
    with pytest.raises(ValueError, match="steps must be non-negative"):
        propagate(tu_lift(0.9, 0.5), [1.0, 1.0], steps=-1)


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.01), (0.7, 0.03), (2.0, 0.3), (1.0, 1 / 3),
                                       (0.004, 0.01), (10.0, 0.005)])
def test_integrate_and_propagate_sample_the_same_times(t_end, dt):
    runs = (lambda: integrate(builtin("quad_manifold"), [1.0, 0.5], t_end, dt=dt),
            lambda: propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [1.0, 0.5],
                              t_end=t_end, dt=dt))
    if round(t_end / dt) == 0:  # no step: both refuse, with one message
        messages = []
        for run in runs:
            with pytest.raises(ValueError, match=f"t_end {t_end:g} takes no step of dt {dt:g}") as info:
                run()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        return
    flow, lifted = (run() for run in runs)
    assert flow.times.tobytes() == lifted.times.tobytes()
