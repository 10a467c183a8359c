"""Tests for system definitions, integration, and trajectory I/O."""

import numpy as np
import pytest

from koopmankit import (
    BlowUp,
    CONTINUOUS,
    DISCRETE,
    Polynomial,
    builtin,
    eval_field,
    integrate,
    iterate,
    read_trajectory,
    registry_defaults,
    registry_info,
    registry_names,
    slow_manifold_field,
    write_trajectory,
)

MU, LAM = -0.05, -1.0


def quad_closed_form(x0, t):
    """Exact solution of dx1 = mu x1, dx2 = lam (x2 - x1^2).

    The particular solution proportional to x1^2 has coefficient
    beta = lam / (lam - 2 mu); the rest decays at rate lam.
    """
    x1_0, x2_0 = x0
    beta_w0 = LAM / (LAM - 2 * MU) * x1_0**2
    x1 = x1_0 * np.exp(MU * t)
    x2 = (x2_0 - beta_w0) * np.exp(LAM * t) + beta_w0 * np.exp(2 * MU * t)
    return np.stack([x1, x2], axis=-1)


def test_registry_lists_all_builtin_systems():
    names = registry_names()
    for expected in (
        "quad_manifold",
        "quartic_manifold",
        "discrete_manifold",
        "tu_map",
        "logistic",
        "center_manifold",
        "kooc_demo",
        "limitation",
        "rotated_quad",
    ):
        assert expected in names
    # info strings describe every system
    info = registry_info()
    assert set(info) == set(names)
    assert all(isinstance(v, str) and v for v in info.values())


def test_registry_defaults_and_lambda_alias():
    defaults = registry_defaults("quad_manifold")
    assert defaults["mu"] == -0.05
    sys_a = builtin("quad_manifold", mu=-0.05, lam=1.0)
    assert sys_a.params["lambda"] == 1.0


def test_eval_field_quadratic_manifold():
    system = builtin("quad_manifold")  # mu=-0.05, lam=-1
    x = np.array([2.0, 3.0])
    np.testing.assert_allclose(eval_field(system, x), [-0.1, -(3.0 - 4.0)])


def test_integrate_matches_closed_form():
    system = builtin("quad_manifold")
    x0 = np.array([1.5, -1.0])
    traj = integrate(system, x0, 10.0, dt=0.01)
    exact = quad_closed_form(x0, traj.times)
    assert np.max(np.abs(traj.states - exact)) < 1e-9


def test_integrator_is_fourth_order():
    """Halving dt should cut the endpoint error by about 16x."""
    system = builtin("quad_manifold")
    x0 = np.array([1.5, -1.0])
    errs = []
    for dt in (0.2, 0.1, 0.05):
        traj = integrate(system, x0, 4.0, dt=dt)
        exact = quad_closed_form(x0, traj.times[-1])
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    rate_a = errs[0] / errs[1]
    rate_b = errs[1] / errs[2]
    assert 10.0 < rate_a < 22.0
    assert 10.0 < rate_b < 22.0


def test_trajectory_grid_is_uniform_and_endpoints_exact():
    traj = integrate(builtin("quad_manifold"), [1.0, 0.0], 2.0, dt=0.01)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
    assert len(traj.times) == 201
    np.testing.assert_allclose(np.diff(traj.times), 0.01, atol=1e-12)


def test_manifold_attraction_envelope_and_eventual_decay():
    """|x2 - x1^2| shrinks like e^(max(lam, 2 mu) t) and is tiny by t=150."""
    system = builtin("quad_manifold")  # mu=-0.05, lam=-1 -> rate 2 mu = -0.1
    x0 = np.array([1.5, -1.0])
    traj = integrate(system, x0, 150.0, dt=0.01)
    dist = np.abs(traj.states[:, 1] - traj.states[:, 0] ** 2)
    rate = max(LAM, 2 * MU)
    envelope = 1.05 * max(dist[0], 1.0) * np.exp(rate * traj.times)
    assert np.all(dist <= envelope + 1e-12)
    # the fast mode cancels the slow one until t ~ 5.5; monotone decay after
    settled = dist[traj.times >= 6.0]
    assert np.all(np.diff(settled) <= 1e-15)
    assert dist[-1] < 1e-6


def test_blowup_raises_with_time_and_norm():
    system = builtin("center_manifold")  # dx = x^2 blows up at t = 1/x0
    with pytest.raises(BlowUp) as excinfo:
        integrate(system, [0.5], 3.0, dt=0.001)
    err = excinfo.value
    assert 1.9 < err.t <= 2.1
    assert err.norm > err.limit


def test_iterate_logistic_map():
    system = builtin("logistic", r=3.5)
    traj = iterate(system, [0.5], 3)
    x = 0.5
    expected = [x]
    for _ in range(3):
        x = 3.5 * x * (1 - x)
        expected.append(x)
    np.testing.assert_allclose(traj.states[:, 0], expected, rtol=1e-15)
    np.testing.assert_array_equal(traj.times, [0.0, 1.0, 2.0, 3.0])


def test_iterate_rejects_continuous_system():
    with pytest.raises(ValueError):
        iterate(builtin("quad_manifold"), [1.0, 0.0], 5)


def test_integrate_rejects_discrete_system():
    with pytest.raises(ValueError):
        integrate(builtin("tu_map"), [1.0, 1.0], 5.0)


def test_tu_map_closed_form_iteration():
    # x1 <- lam x1; x2 <- mu x2 + (lam^2 - mu) x1^2
    lam, mu = 0.9, 0.5
    system = builtin("tu_map", lam=lam, mu=mu)
    traj = iterate(system, [1.0, 1.0], 20)
    x1 = lam ** np.arange(21)
    x2 = np.empty(21)
    x2[0] = 1.0
    for k in range(20):
        x2[k + 1] = mu * x2[k] + (lam**2 - mu) * x1[k] ** 2
    np.testing.assert_allclose(traj.states[:, 0], x1, rtol=1e-14)
    np.testing.assert_allclose(traj.states[:, 1], x2, rtol=1e-13)


def test_controlled_integration_records_inputs():
    system = builtin("kooc_demo")  # xdot = (mu x1, lam x2 + u)
    gain = np.array([[0.0, 3.0]])

    def controller(x):
        return -gain @ x

    traj = integrate(system, [-5.0, 5.0], 1.0, dt=0.01, controller=controller)
    assert traj.inputs is not None
    assert traj.inputs.shape == (101, 1)
    np.testing.assert_allclose(traj.inputs[:, 0], -3.0 * traj.states[:, 1], atol=1e-12)
    # feedback with gain 3 > lam = 1 beats the open-loop growth of x2
    free = integrate(system, [-5.0, 5.0], 1.0, dt=0.01)
    assert abs(traj.states[-1, 1]) < abs(free.states[-1, 1])


def test_controlled_integration_reuses_the_first_substep_input():
    system = builtin("kooc_demo")
    calls = []

    def controller(x):
        calls.append(1)
        return -np.array([3.0 * x[1] + 0.7 * x[0] ** 2 - np.sin(x[0] * x[1])])

    n_steps = 150
    traj = integrate(system, [-5.0, 5.0], n_steps * 0.01, dt=0.01, controller=controller)
    # four substeps per step, plus one call for the last sample
    assert len(calls) == 4 * n_steps + 1
    expected = np.vstack([np.atleast_1d(controller(s)) for s in traj.states])
    assert traj.inputs.tobytes() == expected.tobytes()


def test_slow_manifold_field_general_polynomial():
    # P(x) = x^4 - 2 x^2 gives dx2 = lam (x2 - x1^4 + 2 x1^2)
    eq1, eq2 = slow_manifold_field(-0.05, 1.0, {4: 1.0, 2: -2.0})
    x = np.array([2.0, 1.0])
    p_val = 2.0**4 - 2 * 2.0**2
    assert eq1(x) == pytest.approx(-0.1)
    assert eq2(x) == pytest.approx(1.0 * (1.0 - p_val))


def test_trajectory_roundtrip_through_csv(tmp_path):
    system = builtin("quad_manifold")
    traj = integrate(system, [1.5, -1.0], 1.0, dt=0.01)
    path = tmp_path / "traj.csv"
    write_trajectory(traj, path)
    again = read_trajectory(path)
    np.testing.assert_array_equal(again.times, traj.times)
    np.testing.assert_array_equal(again.states, traj.states)
    assert again.inputs is None


def test_trajectory_csv_preserves_inputs_and_uses_crlf(tmp_path):
    system = builtin("kooc_demo")
    traj = integrate(
        system, [-5.0, 5.0], 0.5, dt=0.01, controller=lambda x: np.array([0.25])
    )
    path = tmp_path / "controlled.csv"
    write_trajectory(traj, path)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")
    header = raw.split(b"\r\n", 1)[0].decode()
    assert header == "t,x1,x2,u"
    again = read_trajectory(path)
    np.testing.assert_array_equal(again.inputs, traj.inputs)


def test_custom_system_from_polynomials():
    from koopmankit import PolySystem

    x = Polynomial.variable(1, 0)
    system = PolySystem(
        dim=1,
        time_kind=CONTINUOUS,
        equations=(0.5 * x,),
        params={},
        name="halflife",
    )
    traj = integrate(system, [2.0], 1.0, dt=0.001)
    assert traj.states[-1, 0] == pytest.approx(2.0 * np.exp(0.5), rel=1e-10)


def test_unknown_registry_name_raises():
    with pytest.raises(ValueError):
        builtin("not_a_system")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_is_rejected_not_called_a_blowup(bad):
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        integrate(builtin("quad_manifold"), [bad, 0.0], 1.0)
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        iterate(builtin("tu_map"), [bad, 0.0], 3)
