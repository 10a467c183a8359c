"""Tests for system definitions, integration, and trajectory I/O."""

import pickle

import numpy as np
import pytest

from koopmankit import (
    BlowUp,
    CONTINUOUS,
    DISCRETE,
    KoopmanModel,
    ObservableLibrary,
    Polynomial,
    PolynomialMap,
    PolySystem,
    Trajectory,
    builtin,
    closed_loop_cost,
    compare_lqr_kooc,
    integrate,
    iterate,
    lqr_gain,
    read_trajectory,
    registry_info,
    registry_names,
    slow_manifold_field,
    slow_manifold_lift_ct,
    write_trajectory,
)
from koopmankit.artifacts import _trajectory_table, _write_csv
from koopmankit.dynamics import BLOWUP_LIMIT
from koopmankit.registry import _REGISTRY

import _reference as ref

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
    assert builtin("quad_manifold").params["mu"] == -0.05
    sys_a = builtin("quad_manifold", mu=-0.05, lam=1.0)
    assert sys_a.params["lambda"] == 1.0


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


def test_iterate_refuses_a_non_integer_or_negative_step_count():
    system = builtin("tu_map")
    for bad in (2.5, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            iterate(system, [1.0, 1.0], bad)
    with pytest.raises(ValueError, match="steps must be non-negative"):
        iterate(system, [1.0, 1.0], -1)
    assert len(iterate(system, [1.0, 1.0], np.int64(3))) == 4


@pytest.mark.parametrize("steps", [10**15, 2**62, 10**30])
def test_a_step_count_numpy_cannot_allocate_is_refused_by_name(steps):
    # numpy refuses 10^15 samples with MemoryError, and 2^62 and 10^30 with ValueError
    with pytest.raises(ValueError, match=f"^{steps} steps take more samples than numpy can allocate$"):
        iterate(builtin("tu_map"), [1.0, 1.0], steps)


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
    write_trajectory(traj, path, CONTINUOUS)
    again = read_trajectory(path, CONTINUOUS)
    np.testing.assert_array_equal(again.times, traj.times)
    np.testing.assert_array_equal(again.states, traj.states)
    assert again.inputs is None


def test_trajectory_csv_preserves_inputs_and_uses_crlf(tmp_path):
    traj = integrate(builtin("kooc_demo"), [-5.0, 5.0], 0.5, dt=0.01)
    traj = Trajectory(times=traj.times, states=traj.states, inputs=np.full(len(traj), 0.25))
    path = tmp_path / "controlled.csv"
    write_trajectory(traj, path, CONTINUOUS)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")
    header = raw.split(b"\r\n", 1)[0].decode()
    assert header == "t,x1,x2,u"
    again = read_trajectory(path, CONTINUOUS)
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


def test_poly_system_refuses_an_equation_that_is_not_a_polynomial():
    with pytest.raises(ValueError, match="each equation must be a Polynomial, got list"):
        PolySystem(1, CONTINUOUS, ([(0.5, (1,))],))


def test_unknown_registry_name_raises():
    with pytest.raises(ValueError):
        builtin("not_a_system")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_is_rejected_not_called_a_blowup(bad):
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        integrate(builtin("quad_manifold"), [bad, 0.0], 1.0)
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        iterate(builtin("tu_map"), [bad, 0.0], 3)


def test_named_states_round_trip_through_csv(tmp_path):
    rng = np.random.default_rng(5)
    times = np.arange(6) * 0.5
    states = rng.normal(size=(6, 3))
    for inputs in (None, rng.normal(size=(6, 1)), rng.normal(size=(6, 2))):
        traj = Trajectory(times=times, states=states, inputs=inputs)
        path = tmp_path / "lifted.csv"
        _write_csv(path, *_trajectory_table(traj, CONTINUOUS, ["y1", "y2", "y3"]))
        again = read_trajectory(path, CONTINUOUS)
        assert again.states.tobytes() == traj.states.tobytes()
        if inputs is None:
            assert again.inputs is None
        else:
            assert again.inputs.tobytes() == traj.inputs.tobytes()


def test_header_only_and_ragged_csv_files(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,x1,x2\r\n")
    traj = read_trajectory(path, CONTINUOUS)
    assert traj.states.shape == (0, 2) and traj.inputs is None
    path.write_text("t,x1,x2\r\n0,1,2\r\n1,2\r\n")
    with pytest.raises(ValueError, match="ragged rows"):
        read_trajectory(path, CONTINUOUS)


def test_systems_and_their_compiled_maps_pickle():
    system = builtin("quartic_manifold")
    again = pickle.loads(pickle.dumps(system))  # before either has compiled its loop
    assert again.equations == system.equations
    expected = integrate(system, [1.5, -1.0], 1.0).states
    assert integrate(again, [1.5, -1.0], 1.0).states.tobytes() == expected.tobytes()


def test_a_system_builds_its_polynomial_map_on_its_first_run_alone(monkeypatch):
    built, init = [], PolynomialMap.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PolynomialMap, "__init__", counted)
    flow, step = builtin("quartic_manifold"), builtin("tu_map")
    assert built == []
    for _ in range(2):
        _assert_same_bits(integrate(flow, [1.5, -1.0], 1.0), ref.integrate(flow, [1.5, -1.0], 1.0))
        _assert_same_bits(iterate(step, [0.5, 2.0], 10), ref.iterate(step, [0.5, 2.0], 10))
        assert len(built) == 2


def test_a_system_pickles_after_integrate_compiled_its_loop():
    system = builtin("quartic_manifold")
    traj = integrate(system, [1.5, -1.0], 1.0)
    again = pickle.loads(pickle.dumps(system))
    assert integrate(again, [1.5, -1.0], 1.0).states.tobytes() == traj.states.tobytes()


# -- the float loops against the numpy loops they replaced --------------------

def _assert_same_bits(traj, expected):
    assert traj.times.tobytes() == expected.times.tobytes()
    assert traj.states.tobytes() == expected.states.tobytes()
    assert (traj.inputs is None) == (expected.inputs is None)
    if traj.inputs is not None:
        assert traj.inputs.tobytes() == expected.inputs.tobytes()


def _raised(func, *args, **kwargs):
    with pytest.raises(BlowUp) as excinfo:
        func(*args, **kwargs)
    return excinfo.value.t, excinfo.value.norm


FLOWS = [name for name in registry_names() if builtin(name).time_kind == CONTINUOUS]
MAPS = [name for name in registry_names() if builtin(name).time_kind == DISCRETE]


@pytest.mark.parametrize("name", FLOWS)
def test_integrate_is_bit_identical_to_the_numpy_loop(name):
    system = builtin(name)
    starts, horizon = _REGISTRY[name]["training"]
    for x0 in starts:
        _assert_same_bits(integrate(system, x0, horizon), ref.integrate(system, x0, horizon))


def _assert_within(got, expected, bound=1e-12):
    """Each series within ``bound`` of its reference, relative to the reference's max-abs."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= bound * np.max(np.abs(expected))


@pytest.mark.parametrize("x0, horizon", [((-5.0, 5.0), 50.0), ((-4.7, 5.3), 10.0)],
                         ids=["paper", "near"])
def test_compiled_closed_loops_match_the_callback_loop_within_1e_12(x0, horizon):
    """Each compiled closed loop against the controller-callback loop it replaced."""
    system = builtin("kooc_demo")
    model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})
    q, r = np.eye(2), np.array([[1.0]])
    comp = compare_lqr_kooc(system, model, q, r, x0, horizon)
    lqr = ref.integrate(system, x0, horizon, controller=lambda x: -(comp.lqr_gain @ x))
    gain, observables = comp.kooc_controller.gain, model.library.observables
    kooc = ref.integrate(system, x0, horizon, controller=lambda x: -(gain @ ref.values(observables, x)))
    for got, expected in ((comp.lqr_traj, lqr), (comp.kooc_traj, kooc)):
        assert got.times.tobytes() == expected.times.tobytes()
        _assert_within(got.states, expected.states)
        _assert_within(got.inputs, expected.inputs)
    _assert_within(comp.lqr_cost, closed_loop_cost(lqr, q, r))
    _assert_within(comp.kooc_cost, closed_loop_cost(kooc, q, r))


def test_a_destabilizing_closed_loop_blows_up_where_the_callback_loop_does():
    """dx = x^2 + u under u = -x escapes from x0 = 2 at t = ln 2; RK4 at dt 0.01 lags a little."""
    system = PolySystem(1, CONTINUOUS, (Polynomial(1, {(2,): 1.0}),), input_map=[[1.0]])
    # a stable made-up lift, so that the lifted design succeeds
    model = KoopmanModel(ObservableLibrary(1, ((1,), (2,))),
                         [[0.0, 1.0], [0.0, -1.0]], CONTINUOUS)
    gain, _ = lqr_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    t, norm = _raised(compare_lqr_kooc, system, model, [[1.0]], [[1.0]], [2.0], 3.0)
    expected_t, expected_norm = _raised(ref.integrate, system, [2.0], 3.0,
                                        controller=lambda x: -(gain @ x))
    assert t == expected_t and np.log(2.0) < t < np.log(2.0) + 0.05
    assert norm == pytest.approx(expected_norm, rel=1e-12) and norm > BLOWUP_LIMIT


@pytest.mark.parametrize("name", MAPS)
def test_iterate_is_bit_identical_to_the_numpy_loop(name):
    system = builtin(name)
    starts, steps = _REGISTRY[name]["training"]
    for x0 in starts:
        _assert_same_bits(iterate(system, x0, steps), ref.iterate(system, x0, steps))


def test_blowups_report_the_numpy_loops_time_and_norm():
    system = builtin("center_manifold")
    got = _raised(integrate, system, [0.5], 3.0, dt=0.001)
    assert got == _raised(ref.integrate, system, [0.5], 3.0, dt=0.001)
    assert got[1] > BLOWUP_LIMIT
    # these overflow within one step, to inf and to inf - inf = nan: a
    # non-finite state is reported with norm inf
    for terms in ({(8,): 1.0}, {(8,): 1.0, (10,): -1.0}):
        steep = PolySystem(1, CONTINUOUS, (Polynomial(1, terms),))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _raised(integrate, steep, [1e7], 1.0, dt=1.0)
            expected = _raised(ref.integrate, steep, [1e7], 1.0, dt=1.0)
        assert got == expected == (1.0, np.inf)
    # the maps' loop: logistic r = 5 from 2 passes the limit at step 4, and
    # x^50 and x^50 - x^52 overflow in one step to inf and to nan
    logistic = builtin("logistic", r=5.0)
    got = _raised(iterate, logistic, [2.0], 40)
    assert got == _raised(ref.iterate, logistic, [2.0], 40)
    assert got[0] == 4.0 and got[1] == pytest.approx(1.148e13, rel=1e-3)
    for terms in ({(50,): 1.0}, {(50,): 1.0, (52,): -1.0}):
        steep = PolySystem(1, DISCRETE, (Polynomial(1, terms),))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _raised(iterate, steep, [1e7], 3)
            expected = _raised(ref.iterate, steep, [1e7], 3)
        assert got == expected == (1.0, np.inf)


def test_a_quartic_field_past_the_limit_raises_blowup_after_one_step():
    quartic = builtin("quartic_manifold")
    with pytest.raises(BlowUp, match=r"^state norm 9.940e\+25 exceeded 1.0e\+08 at t=0.01;") as info:
        integrate(quartic, (1e7, 0.0), 1.0)
    assert info.value.t == 0.01
    # here x1^4 overflows inside the second substep: the point power is inf,
    # not an OverflowError, and the state it reaches is reported with norm inf
    steep = builtin("quartic_manifold", mu=1e80)
    with pytest.raises(BlowUp, match=r"^state norm inf exceeded 1.0e\+08 at t=0.01;"):
        integrate(steep, (1.0, 0.0), 1.0)


def test_the_guard_passes_a_state_at_the_limit_and_stops_one_past_it():
    identity = PolySystem(2, DISCRETE, (Polynomial.variable(2, 0), Polynomial.variable(2, 1)))
    at_limit = [BLOWUP_LIMIT * 0.6, BLOWUP_LIMIT * 0.8]
    _assert_same_bits(iterate(identity, at_limit, 3), ref.iterate(identity, at_limit, 3))
    past = [np.nextafter(BLOWUP_LIMIT, np.inf), 0.0]
    assert _raised(iterate, identity, past, 3) == _raised(ref.iterate, identity, past, 3)


def _same_outcome(run, reference, *args):
    """Run both loops; equal bits, or an equal ``BlowUp``. Returns whether it blew up."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = reference(*args)
        except BlowUp as exc:
            with pytest.raises(BlowUp) as info:
                run(*args)
            assert (info.value.t, info.value.norm, str(info.value)) == (exc.t, exc.norm, str(exc))
            return True
        _assert_same_bits(run(*args), expected)
        return False


def _random_systems(seed, count):
    """Seeded systems of 1-3 states and both time kinds: coefficients include
    +-1 and starts include +-0.0 and +-1e-300."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim, kind = int(rng.integers(1, 4)), (CONTINUOUS, DISCRETE)[int(rng.integers(2))]
        equations = []
        for _ in range(dim):
            terms = {}
            for _ in range(int(rng.integers(0, 5))):
                exps = tuple(int(e) for e in rng.integers(0, 4, dim))
                terms[exps] = float(rng.choice([1.0, -1.0, rng.uniform(-1.5, 1.5)]))
            equations.append(Polynomial(dim, terms))
        x0 = [float(rng.choice([0.0, -0.0, 1e-300, -1e-300, rng.uniform(-3.0, 3.0)]))
              for _ in range(dim)]
        yield PolySystem(dim, kind, tuple(equations)), x0, float(rng.choice([0.01, 0.05, 0.2]))


def test_random_systems_run_with_the_numpy_loops_bits_and_blowups():
    blowups = []
    for system, x0, dt in _random_systems(2024, 200):
        if system.time_kind == CONTINUOUS:
            blowups.append(_same_outcome(integrate, ref.integrate, system, x0, 40 * dt, dt))
        else:
            blowups.append(_same_outcome(iterate, ref.iterate, system, x0, 40))
    assert 10 <= sum(blowups) <= len(blowups) - 10  # both outcomes, many times


@pytest.mark.parametrize("kind, power, x0, dt", [
    (CONTINUOUS, 7, 5.0, 0.1),  # x^7 overflows in the fourth substep of the first step
    (CONTINUOUS, 50, 1e7, 0.01),  # ... and x^50 in the first
    (CONTINUOUS, 5, -3.0, 0.3),  # a state near -1e175, whose norm overflows
    (DISCRETE, 9, 1e5, None),  # 1e45 passes the limit
])
def test_steep_powers_blow_up_where_the_numpy_loops_do(kind, power, x0, dt):
    system = PolySystem(1, kind, (Polynomial(1, {(power,): 1.0}),))
    if kind == CONTINUOUS:
        assert _same_outcome(integrate, ref.integrate, system, [x0], 1.0, dt)
    else:
        assert _same_outcome(iterate, ref.iterate, system, [x0], 5)


@pytest.mark.parametrize("kind, equations, x0", [
    # a positive linear coefficient makes a -0.0 derivative at -0.0
    (CONTINUOUS, ({(1, 0): 0.5}, {(0, 1): -1.0}), [-0.0, 1.0]),
    (CONTINUOUS, ({(1, 0): 1.0, (0, 2): -1.0}, {(0, 1): -0.5}), [-0.0, -0.0]),
    (DISCRETE, ({(1, 0): 0.5}, {(0, 1): -1.0}), [-0.0, 1.0]),
    # derivatives of -5e-324 keep x1 at -0.0 while sixth * their sum rounds to -0.0
    (CONTINUOUS, ({(0, 1): -1.0}, {}), [-0.0, 5e-324]),
])
def test_a_negative_zero_start_keeps_the_numpy_loops_zero_signs(kind, equations, x0):
    system = PolySystem(2, kind, tuple(Polynomial(2, terms) for terms in equations))
    if kind == CONTINUOUS:
        got, expected = integrate(system, x0, 0.2), ref.integrate(system, x0, 0.2)
    else:
        got, expected = iterate(system, x0, 20), ref.iterate(system, x0, 20)
    assert np.signbit(got.states).tolist() == np.signbit(expected.states).tolist()
    assert np.signbit(expected.states[:, 0]).any()
    _assert_same_bits(got, expected)


# -- fields the registry does not reach ---------------------------------------

def test_a_row_longer_than_one_generated_line_integrates_bit_identically():
    rng = np.random.default_rng(5)
    exps = [(i, d - i) for d in range(8) for i in range(d + 1)]  # 36 > _TERMS_PER_LINE
    rows = [{e: 0.05 * rng.uniform(-1.0, 1.0) for e in exps} for _ in range(2)]
    rows[0][(1, 0)], rows[1][(0, 1)] = -1.0, -2.0
    system = PolySystem(2, CONTINUOUS, tuple(Polynomial(2, row) for row in rows))
    for x0 in ((0.4, -0.3), (-0.5, 0.6)):
        _assert_same_bits(integrate(system, x0, 2.0), ref.integrate(system, x0, 2.0))


def test_high_powers_of_two_variables_integrate_bit_identically():
    eq1 = Polynomial(2, {(1, 0): -1.0, (3, 4): 0.1, (0, 3): -0.2})
    eq2 = Polynomial(2, {(0, 1): -0.5, (5, 0): 0.3, (3, 3): -0.1, (0, 6): 0.05})
    system = PolySystem(2, CONTINUOUS, (eq1, eq2))
    for x0 in ((1.1, -0.9), (-1.3, 0.7)):
        _assert_same_bits(integrate(system, x0, 3.0), ref.integrate(system, x0, 3.0))


def _lorenz():
    eqs = (Polynomial(3, {(1, 0, 0): -10.0, (0, 1, 0): 10.0}),
           Polynomial(3, {(1, 0, 0): 28.0, (0, 1, 0): -1.0, (1, 0, 1): -1.0}),
           Polynomial(3, {(0, 0, 1): -8.0 / 3.0, (1, 1, 0): 1.0, (0, 0, 3): -1e-3}))
    return PolySystem(3, CONTINUOUS, eqs)


def test_a_three_state_field_integrates_bit_identically():
    system = _lorenz()
    for x0 in ((1.0, 1.0, 1.0), (-3.0, 2.5, 20.0)):
        _assert_same_bits(integrate(system, x0, 2.0), ref.integrate(system, x0, 2.0))


@pytest.mark.parametrize("system, x0, extent", [
    (builtin("logistic"), [0.3], 40),
    (builtin("logistic"), [0.3], 0),
    (builtin("center_manifold"), [0.4], 2.0),
    (_lorenz(), (1.0, 1.0, 1.0), 1.0),
], ids=["1-state map", "1-state map, no step", "1-state flow", "3-state flow"])
def test_states_come_out_one_row_per_sample_with_the_loops_bits(system, x0, extent):
    run, reference = ((iterate, ref.iterate) if system.time_kind == DISCRETE
                      else (integrate, ref.integrate))
    traj = run(system, x0, extent)
    assert traj.states.shape == (len(traj.times), system.dim)
    assert traj.states.dtype == np.float64 and traj.states.flags.c_contiguous
    _assert_same_bits(traj, reference(system, x0, extent))


def test_empty_csv_file_is_rejected_by_name(tmp_path):
    path = tmp_path / "nothing.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="nothing.csv"):
        read_trajectory(path, CONTINUOUS)


def test_read_trajectory_names_the_file_line_and_column_of_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2\n0,1,2\n0.01,abc,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3, column 2: .*'abc'"):
        read_trajectory(path, CONTINUOUS)
