"""Tests for the Riccati solver, LQR/KOOC synthesis, and cost comparison."""

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    KoocController,
    KoopmanModel,
    LqrProblem,
    NotStabilizable,
    NumericsError,
    ObservableLibrary,
    PolySystem,
    Polynomial,
    Trajectory,
    builtin,
    closed_loop_cost,
    compare_lqr_kooc,
    kooc_synthesize,
    lqr_gain,
    monomials,
    pbh_unstabilizable_modes,
    slow_manifold_lift_ct,
    solve_care,
)
from koopmankit.control import _closed_loop_run

scipy_linalg = pytest.importorskip("scipy.linalg")


def care_residual(a, b, q, r, p) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    rinv_bt = np.linalg.solve(r, b.T)
    res = a.T @ p + p @ a - p @ b @ rinv_bt @ p + q
    return float(np.linalg.norm(res))


def stabilizability_margin(a, b):
    """min sigma_min([A - lam I, B]) over eigenvalues with Re >= -0.05."""
    n = a.shape[0]
    margin = np.inf
    for lam in np.linalg.eigvals(a):
        if lam.real >= -0.05:
            pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
            s = np.linalg.svd(pencil, compute_uv=False)
            margin = min(margin, s[-1])
    return margin


def random_stabilizable_problem(rng):
    """Gaussian (A, B, Q, R) rejected until the pair has a real PBH margin."""
    while True:
        n = int(rng.integers(2, 7))
        q_in = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, q_in))
        if stabilizability_margin(a, b) < 0.2:
            continue
        g = rng.standard_normal((n, n))
        q = g.T @ g
        h = rng.standard_normal((q_in, q_in))
        r = h.T @ h + q_in * np.eye(q_in)
        return a, b, q, r


# ---------------------------------------------------------------------------
# CARE solver
# ---------------------------------------------------------------------------

def test_scalar_analytic_riccati_solution():
    # a = -1, b = q = r = 1: p^2 + 2p - 1 = 0, positive root sqrt(2) - 1
    p = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(p[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-10


def test_zero_state_cost_with_stable_dynamics_gives_zero_p():
    p = solve_care(np.diag([-1.0, -0.5]), [[1.0], [1.0]], np.zeros((2, 2)), [[1.0]])
    np.testing.assert_array_equal(p, np.zeros((2, 2)))


def test_care_solution_is_symmetric_positive_semidefinite():
    rng = np.random.default_rng(13)
    a, b, q, r = random_stabilizable_problem(rng)
    p = solve_care(a, b, q, r)
    np.testing.assert_array_equal(p, p.T)
    assert np.min(np.linalg.eigvalsh(p)) > -1e-10


def test_care_residual_gate_on_random_suite():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a, b, q, r = random_stabilizable_problem(rng)
        p = solve_care(a, b, q, r)
        gate = 1e-8 * max(1.0, np.linalg.norm(q))
        assert care_residual(a, b, q, r, p) <= gate


def test_care_matches_scipy_reference():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b, q, r = random_stabilizable_problem(rng)
        p = solve_care(a, b, q, r)
        ref = scipy_linalg.solve_continuous_are(a, b, q, r)
        np.testing.assert_allclose(p, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))


def test_care_closed_loop_is_hurwitz():
    rng = np.random.default_rng(34)
    for _ in range(10):
        a, b, q, r = random_stabilizable_problem(rng)
        gain, _ = lqr_gain(a, b, q, r)
        assert np.max(np.linalg.eigvals(a - b @ gain).real) < 0


def test_care_unstabilizable_problem_raises():
    # the unstable mode is untouched by the input
    with pytest.raises(NumericsError):
        solve_care(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.eye(2), [[1.0]])


# ---------------------------------------------------------------------------
# CARE solver at lifted sizes, graded against the scipy oracle
# ---------------------------------------------------------------------------

def care_backward_error(a, b, q, r, p):
    """Relative backward error |Res| / (|Q| + 2|A||P| + |G||P|^2), G = B R^-1 B'."""
    g = b @ np.linalg.solve(r, b.T)
    res = a.T @ p + p @ a - p @ g @ p + q
    norm = np.linalg.norm
    return norm(res) / (norm(q) + 2.0 * norm(a) * norm(p) + norm(g) * norm(p) ** 2)


def random_lifted_size_pair(rng, m):
    return rng.standard_normal((m, m)) / np.sqrt(m), rng.standard_normal((m, 2))


@pytest.mark.parametrize("m", [10, 20, 35])
def test_care_graded_suite_against_scipy(m):
    """Random pairs A = randn/sqrt(m) with two inputs, Q = I, R = I.

    These pairs grow ill-conditioned with m (|P| reaches 1e7-1e8 at m = 35),
    so the absolute residual is no measure; the solution is judged by its
    relative backward error and a Hurwitz closed loop. Agreement with scipy
    is bounded by conditioning: with Q = I both solvers' relative errors
    track eps |P|.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(500 + m)
    for _ in range(6):
        a, b = random_lifted_size_pair(rng, m)
        q, r = np.eye(m), np.eye(2)
        p = solve_care(a, b, q, r)
        assert care_backward_error(a, b, q, r, p) <= 1e-8
        gain = np.linalg.solve(r, b.T @ p)
        assert np.max(np.linalg.eigvals(a - b @ gain).real) < 0
        ref = scipy_linalg.solve_continuous_are(a, b, q, r)
        ref_norm = np.linalg.norm(ref)
        assert np.linalg.norm(p - ref) / ref_norm <= 100.0 * eps * ref_norm


def test_care_refuses_an_unstabilizable_lifted_size_pair():
    m = 20
    a, b = random_lifted_size_pair(np.random.default_rng(3), m)
    # the first five states form an unstable block that the input cannot reach
    a[:5, 5:] = 0.0
    a[:5, :5] += 1.5 * np.eye(5)
    b[:5] = 0.0
    assert pbh_unstabilizable_modes(a, b)
    with pytest.raises(NumericsError, match="not Hurwitz"):
        solve_care(a, b, np.eye(m), np.eye(2))


def test_care_refuses_a_hamiltonian_with_imaginary_axis_eigenvalues():
    # an undamped oscillator with no input: the Hamiltonian has eigenvalues +-i
    with pytest.raises(NumericsError, match="imaginary axis"):
        solve_care([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 1)), np.eye(2), [[1.0]])


def test_problem_validation():
    with pytest.raises(ValueError):
        LqrProblem(np.eye(2), np.ones((2, 1)), [[1.0, 0.5], [0.2, 1.0]], [[1.0]])
    with pytest.raises(ValueError):
        LqrProblem(np.eye(2), np.ones((2, 1)), np.eye(2), [[-1.0]])
    # b needs one row per state: a 1 x n input matrix is not read as its transpose
    with pytest.raises(ValueError, match="b must have one row per state"):
        LqrProblem(np.diag([-0.1, 1.0]), [[0.0, 1.0]], np.eye(2), [[1.0]])
    with pytest.raises(ValueError, match="b must have one row per state"):
        pbh_unstabilizable_modes(np.diag([-0.1, 1.0]), [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# LQR gains
# ---------------------------------------------------------------------------

def test_lqr_gain_for_the_benchmark_linearization():
    # A = diag(-0.1, 1), B = (0, 1): stable mode untouched, unstable mode
    # gets the scalar solution gain 1 + sqrt(2)
    gain, p = lqr_gain(np.diag([-0.1, 1.0]), [[0.0], [1.0]], np.eye(2), [[1.0]])
    assert gain.shape == (1, 2)
    assert gain[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert gain[0, 1] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-9)
    assert gain[0, 1] > 2.0


def test_lqr_gain_zero_input_matrix_on_stable_system():
    gain, p = lqr_gain(np.diag([-1.0, -2.0]), np.zeros((2, 1)), np.eye(2), [[1.0]])
    np.testing.assert_array_equal(gain, np.zeros((1, 2)))
    # p solves the Lyapunov equation a'p + pa + q = 0
    np.testing.assert_allclose(np.diag(p), [0.5, 0.25], atol=1e-10)


def test_lqr_gain_is_a_cost_minimum():
    """Scaling the optimal gain by +/-5% strictly increases the actual cost."""
    a = np.diag([-0.1, 1.0])
    b_mat = np.array([[0.0], [1.0]])
    q = np.eye(2)
    r = np.array([[1.0]])
    gain, _ = lqr_gain(a, b_mat, q, r)

    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    system = PolySystem(
        dim=2,
        time_kind=CONTINUOUS,
        equations=(-0.1 * x1, 1.0 * x2),
        params={},
        input_map=b_mat,
        name="linear-benchmark",
    )

    def cost_with(scale):
        traj = _closed_loop_run(system, monomials(2, 1), scale * gain,
                                np.array([-5.0, 5.0]), 50.0, 0.01)
        return closed_loop_cost(traj, q, r)[-1]

    base = cost_with(1.0)
    assert cost_with(1.05) > base
    assert cost_with(0.95) > base


# ---------------------------------------------------------------------------
# PBH stabilizability test
# ---------------------------------------------------------------------------

def test_pbh_clean_pair_has_no_bad_modes():
    assert pbh_unstabilizable_modes(np.diag([-0.1, 1.0]), [[0.0], [1.0]]) == []


def test_pbh_refuses_a_non_square_or_non_finite_a_as_lqr_problem_does():
    b = [[0.0], [1.0]]
    with pytest.raises(ValueError, match="a must be square"):
        pbh_unstabilizable_modes(np.ones((2, 3)), b)
    with pytest.raises(ValueError, match="a and b must be finite"):
        pbh_unstabilizable_modes([[1.0, np.nan], [0.0, -1.0]], b)


def test_pbh_detects_uncontrollable_unstable_mode():
    modes = pbh_unstabilizable_modes(np.diag([1.0, -1.0]), [[0.0], [1.0]])
    assert len(modes) == 1
    assert modes[0] == pytest.approx(1.0)


def test_pbh_ignores_uncontrollable_stable_mode():
    # stabilizable (not controllable): the unreachable mode decays on its own
    a = np.diag([-2.0, 1.0])
    b = np.array([[0.0], [1.0]])
    assert pbh_unstabilizable_modes(a, b) == []
    p = solve_care(a, b, np.eye(2), [[1.0]])
    assert care_residual(a, b, np.eye(2), [[1.0]], p) < 1e-8


def test_pbh_agrees_with_care_solvability():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        if rng.uniform() < 0.5:
            # break controllability of a (likely unstable) eigendirection
            w, v = np.linalg.eig(a + a.T)  # symmetric surrogate, real basis
            a = v @ np.diag(np.linspace(0.5, 1.5, n)) @ v.T
            b = v[:, [0]] * 0.0 + v[:, [n - 1]]  # spans one eigendirection
        bad = pbh_unstabilizable_modes(a, b)
        try:
            p = solve_care(a, b, np.eye(n), [[1.0]])
            solvable = care_residual(a, b, np.eye(n), [[1.0]], p) < 1e-6
        except NumericsError:
            solvable = False
        assert solvable == (len(bad) == 0)


# ---------------------------------------------------------------------------
# KOOC synthesis on the lifted model
# ---------------------------------------------------------------------------

def kooc_ingredients():
    model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})
    b_lifted = np.array([[0.0], [1.0], [0.0]])
    return model, b_lifted


def test_kooc_gain_extends_lqr_with_a_quadratic_term():
    model, b_lifted = kooc_ingredients()
    controller = kooc_synthesize(model, b_lifted, np.eye(2), [[1.0]])
    gain = controller.gain
    assert gain.shape == (1, 3)
    assert gain[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert gain[0, 1] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-8)
    assert gain[0, 2] == pytest.approx(-1.49559737, abs=1e-7)


def test_kooc_feedback_evaluates_on_the_lifted_state():
    model, b_lifted = kooc_ingredients()
    controller = kooc_synthesize(model, b_lifted, np.eye(2), [[1.0]])
    x = np.array([2.0, 1.0])
    lifted = np.array([2.0, 1.0, 4.0])
    expected = -(controller.gain @ lifted)
    np.testing.assert_allclose(controller.feedback(x), expected, atol=1e-12)


def test_kooc_zero_state_cost_returns_zero_gain():
    model, b_lifted = kooc_ingredients()
    controller = kooc_synthesize(model, b_lifted, np.zeros((2, 2)), [[1.0]])
    np.testing.assert_array_equal(controller.gain, np.zeros((1, 3)))
    np.testing.assert_array_equal(controller.p, np.zeros((3, 3)))


def test_kooc_limitation_system_raises_not_stabilizable():
    """With mu > 0 and input on x1 only, the lifted x1^2 mode is unreachable."""
    model = slow_manifold_lift_ct(0.1, -1.0, {2: 1.0})
    b_lifted = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(NotStabilizable) as excinfo:
        kooc_synthesize(model, b_lifted, np.eye(2), [[1.0]])
    err = excinfo.value
    assert err.modes == pytest.approx((0.2,))
    assert err.observables == ("x1^2",)
    assert "0.2" in str(err)
    assert "x1^2" in str(err)


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def test_closed_loop_cost_of_exponential_decay():
    """x = e^{-t}, u = 0, q = 1: J(inf) = 1/2, reached within 1e-4 by t = 20."""
    t = np.arange(0.0, 20.0 + 1e-9, 0.001)
    traj = Trajectory(
        times=t, states=np.exp(-t)[:, None], inputs=np.zeros((len(t), 1))
    )
    j = closed_loop_cost(traj, np.eye(1), np.eye(1))
    assert j[0] == 0.0
    assert np.all(np.diff(j) >= 0)
    assert j[-1] == pytest.approx(0.5, abs=1e-4)


def test_closed_loop_cost_requires_inputs():
    t = np.arange(0.0, 1.0, 0.01)
    traj = Trajectory(times=t, states=np.zeros((len(t), 1)), inputs=None)
    with pytest.raises(ValueError):
        closed_loop_cost(traj, np.eye(1), np.eye(1))


# ---------------------------------------------------------------------------
# LQR vs KOOC comparison
# ---------------------------------------------------------------------------

def benchmark_comparison(x0=(-5.0, 5.0), horizon=50.0):
    system = builtin("kooc_demo")  # mu = -0.1, lam = 1, input on x2
    model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})
    return compare_lqr_kooc(system, model, np.eye(2), [[1.0]], x0, horizon)


def test_comparison_kooc_beats_lqr_from_far_away():
    comp = benchmark_comparison()
    assert comp.kooc_cost[-1] < comp.lqr_cost[-1]
    assert comp.ratio == pytest.approx(0.2208, abs=2e-3)
    # the script-convention ratio reproduces the "about one third" figure
    assert 0.25 <= comp.ratio_script <= 0.40
    assert comp.ratio == pytest.approx(comp.kooc_cost[-1] / comp.lqr_cost[-1], rel=1e-12)


def test_comparison_cost_series_are_monotone():
    comp = benchmark_comparison()
    assert np.all(np.diff(comp.lqr_cost) >= 0)
    assert np.all(np.diff(comp.kooc_cost) >= 0)
    assert comp.lqr_cost[0] == 0.0 and comp.kooc_cost[0] == 0.0


def test_comparison_from_origin_has_unit_ratio():
    comp = benchmark_comparison(x0=(0.0, 0.0))
    assert comp.ratio == 1.0
    assert comp.ratio_script == 1.0


def test_comparison_near_origin_controllers_agree():
    comp = benchmark_comparison(x0=(-0.01, 0.01))
    assert 0.95 <= comp.ratio <= 1.05


def test_comparison_trajectories_carry_applied_inputs():
    comp = benchmark_comparison(horizon=5.0)
    assert comp.lqr_traj.inputs is not None
    assert comp.kooc_traj.inputs is not None
    # LQR applies -C x with the state-space gain
    expected = -(comp.lqr_traj.states @ comp.lqr_gain.T)
    np.testing.assert_allclose(comp.lqr_traj.inputs, expected, atol=1e-10)


def test_comparison_refuses_a_named_observable_by_name():
    """The compiled closed loops need a polynomial law; exp(-1/x) is not one."""
    system = PolySystem(1, CONTINUOUS, (Polynomial(1, {(1,): -1.0}),), input_map=[[1.0]])
    library = ObservableLibrary(1, ((1,), "exp_neg_inv"), state_inclusive=True)
    model = KoopmanModel(library, -np.eye(2), CONTINUOUS, state_rows=(0,))
    with pytest.raises(ValueError, match="'exp_neg_inv' is not a polynomial"):
        compare_lqr_kooc(system, model, [[1.0]], [[1.0]], [1.0], 1.0)


def test_kooc_controller_stabilizes_where_lqr_diverges_less():
    """Both regulate x2; x1 is uncontrolled and follows its own slow decay."""
    comp = benchmark_comparison(horizon=20.0)
    for traj in (comp.kooc_traj, comp.lqr_traj):
        assert traj.states[-1, 0] == pytest.approx(-5.0 * np.exp(-2.0), rel=1e-6)
        assert abs(traj.states[-1, 1]) < 0.5  # x2 pulled down from 5
    # KOOC anticipates the x1^2 forcing, LQR absorbs it after the fact
    assert comp.kooc_cost[-1] < comp.lqr_cost[-1]


def test_kooc_gain_is_the_lqr_gain_of_the_lifted_problem():
    system = builtin("kooc_demo")
    model = slow_manifold_lift_ct(system.params["mu"], system.params["lambda"], {2: 1.0})
    b_lifted = np.zeros((3, 1))
    b_lifted[:2] = system.input_map
    q_lifted = np.zeros((3, 3))
    q_lifted[:2, :2] = np.eye(2)
    controller = kooc_synthesize(model, b_lifted, np.eye(2), [[1.0]])
    gain, p = lqr_gain(model.K, b_lifted, q_lifted, [[1.0]])
    assert controller.gain.tobytes() == gain.tobytes()
    assert controller.p.tobytes() == p.tobytes()
