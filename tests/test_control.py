"""Tests for the Riccati solver, LQR/KOOC synthesis, and cost comparison."""

import itertools
import warnings

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    KoocController,
    KoopmanModel,
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
from koopmankit import control, polynomials
from koopmankit.control import _LqrProblem, _closed_loop, _run_loop

from _reference import care as reference_care
from _reference import care_verdict, matrix_sign, random_scaled_problem, random_stabilizable_problem

scipy_linalg = pytest.importorskip("scipy.linalg")


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


def test_zero_state_cost_on_a_hurwitz_lift_gives_exact_zero_p():
    # P tends to 0 at the rounding floor here, where the backward error's
    # denominator |Q| + 2|A||P| + |G||P|^2 vanishes with it; A - G 0 = A is
    # Hurwitz, so P = 0 is the exact stabilizing solution
    k = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}).K
    p = solve_care(k, [[0.0], [1.0], [0.0]], np.zeros((3, 3)), [[1.0]])
    assert p.tobytes() == np.zeros((3, 3)).tobytes()


def test_zero_state_cost_with_unstable_dynamics_takes_the_stabilizing_root():
    # a = b = r = 1, q = 0: 2p - p^2 = 0 has roots 0 and 2; only p = 2 gives
    # the Hurwitz loop a - p = -1
    p = solve_care([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert abs(p[0, 0] - 2.0) <= 1e-12


def _frobenius_cases():
    rng = np.random.default_rng(8)
    spread = 10.0 ** rng.uniform(-150.0, 150.0, (6, 5)) * rng.choice([-1.0, 1.0], (6, 5))
    cases = {"one by one": np.array([[-3.5]]), "zeros": np.zeros((4, 4)),
             "spread": spread, "spread fortran": np.asfortranarray(spread)}
    for seed in range(4):
        x = rng.standard_normal((9, 7))
        cases[f"c {seed}"] = x
        cases[f"fortran {seed}"] = np.asfortranarray(x)
        cases[f"transposed {seed}"] = rng.standard_normal((7, 9)).T
        cases[f"strided {seed}"] = rng.standard_normal((20, 15))[::2, ::-3]
    return cases


def test_private_norms_equal_numpys_bit_for_bit():
    for name, x in _frobenius_cases().items():
        assert control._fro(x).tobytes() == np.linalg.norm(x).tobytes(), name
        assert control._norm1(abs(x)).tobytes() == np.linalg.norm(x, 1).tobytes(), name


def test_frobenius_cases_tell_memory_order_from_c_order():
    # numpy sums a Fortran-ordered or transposed matrix in memory order; a
    # C-order ravel sums it in another order and misses its bits
    def c_order(x):
        v = x.ravel()
        return np.sqrt(v.dot(v))

    cases = _frobenius_cases()
    for kind in ("fortran", "transposed"):
        assert any(c_order(x) != np.linalg.norm(x)
                   for name, x in cases.items() if name.startswith(kind)), kind


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
        assert care_verdict(a, b, q, r, p).residual <= gate


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
        verdict = care_verdict(a, b, q, r, p)
        assert verdict.backward_error <= 1e-8 and verdict.growth < 0
        ref = scipy_linalg.solve_continuous_are(a, b, q, r)
        ref_norm = np.linalg.norm(ref)
        assert np.linalg.norm(p - ref) / ref_norm <= 100.0 * eps * ref_norm


@pytest.mark.parametrize("m", [3, 9, 20])
def test_care_is_bit_identical_to_the_reference_solver(m):
    # the workload's pairs, with a C-ordered, Fortran-ordered and as a
    # transposed view: the norms must sum each in numpy's memory order, and
    # every layout gives the C-ordered P's bits
    rng = np.random.default_rng(700 + m)
    for _ in range(4):
        a, b = random_lifted_size_pair(rng, m)
        q, r = np.eye(m), np.eye(2)
        h = np.block([[a, -b @ b.T], [-q, -a.T]])
        assert control._matrix_sign(h).tobytes() == matrix_sign(h).tobytes()
        c_order = solve_care(a, b, q, r).tobytes()
        for a_in in (a, np.asfortranarray(a), np.ascontiguousarray(a.T).T):
            p = solve_care(a_in, b, q, r)
            assert p.tobytes() == reference_care(a_in, b, q, r)[0].tobytes() == c_order


def test_polished_care_is_bit_identical_to_the_reference_solver():
    rng = np.random.default_rng(99)
    problems = [random_stabilizable_problem(rng) for _ in range(20)]
    # two polish steps whose P bits move if the loop is formed as A - G P, G = B R^-1 B'
    problems.append(random_scaled_problem(np.random.default_rng(54)))
    polished = 0
    for a, b, q, r in problems:
        ref, kept = reference_care(a, b, q, r)
        polished += kept > 0
        assert solve_care(a, b, q, r).tobytes() == ref.tobytes()
    assert polished  # the defect-correction steps ran


@pytest.mark.parametrize("seed", [2, 3, 4, 6, 7, 8])
def test_care_solves_ill_conditioned_pairs_at_m_50(seed):
    # |P| is 1e11-2e12 here. Rounding in G P, with G = B R^-1 B' formed first,
    # lands outside range(B) and moves these very non-normal loops'
    # eigenvalues by O(1), so only A - B K tells that they are Hurwitz
    a, b = random_lifted_size_pair(np.random.default_rng(seed), 50)
    q, r = np.eye(50), np.eye(2)
    gain, p = lqr_gain(a, b, q, r)
    assert care_verdict(a, b, q, r, p).backward_error <= 1e-8
    assert np.linalg.eigvals(a - b @ gain).real.max() < 0


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


@pytest.mark.parametrize("q", [1e160, 1e200])
def test_care_refuses_a_backward_error_that_overflows_without_a_warning(q):
    # |P| ~ 5q: at q = 1e160 P is right but |G||P|^2 overflows, so the
    # backward error cannot be measured; at 1e200 the residual overflows too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="backward error overflowed .*unit scale"):
            solve_care(np.diag([-0.1, 1.0]), [[0.0], [1.0]], q * np.eye(2), [[1.0]])


def test_problem_validation():
    with pytest.raises(ValueError):
        _LqrProblem(np.eye(2), np.ones((2, 1)), [[1.0, 0.5], [0.2, 1.0]], [[1.0]])
    with pytest.raises(ValueError):
        _LqrProblem(np.eye(2), np.ones((2, 1)), np.eye(2), [[-1.0]])
    # b needs one row per state: a 1 x n input matrix is not read as its transpose
    with pytest.raises(ValueError, match="b must have one row per state"):
        _LqrProblem(np.diag([-0.1, 1.0]), [[0.0, 1.0]], np.eye(2), [[1.0]])
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
        traj = _run_loop(_closed_loop(system, monomials(2, 1), scale * gain),
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
    assert care_verdict(a, b, np.eye(2), [[1.0]], p).residual < 1e-8


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
            solvable = care_verdict(a, b, np.eye(n), [[1.0]], p).residual < 1e-6
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
    # the comparison designs its LQR law the same way, so both laws vanish
    comp = compare_lqr_kooc(builtin("kooc_demo"), model, np.zeros((2, 2)), [[1.0]],
                            (-5.0, 5.0), 5.0)
    np.testing.assert_array_equal(comp.lqr_gain, np.zeros((1, 2)))
    np.testing.assert_array_equal(comp.kooc_controller.gain, np.zeros((1, 3)))
    assert comp.ratio == 1.0


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
    assert "a mode counts when its real part is >= -1e-09 (marginal or unstable)" in str(err)


def test_a_repeated_unstabilizable_eigenvalue_names_each_mode_by_its_own_eigenvector():
    """K = 0.1 I with no input: one mode lives on x1, the other on x2."""
    model = KoopmanModel(monomials(2, 1), 0.1 * np.eye(2), CONTINUOUS)
    with pytest.raises(NotStabilizable) as excinfo:
        kooc_synthesize(model, np.zeros((2, 1)), np.eye(2), [[1.0]])
    assert excinfo.value.modes == pytest.approx((0.1, 0.1))
    assert excinfo.value.observables == ("x1", "x2")


def test_unstabilizable_modes_are_listed_by_descending_real_part():
    model = KoopmanModel(monomials(2, 1), np.diag([0.1, 0.3]), CONTINUOUS)
    with pytest.raises(NotStabilizable, match=r"modes: 0\.3 \(on x2\), 0\.1 \(on x1\);") \
            as excinfo:
        kooc_synthesize(model, np.zeros((2, 1)), np.eye(2), [[1.0]])
    assert excinfo.value.modes == pytest.approx((0.3, 0.1))
    assert excinfo.value.observables == ("x2", "x1")
    assert pbh_unstabilizable_modes(model.K, np.zeros((2, 1))) == pytest.approx([0.3, 0.1])


def test_comparison_refuses_an_unstabilizable_state_block_by_mode():
    """At mu > 0 the LQR design's x1 mode is unreachable from the input on x2."""
    with pytest.raises(NotStabilizable) as excinfo:
        compare_lqr_kooc(builtin("kooc_demo", mu=0.1), slow_manifold_lift_ct(0.1, 1.0, {2: 1.0}),
                         np.eye(2), [[1.0]], (-5.0, 5.0), 5.0)
    assert excinfo.value.modes == pytest.approx((0.1,))
    assert excinfo.value.observables == ("x1",)


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


def test_kooc_controller_stabilizes_where_lqr_diverges_less():
    """Both regulate x2; x1 is uncontrolled and follows its own slow decay."""
    comp = benchmark_comparison(horizon=20.0)
    for traj in (comp.kooc_traj, comp.lqr_traj):
        assert traj.states[-1, 0] == pytest.approx(-5.0 * np.exp(-2.0), rel=1e-6)
        assert abs(traj.states[-1, 1]) < 0.5  # x2 pulled down from 5
    # KOOC anticipates the x1^2 forcing, LQR absorbs it after the fact
    assert comp.kooc_cost[-1] < comp.lqr_cost[-1]


def cost_matrices(comp, model):
    """(P, X): from x0, the infinite-horizon costs of the KOOC and LQR laws on
    kooc_demo's exact lift are Theta0' P Theta0 and Theta0' X Theta0, Theta0 =
    (x1, x2, x1^2). The lifted input map B~ = [0, 1, 0]' is constant, so the
    LQR law's lifted loop is linear, A_L = K - B~ [C 0], and X solves
    A_L' X + X A_L + Q~ + [C 0]' R [C 0] = 0 (Q = I, R = 1)."""
    law = np.hstack([comp.lqr_gain, np.zeros((1, 1))])
    loop = model.K - np.array([[0.0], [1.0], [0.0]]) @ law
    x = scipy_linalg.solve_continuous_lyapunov(loop.T, -(np.diag([1.0, 1.0, 0.0]) + law.T @ law))
    return comp.kooc_controller.p, x


def test_integrated_costs_converge_to_their_closed_forms_at_second_order():
    """Horizon 150 leaves a tail of about e^(-30) (x1 decays at mu = -0.1), so the
    integrated costs miss the closed forms by the trapezoid rule's O(dt^2) error
    alone, and that error quarters when dt halves."""
    system, model = _demo_pair()
    for x0 in ((1.0, 1.0), (-5.0, 5.0), (0.5, -2.0)):
        theta0 = np.array([x0[0], x0[1], x0[0] ** 2])
        errors = []
        for dt in (0.01, 0.005):
            comp = compare_lqr_kooc(system, model, np.eye(2), [[1.0]], x0, 150.0, dt)
            p, x = cost_matrices(comp, model)
            errors.append((comp.kooc_cost[-1] - theta0 @ p @ theta0,
                           comp.lqr_cost[-1] - theta0 @ x @ theta0))
        for ratio in np.divide(*errors):
            assert 3.8 <= ratio <= 4.2, (x0, errors)
    # KOOC is the optimal law of the lifted problem, so its cost is never above LQR's
    for x1, x2 in itertools.product(np.linspace(-3.0, 3.0, 4), np.linspace(-3.0, 3.0, 3)):
        theta0 = np.array([x1, x2, x1 ** 2])
        assert theta0 @ p @ theta0 <= theta0 @ x @ theta0, (x1, x2)


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
    # the comparison's two designs: KOOC as above, LQR on the state block
    comp = compare_lqr_kooc(system, model, np.eye(2), [[1.0]], (-5.0, 5.0), 1.0)
    assert comp.kooc_controller.gain.tobytes() == gain.tobytes()
    state_gain, _ = lqr_gain(model.K[:2, :2], system.input_map, np.eye(2), [[1.0]])
    assert comp.lqr_gain.tobytes() == state_gain.tobytes()


def _comparison_bits(comp):
    """Every array and ratio of a comparison, as bytes and floats."""
    arrays = (comp.lqr_traj.states, comp.lqr_traj.inputs, comp.kooc_traj.states,
              comp.kooc_traj.inputs, comp.lqr_cost, comp.kooc_cost, comp.lqr_cost_script,
              comp.kooc_cost_script, comp.lqr_gain, comp.kooc_controller.gain,
              comp.kooc_controller.p)
    return [a.tobytes() for a in arrays] + [comp.ratio, comp.ratio_script]


def test_comparisons_keep_their_bits_with_a_warm_code_cache():
    """Closed loops and laws of one structure reuse compiled code across calls
    and q, and a kept design reuses its loops; all three give one set of bits."""
    system = builtin("kooc_demo")
    model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})

    def run(q):
        return _comparison_bits(compare_lqr_kooc(system, model, q * np.eye(2), [[1.0]],
                                                 (-5.0, 5.0), 2.0))

    cold = []
    for q in (1.0, 3.0):
        polynomials._code.cache_clear()
        control._last = None
        cold.append(run(q))
    warm_code = [run(q) for q in (1.0, 3.0)]  # alternating q misses the kept design
    assert polynomials._code.cache_info().hits > 0
    kept = control._last[1]
    warm = run(3.0)  # the design kept from the last call
    assert control._last[1] is kept
    assert warm_code == cold and warm == cold[1] and cold[0] != cold[1]


# ---------------------------------------------------------------------------
# the design kept by compare_lqr_kooc
# ---------------------------------------------------------------------------

def _demo_pair():
    system = builtin("kooc_demo")
    return system, slow_manifold_lift_ct(system.params["mu"], system.params["lambda"], {2: 1.0})


def _compare(system, model, q=np.eye(2), r=((1.0,),), x0=(-5.0, 5.0), horizon=1.0):
    return compare_lqr_kooc(system, model, q, r, x0, horizon)


def test_a_kept_design_gives_the_bits_of_a_cold_one_from_every_start():
    system, model = _demo_pair()
    starts = ((-5.0, 5.0), (-4.6, 5.3), (0.0, 0.0))
    cold = []
    for x0 in starts:
        control._last = None
        cold.append(_comparison_bits(_compare(system, model, x0=x0)))
    kept = control._last[1]
    warm = [_comparison_bits(_compare(system, model, x0=x0)) for x0 in starts]
    assert warm == cold and control._last[1] is kept
    # keyed by content: an equal plant and lift built afresh reuse the design
    comp = _compare(*_demo_pair())
    assert control._last[1] is kept
    assert _comparison_bits(comp) == cold[0]


def test_a_kept_design_returns_the_callers_model_and_its_own_arrays():
    system, model = _demo_pair()
    control._last = None
    first = _compare(system, model)
    expected = _comparison_bits(first)
    first.lqr_gain[:] = 7.0
    first.kooc_controller.gain[:] = 7.0
    first.kooc_controller.p[:] = 7.0
    other = slow_manifold_lift_ct(system.params["mu"], system.params["lambda"], {2: 1.0})
    again = _compare(system, other)
    assert _comparison_bits(again) == expected
    assert again.kooc_controller.model is other


def _scale_k(system, model):
    model.K[1, 2] *= 1.5
    return system, model, {}


def _scale_input_map(system, model):
    system.input_map[1, 0] = 2.0
    return system, model, {}


def _scale_observable(system, model):
    x1, x2 = (Polynomial.variable(2, i) for i in range(2))
    library = ObservableLibrary(2, (x1, x2, Polynomial(2, {(2, 0): 1.5})))
    return system, KoopmanModel(library, model.K, CONTINUOUS), {}


@pytest.mark.parametrize("change", [
    _scale_k,
    _scale_input_map,
    lambda system, model: (system, model, {"q": np.diag([1.0, 2.0])}),
    lambda system, model: (system, model, {"r": [[2.0]]}),
    _scale_observable,
], ids=["K", "input_map", "q", "r", "observable"])
def test_each_design_input_misses_the_kept_design_and_gives_a_new_one(change):
    system, model = _demo_pair()
    control._last = None
    base = _comparison_bits(_compare(system, model))
    kept = control._last[1]
    system, model, kwargs = change(system, model)  # in place where the input is an array
    changed = _comparison_bits(_compare(system, model, **kwargs))
    assert control._last[1] is not kept
    control._last = None
    assert _comparison_bits(_compare(system, model, **kwargs)) == changed
    assert changed[:4] != base[:4]  # new closed-loop states and inputs


def test_one_design_is_kept_and_a_replaced_one_recomputes_to_its_bits():
    system, model = _demo_pair()
    control._last = None
    first = _comparison_bits(_compare(system, model, horizon=0.1))
    key = control._last[0]
    _compare(system, model, q=2.0 * np.eye(2), horizon=0.1)
    assert control._last[0] != key
    assert _comparison_bits(_compare(system, model, horizon=0.1)) == first
    assert control._last[0] == key


def test_a_refused_design_raises_on_every_call_and_is_never_stored():
    system = builtin("kooc_demo", mu=0.1)
    model = slow_manifold_lift_ct(0.1, 1.0, {2: 1.0})
    control._last = None
    for _ in range(3):
        with pytest.raises(NotStabilizable, match="unstabilizable unstable modes: 0.1 \\(on x1\\)"):
            _compare(system, model)
        with pytest.raises(ValueError, match="r must be positive definite"):
            _compare(*_demo_pair(), r=[[0.0]])
    assert control._last is None
