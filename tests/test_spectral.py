"""Tests for eigenfunction extraction, verification, and coordinate changes."""

import json

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    DegenerateSpectrum,
    Eigenfunction,
    Polynomial,
    Trajectory,
    builtin,
    eigen_residual,
    eigenfunction_to_json,
    eigenfunctions,
    format_polynomial,
    integrate,
    iterate,
    load_model,
    rotate_model,
    rotation_matrix,
    slow_manifold_lift_ct,
    slow_subspace_slope,
    tu_lift,
    verify_eigenfunction,
)
from koopmankit.artifacts import _library_from_json
from koopmankit.cli import main
from koopmankit.registry import _REGISTRY

import _reference as ref

MU, LAM = -0.05, 1.0
B_COEFF = LAM / (LAM - 2 * MU)  # 1/1.1 = 0.909090...


def quad_model():
    return slow_manifold_lift_ct(MU, LAM, {2: 1.0})


# ---------------------------------------------------------------------------
# eigenfunctions from left eigenvectors
# ---------------------------------------------------------------------------

def test_quad_model_eigenvalue_set():
    fns = eigenfunctions(quad_model())
    values = sorted(f.eigenvalue.real for f in fns)
    np.testing.assert_allclose(values, [2 * MU, MU, LAM], atol=1e-14)
    assert all(abs(f.eigenvalue.imag) < 1e-14 for f in fns)


def test_quad_slow_eigenfunction_coefficient_ratio():
    """The lam-eigenfunction is x2 - b x1^2 with b = lam/(lam - 2 mu)."""
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    c = phi.coeffs.real
    assert abs(c[0]) < 1e-14  # no x1 component
    assert c[2] / c[1] == pytest.approx(-B_COEFF, abs=1e-12)


def test_trivial_eigenfunctions_are_the_decoupled_observables():
    fns = eigenfunctions(quad_model())
    phi_mu = next(f for f in fns if abs(f.eigenvalue - MU) < 1e-12)
    np.testing.assert_allclose(np.abs(phi_mu.coeffs), [1.0, 0.0, 0.0], atol=1e-14)
    phi_2mu = next(f for f in fns if abs(f.eigenvalue - 2 * MU) < 1e-12)
    np.testing.assert_allclose(np.abs(phi_2mu.coeffs), [0.0, 0.0, 1.0], atol=1e-14)


def test_eigenfunction_callable_evaluates_linear_combination():
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    x = np.array([1.5, -1.0])
    expected = phi.coeffs[1] * (-1.0) + phi.coeffs[2] * 2.25
    assert phi(x) == pytest.approx(expected, rel=1e-14)


def test_verify_eigenfunction_along_trajectories():
    """phi_lam decays at exactly rate lam along solutions: residual < 1e-4."""
    system = builtin("quad_manifold", mu=MU, lam=LAM)
    fns = eigenfunctions(quad_model())
    traj = integrate(system, [1.5, -1.0], 10.0, dt=0.01)
    for f in fns:
        assert verify_eigenfunction(f, traj) < 1e-4


def test_verify_eigenfunction_rejects_vanishing_values():
    fns = eigenfunctions(quad_model())
    phi_mu = next(f for f in fns if abs(f.eigenvalue - MU) < 1e-12)
    system = builtin("quad_manifold", mu=MU, lam=LAM)
    traj = integrate(system, [0.0, 1.0], 2.0, dt=0.01)  # x1 = 0 forever
    with pytest.raises(ValueError):
        verify_eigenfunction(phi_mu, traj)


def test_verify_eigenfunction_flags_wrong_eigenvalue():
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    wrong = Eigenfunction(
        eigenvalue=2.0,  # the data evolves at rate lam = 1
        coeffs=phi.coeffs,
        library=phi.library,
        time_kind=phi.time_kind,
    )
    system = builtin("quad_manifold", mu=MU, lam=LAM)
    traj = integrate(system, [1.5, -1.0], 5.0, dt=0.01)
    assert verify_eigenfunction(wrong, traj) > 0.1


def test_discrete_eigenfunction_of_the_tu_lift():
    """Left vector (0, 1, -1) pairs x2 - x1^2 with the mu eigenvalue."""
    lam, mu = 0.9, 0.5
    fns = eigenfunctions(tu_lift(lam, mu))
    phi = next(f for f in fns if abs(f.eigenvalue - mu) < 1e-12)
    c = phi.coeffs.real
    assert abs(c[0]) < 1e-14
    assert c[2] / c[1] == pytest.approx(-1.0, abs=1e-14)
    system = builtin("tu_map", lam=lam, mu=mu)
    traj = iterate(system, [1.0, 2.0], 40)  # started off the manifold
    assert verify_eigenfunction(phi, traj) < 1e-12


def test_verify_eigenfunction_rejects_on_manifold_start():
    # from (1, 1) the value x2 - x1^2 is zero for all time: only noise left
    lam, mu = 0.9, 0.5
    fns = eigenfunctions(tu_lift(lam, mu))
    phi = next(f for f in fns if abs(f.eigenvalue - mu) < 1e-12)
    traj = iterate(builtin("tu_map", lam=lam, mu=mu), [1.0, 1.0], 40)
    with pytest.raises(ValueError):
        verify_eigenfunction(phi, traj)


def test_tu_eigenfunction_composition_identity():
    """phi(F(x)) = mu phi(x) holds at the coefficient level."""
    lam, mu = 0.9, 0.5
    fns = eigenfunctions(tu_lift(lam, mu))
    phi = next(f for f in fns if abs(f.eigenvalue - mu) < 1e-12)
    poly = phi.as_polynomial()
    system = builtin("tu_map", lam=lam, mu=mu)
    defect = poly.compose(system.equations) - mu * poly
    assert max(map(abs, defect.terms.values()), default=0.0) < 1e-15


def test_continuous_eigenfunction_generator_identity():
    """L phi = lam phi for the quadratic slow eigenfunction."""
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    poly = phi.as_polynomial()
    system = builtin("quad_manifold", mu=MU, lam=LAM)
    defect = poly.lie_derivative(system.equations) - LAM * poly
    assert max(map(abs, defect.terms.values()), default=0.0) < 1e-15


@pytest.mark.parametrize("name", ["quad_manifold", "quartic_manifold", "discrete_manifold",
                                  "tu_map", "kooc_demo", "limitation"])
def test_each_slow_manifold_member_has_its_exact_manifold_as_an_eigenfunction(name):
    """x1' = mu x1 and x2' = lam x2 + sum_N c_N x1^N, a flow or a map: phi = x2 -
    sum_N b_N x1^N with b_N = c_N / (rate(N) - lam), rate(N) = N mu for a flow and
    mu^N for a map, has L_f phi = lam phi (a flow) or phi o f = lam phi (a map).
    Its zero set is the invariant slow manifold; x2 = P(x1) is one only in the
    fast limit."""
    system = builtin(name)
    mu = system.equations[0].terms[(1, 0)]
    assert system.equations[0].terms == {(1, 0): mu}
    couplings = dict(system.equations[1].terms)
    lam = couplings.pop((0, 1))
    assert all(e[1] == 0 for e in couplings)
    rate = (lambda n: n * mu) if system.time_kind == CONTINUOUS else (lambda n: mu ** n)
    b = {e: c / (rate(e[0]) - lam) for e, c in couplings.items()}
    phi = Polynomial(2, {(0, 1): 1.0, **{e: -b_n for e, b_n in b.items()}})
    image = ref.advance(phi, system)
    assert image.keys() == phi.terms.keys()
    for e, c in phi.terms.items():
        assert abs(image[e] - lam * c) <= 4 * np.finfo(float).eps * abs(lam * c), e
    # discrete_manifold iterated from (1.5, -1) settles at x2 / x1^2 = 1.2676056
    expected = {"quad_manifold": 1.0 / 0.9, "discrete_manifold": 0.9 / 0.71, "tu_map": 1.0}
    if name in expected:
        assert b[(2, 0)] == pytest.approx(expected[name], rel=1e-15)


def test_named_observable_eigenfunction_on_center_manifold():
    """exp(-1/x) is a lam = 1 eigenfunction of dx = x^2."""
    system = builtin("center_manifold")
    for x0 in (0.25, 0.5):
        traj = integrate(system, [x0], 0.8 / x0, dt=0.002)  # stop before blow-up
        assert eigen_residual(np.exp(-1.0 / traj.states[:, 0]), 1.0, traj.times, CONTINUOUS) < 1e-4


def test_eigen_residual_of_the_registry_phi_is_what_spectral_writes(tmp_path):
    eigenvalue, phi = _REGISTRY["center_manifold"]["eigenfunctions"]["exp_neg_inv"]
    traj = integrate(builtin("center_manifold"), [0.25], 0.8 / 0.25, dt=0.002)
    residual = eigen_residual(phi(traj.states[:, 0]), eigenvalue, traj.times, CONTINUOUS)
    assert main(["spectral", "--system", "center-manifold", "--named-observable", "exp-neg-inv",
                 "--x0=0.25", "--dt", "0.002", "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "center_manifold_spectral.json").read_text())
    assert written["named_observable_residual"].hex() == residual.hex() == "0x1.69e1954a746b4p-24"


@pytest.mark.parametrize("values", [np.zeros(50), np.zeros(50, dtype=complex), -0.0 * np.ones(50)])
def test_eigen_residual_refuses_values_that_vanish_identically(values):
    times = np.arange(50) * 0.01
    with pytest.raises(ValueError, match="vanishes along this trajectory"):
        eigen_residual(values, 1.0, times, CONTINUOUS)


def test_eigen_residual_matches_verify_eigenfunction_bit_for_bit():
    flow = integrate(builtin("quad_manifold", mu=MU, lam=LAM), [1.5, -1.0], 10.0, dt=0.01)
    steps = iterate(builtin("tu_map", lam=0.9, mu=0.5), [1.0, 2.0], 40)
    for model, traj in ((quad_model(), flow), (tu_lift(0.9, 0.5), steps)):
        for fn in eigenfunctions(model):
            expected = verify_eigenfunction(fn, traj)
            assert eigen_residual(fn(traj.states.T), fn.eigenvalue, traj.times, fn.time_kind) == expected


def test_eigen_residual_refuses_values_that_do_not_match_the_times():
    with pytest.raises(ValueError, match=r"values has shape \(4,\); expected one per time, \(5,\)"):
        eigen_residual(np.ones(4), 1.0, np.arange(5) * 0.1, CONTINUOUS)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_rotation_matrix_identity_at_zero():
    np.testing.assert_array_equal(rotation_matrix(0.0), np.eye(2))


def test_rotation_matrix_at_45_degrees():
    np.testing.assert_allclose(
        rotation_matrix(np.pi / 4), [[1.0, 1.0], [1.0, -1.0]], atol=1e-15
    )


def test_rotation_matrix_rejects_singular_angle():
    with pytest.raises(ValueError):
        rotation_matrix(3 * np.pi / 4)


def test_rotated_model_matches_displayed_matrix():
    rotated = rotate_model(quad_model(), np.pi / 4)
    expected = np.array(
        [
            [1.5 * MU, -0.5 * MU, LAM - 2 * MU],
            [-0.5 * MU, 1.5 * MU, -(LAM - 2 * MU)],
            [0.0, 0.0, LAM],
        ]
    )
    assert np.abs(rotated.K - expected).max() < 1e-12


def test_rotated_model_eigenvalues_are_invariant():
    model = quad_model()
    reference = np.sort(np.linalg.eigvals(model.K).real)
    for angle in (0.3, 1.0, 2.0, -0.7, np.pi / 4):
        rotated = rotate_model(model, angle)
        current = np.sort(np.linalg.eigvals(rotated.K).real)
        np.testing.assert_allclose(current, reference, atol=1e-10)


def test_rotated_third_observable_is_the_slow_eigenfunction():
    """In rotated coordinates the third library entry is still x2 - b x1^2."""
    rotated = rotate_model(quad_model(), np.pi / 4)
    obs_name = rotated.library.names[2]
    # evaluating the rotated observable at T(x) equals phi at x
    tmat = rotation_matrix(np.pi / 4)
    rng = np.random.default_rng(9)
    from koopmankit import eval_library

    for x in rng.uniform(-1.5, 1.5, size=(20, 2)):
        eta = tmat @ x
        lifted = eval_library(rotated.library, eta[:, None])
        phi_direct = x[1] - B_COEFF * x[0] ** 2
        assert lifted[2, 0] == pytest.approx(phi_direct, abs=1e-12)
    assert "x1" in obs_name and "x2" in obs_name  # a genuine mixed polynomial


def test_rotate_model_angle_zero_returns_fresh_copy():
    model = quad_model()
    rotated = rotate_model(model, 0.0)
    assert rotated is not model
    np.testing.assert_array_equal(rotated.K, model.K)
    assert rotated.library.names == model.library.names


def test_rotate_model_rejects_singular_angle():
    with pytest.raises(ValueError):
        rotate_model(quad_model(), 3 * np.pi / 4)


def test_rotate_model_requires_simple_spectrum():
    degenerate = slow_manifold_lift_ct(-0.05, -0.1, {2: 1.0})  # lam = 2 mu
    with pytest.raises(DegenerateSpectrum):
        rotate_model(degenerate, np.pi / 4)


# ---------------------------------------------------------------------------
# slow-subspace slope
# ---------------------------------------------------------------------------

def test_slow_subspace_slope_value():
    assert slow_subspace_slope(quad_model()) == pytest.approx(1.1, abs=1e-14)


def test_slow_subspace_slope_matches_by_eigenvalue_not_position():
    # with lam = -1 the 2 mu eigenvalue is in the middle of the sorted order
    model = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    slope = slow_subspace_slope(model)
    assert slope == pytest.approx((-1.0 - 2 * -0.05) / -1.0, abs=1e-12)  # 0.9


def test_slow_subspace_slope_degenerate_collision():
    degenerate = slow_manifold_lift_ct(-0.05, -0.1, {2: 1.0})
    with pytest.raises(DegenerateSpectrum):
        slow_subspace_slope(degenerate)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_eigenfunction_json_roundtrip():
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    data = json.loads(json.dumps(eigenfunction_to_json(phi)))
    assert complex(*data["eigenvalue"]) == phi.eigenvalue
    np.testing.assert_array_equal([complex(re, im) for re, im in data["coeffs"]], phi.coeffs)
    assert _library_from_json(data["library"]).names == phi.library.names
    assert data["time_kind"] == phi.time_kind


def test_as_polynomial_rejects_truly_complex_coefficients():
    lib = quad_model().library
    fn = Eigenfunction(
        eigenvalue=1.0,
        coeffs=np.array([1.0 + 0.5j, 0.0, 0.0]),
        library=lib,
        time_kind=CONTINUOUS,
    )
    with pytest.raises(ValueError):
        fn.as_polynomial()


def test_as_polynomial_formats_real_combination():
    fns = eigenfunctions(quad_model())
    phi = next(f for f in fns if abs(f.eigenvalue - LAM) < 1e-12)
    poly = phi.as_polynomial()
    text = format_polynomial(poly)
    assert "x2" in text and "x1^2" in text


# ---------------------------------------------------------------------------
# verification on the shared sampled advance
# ---------------------------------------------------------------------------

def _reference_verify(fn, traj):
    phi = fn.coeffs @ ref.values(fn.library.observables, traj.states.T)
    return ref.relative_defect(phi[None], lambda rows: fn.eigenvalue * rows, traj, fn.time_kind)


def test_verify_eigenfunction_matches_the_reference_bit_for_bit():
    flow = integrate(builtin("quad_manifold", mu=MU, lam=LAM), [1.5, -1.0], 10.0, dt=0.01)
    steps = iterate(builtin("tu_map", lam=0.9, mu=0.5), [1.0, 2.0], 40)
    for model, traj in ((quad_model(), flow), (tu_lift(0.9, 0.5), steps)):
        for fn in eigenfunctions(model):
            assert verify_eigenfunction(fn, traj) == _reference_verify(fn, traj)


def test_verify_eigenfunction_refuses_a_one_sample_map_trajectory():
    fns = eigenfunctions(tu_lift(0.9, 0.5))
    phi = next(f for f in fns if abs(f.eigenvalue - 0.5) < 1e-12)
    traj = Trajectory(times=np.zeros(1), states=np.array([[1.0, 2.0]]), inputs=None)
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        verify_eigenfunction(phi, traj)
