"""Acceptance gate: each numbered criterion at its stated tolerance.

One test per criterion, and every test prints a single ``criterion N:
PASS/FAIL`` line (visible under ``pytest -s`` or in captured output) so the
whole gate can be read at a glance.  Tolerances here are pinned, not tuned —
a red line means a headline capability regressed.
"""

import math
import time

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    NotStabilizable,
    ObservableLibrary,
    builtin,
    carleman_center,
    carleman_logistic,
    closure_residual,
    compare_lqr_kooc,
    dataset_from_trajectories,
    eigen_residual,
    eigenfunctions,
    eval_library,
    field_lift,
    integrate,
    iterate,
    kooc_synthesize,
    monomials,
    project_states,
    propagate,
    rotate_model,
    sindy,
    slow_manifold_lift_ct,
    solve_care,
    verify_eigenfunction,
)

import _reference as ref


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _benchmark(x0, horizon=50.0, dt=0.01):
    """KOOC-vs-LQR comparison on the controlled slow-manifold benchmark."""
    system = builtin("kooc_demo")  # mu = -0.1, lam = 1, input on x2
    model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})
    return compare_lqr_kooc(system, model, np.eye(2), [[1.0]], x0, horizon,
                            dt=dt)


def test_criterion_1_kooc_vs_lqr_cost_ratio():
    start = time.perf_counter()
    comp = _benchmark(x0=(-5.0, 5.0))
    elapsed = time.perf_counter() - start
    # the gain-substituted integrand convention lands near 1/3; the ratio of
    # the costs actually incurred is pinned alongside it
    ok = (0.25 <= comp.ratio_script <= 0.40
          and abs(comp.ratio - 0.2208) < 2e-3
          and elapsed < 5.0)
    _report(1, ok,
            f"cost ratio {comp.ratio_script:.4f} in [0.25, 0.40] "
            f"(applied-input ratio {comp.ratio:.4f}), runtime {elapsed:.2f}s")


def test_criterion_2_closed_form_lift_exactness():
    start = time.perf_counter()
    residuals = []
    errors = []

    quad = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    quad_sys = builtin("quad_manifold")
    residuals.append(closure_residual(quad, quad_sys))
    truth = integrate(quad_sys, [1.5, -1.0], 10.0, dt=0.01)
    lifted = propagate(quad, [1.5, -1.0], t_end=10.0, dt=0.01)
    errors.append(np.max(np.abs(project_states(quad, lifted) - truth.states)))

    quartic = slow_manifold_lift_ct(-0.05, -1.0, {4: 1.0, 2: -2.0})
    quartic_sys = builtin("quartic_manifold", mu=-0.05, lam=-1.0)
    residuals.append(closure_residual(quartic, quartic_sys))
    truth = integrate(quartic_sys, [1.2, 0.5], 10.0, dt=0.01)
    lifted = propagate(quartic, [1.2, 0.5], t_end=10.0, dt=0.01)
    errors.append(np.max(np.abs(project_states(quartic, lifted)
                                - truth.states)))

    tu_sys = builtin("tu_map")
    tu = field_lift(ObservableLibrary(2, [(1, 0), (0, 1), (2, 0)]), tu_sys)
    residuals.append(closure_residual(tu, tu_sys))
    truth = iterate(tu_sys, [1.0, 2.0], 10)
    lifted = propagate(tu, [1.0, 2.0], steps=10)
    errors.append(np.max(np.abs(project_states(tu, lifted) - truth.states)))

    elapsed = time.perf_counter() - start
    ok = (all(res == 0.0 for res in residuals)
          and all(err < 1e-6 for err in errors)
          and elapsed < 2.0)
    _report(2, ok,
            f"closure residuals {residuals} all exactly zero, max propagation "
            f"error {max(errors):.2e} < 1e-6 over horizon 10, "
            f"runtime {elapsed:.2f}s")


def test_criterion_3_sindy_recovery():
    start = time.perf_counter()
    system = builtin("quad_manifold", mu=-0.05, lam=-1.0)
    trajs = [integrate(system, [x1, x2], t_end=10.0, dt=0.01)
             for x1 in (-2.0, -1.0, 0.0, 1.0, 2.0) for x2 in (-2.0, 2.0)]
    data = dataset_from_trajectories(trajs, CONTINUOUS)
    library = monomials(2, 2)
    model = sindy(data, library, threshold=0.025)
    elapsed = time.perf_counter() - start

    names = library.names
    expected = {(0, "x1"): -0.05, (1, "x2"): -1.0, (1, "x1^2"): 1.0}
    coeff_err = max(abs(model.coefficients[row, names.index(name)] - value)
                    for (row, name), value in expected.items())
    active = {(row, names[col])
              for row, col in zip(*np.nonzero(model.coefficients))}
    ok = (coeff_err < 1e-3
          and active == set(expected)
          and elapsed < 5.0)
    _report(3, ok,
            f"10 trajectories at dt 0.01: max coefficient error "
            f"{coeff_err:.2e} < 1e-3, active terms exactly "
            f"{{x1; x2, x1^2}}, runtime {elapsed:.2f}s")


def test_criterion_4_dmd_special_case():
    system = builtin("quad_manifold", mu=-0.05, lam=-1.0)
    trajs = [integrate(system, [x1, 1.0], t_end=10.0, dt=0.01)
             for x1 in (-1.0, 0.5, 2.0)]
    data = dataset_from_trajectories(trajs, CONTINUOUS)
    library = monomials(2, 1)
    model = sindy(data, library, threshold=0.0)
    theta = eval_library(library, data.X)
    oracle = data.Y @ np.linalg.pinv(theta)
    diff = float(np.max(np.abs(model.coefficients - oracle)))
    ok = diff < 1e-12
    _report(4, ok,
            f"threshold-0 fit on the degree-1 library vs the pseudoinverse "
            f"formula: max difference {diff:.2e} < 1e-12")


def test_criterion_5_eigenfunction_suite():
    mu, lam = -0.05, 1.0
    model = slow_manifold_lift_ct(mu, lam, {2: 1.0})
    system = builtin("quad_manifold", mu=mu, lam=lam)

    # (a) x2 - [lam/(lam-2mu)] x1^2 decays like exp(lam t) along trajectories
    slow = next(fn for fn in eigenfunctions(model)
                if fn.eigenvalue == pytest.approx(lam))
    traj = integrate(system, [1.5, -1.0], 10.0, dt=0.005)
    residual_a = verify_eigenfunction(slow, traj)

    # (b) the 45-degree change of coordinates produces the displayed matrix,
    # and the spectrum never moves under rotation
    rotated = rotate_model(system, np.pi / 4)
    displayed = np.array([
        [1.5 * mu, -0.5 * mu, lam - 2.0 * mu],
        [-0.5 * mu, 1.5 * mu, -(lam - 2.0 * mu)],
        [0.0, 0.0, lam],
    ])
    matrix_err = float(np.max(np.abs(rotated.K - displayed)))
    spectrum = np.sort_complex(np.linalg.eigvals(model.K))
    eig_err = max(
        float(np.max(np.abs(np.sort_complex(
            np.linalg.eigvals(rotate_model(system, angle).K)) - spectrum)))
        for angle in (0.3, np.pi / 4, 1.1, 2.0)
    )

    # (c) exp(-1/x) is a lam = 1 eigenfunction of dx/dt = x^2
    center = builtin("center_manifold")
    trajs = [integrate(center, [x0], 0.8 / x0, dt=0.002) for x0 in (0.25, 0.5)]
    residual_c = max(
        eigen_residual(np.exp(-1.0 / traj.states[:, 0]), 1.0, traj.times, CONTINUOUS)
        for traj in trajs
    )

    ok = (residual_a < 1e-4 and matrix_err < 1e-12 and eig_err < 1e-10
          and residual_c < 1e-4)
    _report(5, ok,
            f"(a) parabola eigenfunction residual {residual_a:.2e} < 1e-4; "
            f"(b) rotated matrix error {matrix_err:.2e} < 1e-12, eigenvalue "
            f"drift {eig_err:.2e} < 1e-10; (c) exp(-1/x) residual "
            f"{residual_c:.2e} < 1e-4")


def test_criterion_6_carleman_properties():
    r = 3.5
    model = carleman_logistic(r, 4)
    rows_exact = True
    sums_exact = True
    for n in range(1, 5):
        full_row = [r**n * (-1) ** k * math.comb(n, k) for k in range(n + 1)]
        sums_exact &= math.fsum(full_row) == 0.0
        for k, coeff in enumerate(full_row):
            if n + k <= 4:
                rows_exact &= model.K[n - 1, n + k - 1] == coeff
    rows_exact &= bool(np.all(model.K == np.triu(model.K)))

    dets = [float(np.linalg.det(carleman_center(rank).K))
            for rank in (4, 8, 12)]

    # rank N gives x0 / (1 - x0 t) to degree N - 1: relative error (x0 t)^N exactly
    horizons, closed_forms, gaps = [], [], []
    x0, dt = 0.5, 0.001
    for rank in (4, 8, 12, 16):
        lifted = propagate(carleman_center(rank), [x0], t_end=1.9, dt=dt)
        truth = 1.0 / (1.0 / x0 - lifted.times)
        rel = np.abs(lifted.states[:, 0] - truth) / np.abs(truth)
        crossed = np.nonzero(rel > 0.1)[0]
        horizons.append(float(lifted.times[crossed[0]]) if crossed.size
                        else np.inf)
        closed_forms.append(0.1 ** (1.0 / rank) / x0)
        gaps.append(float(np.max(np.abs(rel - (x0 * lifted.times) ** rank))))
    monotone = horizons[0] <= horizons[1] <= horizons[2] <= horizons[3]
    on_closed_form = all(c <= h < c + dt for h, c in zip(horizons, closed_forms))

    ok = (rows_exact and sums_exact and all(d == 0.0 for d in dets)
          and monotone and on_closed_form and max(gaps) <= 1e-10)
    _report(6, ok,
            f"rank-4 logistic rows are the scaled alternating binomial rows "
            f"exactly, full rows sum to 0.0 exactly, truncation determinants "
            f"{dets} all exactly zero, 10%-error horizons {horizons} "
            f"monotone in rank, each within dt above its closed form "
            f"0.1^(1/N)/x0, error gaps to (x0 t)^N {max(gaps):.1e} <= 1e-10")


def test_criterion_7_care_correctness():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(50):
        a, b, q, r = ref.random_stabilizable_problem(rng)
        p = solve_care(a, b, q, r)
        res = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q
        worst = max(worst, float(np.max(np.abs(res))))

    p_scalar = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    scalar_err = abs(float(p_scalar[0, 0]) - (math.sqrt(2.0) - 1.0))

    lifted = slow_manifold_lift_ct(0.1, -1.0, {2: 1.0})
    named = False
    try:
        kooc_synthesize(lifted, np.array([[1.0], [0.0], [0.0]]),
                        np.eye(2), [[1.0]])
    except NotStabilizable as exc:
        named = "0.2" in str(exc) and "x1^2" in str(exc)

    ok = worst <= 1e-8 and scalar_err < 1e-10 and named
    _report(7, ok,
            f"50 random stabilizable problems: worst residual {worst:.2e} "
            f"<= 1e-8; scalar case error {scalar_err:.2e} < 1e-10; "
            f"unstabilizable lift names the 0.2 mode on x1^2: {named}")


def test_criterion_8_near_origin_consistency():
    comp = _benchmark(x0=(-0.01, 0.01))
    ok = 0.95 <= comp.ratio <= 1.05
    _report(8, ok,
            f"near the origin both controllers coincide: cost ratio "
            f"{comp.ratio:.4f} in [0.95, 1.05]")
