"""Eigenfunctions: scalar observables that evolve by a single exponential.

A left eigenvector xi of the lifted matrix (xi K = alpha xi) turns into a
function phi(x) = xi . theta(x) satisfying d/dt phi = alpha phi along every
trajectory. This script extracts the eigenfunctions of the slow-manifold
lift, verifies them along simulated trajectories, shows the spectrum is
untouched by a change of state coordinates, and checks a non-polynomial
eigenfunction, exp(-1/x), for the blow-up system dx/dt = x^2.
"""

import numpy as np

from koopmankit import (
    CONTINUOUS,
    builtin,
    eigen_residual,
    eigenfunctions,
    format_polynomial,
    integrate,
    rotate_model,
    slow_manifold_lift_ct,
    slow_subspace_slope,
    verify_eigenfunction,
)

MU, LAM = -0.05, 1.0  # lam > 0: the manifold is repelling off-parabola

model = slow_manifold_lift_ct(MU, LAM, {2: 1.0})
system = builtin("quad_manifold", mu=MU, lam=LAM)
traj = integrate(system, [1.5, -1.0], t_end=10.0, dt=0.005)

print("eigenfunctions of the lift:")
for fn in eigenfunctions(model):
    res = verify_eigenfunction(fn, traj)
    print(f"  alpha = {fn.eigenvalue.real:+.2f}: "
          f"phi = {format_polynomial(fn.as_polynomial())}   "
          f"residual {res:.2e}")

# the x2 - b*x1^2 eigenfunction fixes the slow subspace's slope in the
# (y2, y3) plane: dy2/dy3 = 1/b = (lam - 2 mu)/lam
print(f"\nslow-subspace slope: {slow_subspace_slope(system)}")

# rotating the state coordinates rewrites the observables but cannot move
# the spectrum
base = np.sort_complex(np.linalg.eigvals(model.K))
print("\neigenvalues under coordinate rotations:")
for angle in (0.0, 0.3, np.pi / 4, 1.1):
    rotated = rotate_model(system, angle)
    eigs = np.sort_complex(np.linalg.eigvals(rotated.K))
    drift = np.max(np.abs(eigs - base))
    print(f"  angle {angle:5.3f}: {np.round(eigs.real, 10)}   "
          f"drift {drift:.1e}")
print("rotated library:", rotate_model(system, np.pi / 4).library.names)

# eigenfunctions need not be polynomial: exp(-1/x) satisfies
# d/dt exp(-1/x) = exp(-1/x) exactly along dx/dt = x^2; eigen_residual checks
# the relation on its values sampled along a trajectory
center = builtin("center_manifold")
print("\nexp(-1/x) as a unit-eigenvalue eigenfunction of dx/dt = x^2:")
for x0 in (0.25, 0.5):
    pre_blowup = integrate(center, [x0], t_end=0.8 / x0, dt=0.002)
    phi = np.exp(-1.0 / pre_blowup.states[:, 0])
    res = eigen_residual(phi, 1.0, pre_blowup.times, CONTINUOUS)
    print(f"  x0 = {x0}: residual {res:.2e}")
