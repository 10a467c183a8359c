"""Optimal control through the lift: LQR gains for a nonlinear system.

Designing LQR on the linearization throws away the x1^2 term that actually
drives x2 far from the origin. Designing the same quadratic-cost problem on
the lifted linear system keeps that term — the controller sees the manifold
— and the closed-loop cost drops to roughly a third of the linearized
design's. Near the origin the nonlinearity is negligible and the two
controllers agree, as they must.
"""

import numpy as np

from koopmankit import (
    builtin,
    compare_lqr_kooc,
    slow_manifold_lift_ct,
)

system = builtin("kooc_demo")  # mu = -0.1, lam = 1, input enters on x2
model = slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0})
q, r = np.eye(2), [[1.0]]

comp = compare_lqr_kooc(system, model, q, r, x0=(-5.0, 5.0), horizon=50.0)

print("gains:")
print("  linearized LQR:", np.round(comp.lqr_gain.ravel(), 10))
print("  lifted design: ", np.round(comp.kooc_controller.gain.ravel(), 10))
print("the extra entry weights the x1^2 observable: the controller cancels")
print("the manifold's drive on x2 instead of fighting its effect later.\n")

print(f"final cost, linearized LQR: {comp.lqr_cost[-1]:10.1f}")
print(f"final cost, lifted design:  {comp.kooc_cost[-1]:10.1f}")
print(f"cost ratio (applied inputs):            {comp.ratio:.4f}")
print(f"cost ratio (gain-substituted integrand): {comp.ratio_script:.4f}")

# where the trajectories actually differ
i = np.argmax(np.abs(comp.lqr_traj.states[:, 1] - comp.kooc_traj.states[:, 1]))
t = comp.lqr_traj.times[i]
print(f"\nlargest x2 separation at t = {t:.2f}: "
      f"LQR {comp.lqr_traj.states[i, 1]:+.3f} vs "
      f"lifted {comp.kooc_traj.states[i, 1]:+.3f}")

# sanity: near the origin the nonlinear term vanishes and so does the gap
near = compare_lqr_kooc(system, model, q, r, x0=(-0.01, 0.01), horizon=50.0)
print(f"\nnear-origin cost ratio: {near.ratio:.4f}  (both designs optimal "
      "where the\nsystem is effectively linear)")
