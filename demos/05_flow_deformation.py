"""Deforming spectral data while preserving the closing conditions.

A polynomial c of degree at most g+1 drives rates for (a, b) and the marked
points through a linear integrability identity.  The integrator below flows
minimal rotational data with the c that moves the Delta-value at the root of
b at unit rate, monitoring the closing conditions at every accepted step.
"""

import numpy as np

from cmcs3 import families, flow
from cmcs3 import spectral as sp

data, _ = families.revolution_family(families.RevolutionParams(0.0, 0.25))
print(f"initial a = {data.a.coeffs}, b = {data.b.coeffs}, kappa0 = {data.kappa0}")

c = flow.build_c_branch_target(data, 0)
print(f"branch-target polynomial c = {c.coeffs}")
rate = flow.delta_dot(data, c, 0.0)
print(f"Delta rate at the targeted root: {rate:.6f} (normalized to 1)")

scale = 0.1 / np.max(np.abs(c.coeffs))
c_small = flow.la.RealPolynomial(scale * c.coeffs)
traj, status = flow.flow_integrate(
    data,
    lambda d, t: c_small,
    0.1,
    dt0=2e-3,
    monitor_tol=1e-6,
    sample_times=list(np.linspace(0.02, 0.08, 4)),
)
print(f"flow completed: {status['completed']} (t reached {status['t_reached']:.3f})")
for state in traj:
    worst = max(state.monitors["res_C0"], state.monitors["res_C1"], state.monitors["res_B"])
    print(
        f"t = {state.t:.3f}: kappa0 = {state.data.kappa0:.6f}, "
        f"H = {state.data.mean_curvature:+.6f}, worst closing residual = {worst:.2e}"
    )

path = flow.trajectory_to_csv(traj, "revolution_flow.csv")
print(f"wrote {path}")

# The driver `cmcs3 flow --target-branch 0` runs: c is rebuilt at every stage
# of the new curve.  Along the exact flow Delta(beta(t)) = Delta(beta(0)) + t,
# so the supplier takes ln mu once, at t = 0.
delta0 = sp.delta(data, 0.0).real
traj, status = flow.flow_integrate(
    data, flow.branch_target_supplier(data, 0), 0.02, sample_times=[0.01]
)
print(f"target flow: {status['steps_accepted']} steps, {status['rhs_evals']} right-hand sides")
for state in traj:
    beta = flow.b_root_basis(state.data)[0].value
    moved = sp.delta(state.data, beta).real - delta0
    print(f"t = {state.t:.3f}: Delta at the root of b moved by {moved:.9f}")
