"""Unitary frames of the flat cylinder family, two ways.

The flat family has a closed-form frame (a single matrix exponential), which
makes it the natural calibration target for the loop-group factorization
pipeline: we compute the frame numerically from the initial value, compare it
with the closed form on the unit circle, and read off the surface's constant
mean curvature from two marked circle points.
"""

import numpy as np

from cmcs3 import families, immersion, iwasawa

xi, marked = families.flat_xi(np.pi / 6)
print(f"marked points: lam0 = {marked.lam0:.6f}, lam1 = {marked.lam1:.6f}")
print(f"expected mean curvature H = cot(pi/3) = {marked.mean_curvature:.9f}")

lams = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
worst = 0.0
for z in (0.4, -0.8 + 0.3j, 1.2 - 0.9j):
    fp = iwasawa.frame(xi, z)
    ref = families.flat_frame(z, lams)
    dev = float(np.max(np.abs(fp.f.evaluate(lams) - ref)))
    print(
        f"z = {z}: |F_num - F_closed| = {dev:.3e}, "
        f"unitarity defect {fp.unitarity_defect:.3e}"
    )
    worst = max(worst, dev)
print(f"worst frame deviation: {worst:.3e}")

# Sample the immersion from the closed form and measure H and the Hopf
# coefficient from finite differences of the embedding.
sample = immersion.sample_surface(families.flat_frame, marked, (-0.4, 0.4, -0.4, 0.4), 33, 33)
h_exp, q_exp, _ = immersion.expected_invariants(marked)
h_num = float(np.nanmean(sample.interior(sample.h_num)))
q_num = complex(np.nanmean(sample.interior(sample.q_num)))
print(f"H: numeric {h_num:.6f} vs expected {h_exp:.6f}")
print(f"Q: numeric {q_num:.6f} vs expected {q_exp:.6f}")
print(f"conformality defect: {float(np.nanmax(sample.interior(sample.conformality))):.3e}")
