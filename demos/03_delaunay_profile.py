"""A rotational cylinder: isospectrality and the elliptic metric profile.

The rotational initial value with radii (a_r, b_r) produces a surface whose
conformal factor is an elliptic function of the profile coordinate.  Two
checks run here: the determinant polynomial of the transported field is
constant over the surface (isospectrality), and the numeric conformal factor
reproduces 2 b_r dn(2 b_r x | 1 - a_r^2/b_r^2) over one period.
"""

import numpy as np

from cmcs3 import families, immersion, iwasawa, loop_algebra as la

params = families.DelaunayParams(0.3, 0.5)
xi = families.delaunay_xi(params)
print(f"radii (a_r, b_r) = (0.3, 0.5), modulus m = {params.m:.4f}")

a0 = np.asarray(la.det_polynomial(xi)[0])
print(f"determinant polynomial coefficients: {np.real_if_close(a0)}")

drift = 0.0
for z in (0.3, 0.2 - 0.4j, -0.5 + 0.25j):
    zeta = iwasawa.killing_field(xi, z)
    a1 = np.asarray(la.det_polynomial(zeta)[0])
    drift = max(drift, float(np.max(np.abs(a1 - a0))))
print(f"isospectral drift over sample points: {drift:.3e}")

# Conformal-factor profile along the imaginary axis over one period.  The
# numeric profile starts half a period into the closed form, so the sampling
# window is offset accordingly.
marked = immersion.MarkedPoints(1j, -1j)
per = families.delaunay_period(params)
print(f"profile period: {per:.6f}")
h = 0.01
y0 = per / 2.0
sample = immersion.sample_surface(
    immersion.TiledFrames(xi), marked, (-2 * h, 2 * h, y0 - 2 * h, y0 + per + 2 * h), 5, 5
)
mid = len(sample.x) // 2
worst = 0.0
for iy in range(1, len(sample.y) - 1):
    x_prof = sample.y[iy] - y0
    if not 0.0 <= x_prof <= per:
        continue
    ref = families.delaunay_v(x_prof, params)
    worst = max(worst, abs(float(sample.v[iy, mid]) - ref))
print(f"max profile deviation from the elliptic closed form: {worst:.3e}")

path = immersion.export_mesh(sample, "delaunay_strip.obj")
print(f"wrote {path}")
