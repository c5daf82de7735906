"""The flat minimal torus: periods, monodromy, and a closed mesh.

With marked points at +-i the flat family becomes minimal, and the frame is
doubly periodic up to sign.  We verify both periods through the monodromy,
then export a torus mesh by sampling one period rectangle and stitching the
wrap-around edges.
"""

import numpy as np

from cmcs3 import families, immersion, iwasawa

xi, marked = families.flat_xi()  # t0 = pi/4
w1, w2 = families.clifford_periods()
print(f"periods: {w1:.9f} and {w2:.9f}")

for tau in (w1, w2):
    rep = immersion.periodicity_check(xi, marked, tau)
    print(
        f"tau = {tau}: passes = {rep['passes']}, sign = {rep['sign']:+.0f}, "
        f"residual = {rep['residual']:.3e}"
    )

# The monodromy at the marked points is -identity; its trace is -2.
loop, delta = iwasawa.monodromy(xi, w1)
for lam in (1j, -1j):
    d = complex(delta(np.array([lam]))[0])
    print(f"Delta({lam}) = {d:.6f}")

# A period-sized rectangle; stitching both directions closes the torus.
nx = 49
sample = immersion.sample_surface(families.flat_frame, marked, (0.0, w1, 0.0, w1), nx, nx)
path = immersion.export_mesh(
    sample, "clifford_torus.obj", stitch_x=True, stitch_y=True, pole=[1.0, 1.0, 1.0, 1.0]
)
print(f"wrote {path} ({(nx - 1) * (nx - 1)} quads, Euler characteristic 0)")
