"""Exact law of the weighted typical cell volume: moments, intensity
scaling, and the circumradius distribution.

The headline sanity check: in the plane at intensity 1, Delaunay triangles
tile with intensity 2, so the typical triangle has mean area exactly 1/2.
"""

import numpy as np

from pdvol import ModelParams, radius_cdf, volume_moment

print("Mean area of the typical planar cell (gamma = 1):",
      volume_moment(ModelParams(2, -1.0, 1.0), 1.0))
print("... and at gamma = 2 (halves):", volume_moment(ModelParams(2, -1.0, 2.0), 1.0))

print("\nMoments E V^s of the typical cell across dimensions (gamma = 1):")
print(f"{'n':>4} {'E V':>12} {'E V^2':>12} {'E V^0.5':>12}")
for n in (2, 3, 5, 10, 25, 50):
    p = ModelParams(n, -1.0, 1.0)
    print(f"{n:>4} {volume_moment(p, 1.0):>12.4e} {volume_moment(p, 2.0):>12.4e} "
          f"{volume_moment(p, 0.5):>12.4e}")

print("\nWeight changes the law: relative intensity of weighted selections")
# gamma_mu / gamma_typical is the (mu+1)-st moment of the typical cell
typical = ModelParams(2, -1.0, 1.0)
for mu in (-1.5, -1.0, 0.0, 1.0, 3.0):
    print(f"  mu = {mu:+.1f}: gamma_mu / gamma_typical = {volume_moment(typical, mu + 1.0):.6f}")

print("\nCircumradius CDF of the typical planar cell (closed form):")
p = ModelParams(2, -1.0, 1.0)
for t in np.linspace(0.2, 1.2, 6):
    print(f"  P(R <= {t:.1f}) = {float(radius_cdf(p, t)):.6f}")
