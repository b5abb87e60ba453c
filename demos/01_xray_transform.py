"""A tour of the grid X-ray transform and its Fourier-side behaviour.

The transform integrates a planar function over every line (theta, r); its
adjoint averages a line-space function over directions.  Three classical
facts are checked numerically: the chord profile of a disk, the projection
slice identity, and the half-order Sobolev smoothing.
"""

import numpy as np

from inclab.spectral import (CylinderGrid, PlanarGrid, adjoint_xray,
                             canonical_cutoff, cylinder_inner, plane_inner,
                             slice_identity_residual, smoothing_ratio, xray)

n = 256

print("== disk chord profile ==")
disk = PlanarGrid.from_function(n, lambda X, Y: (X ** 2 + Y ** 2 <= 1.0).astype(float))
Rd = xray(disk)
r = Rd.rs()
for target in (0.0, 0.6, 0.9):
    j = int(np.argmin(np.abs(r - target)))
    print(f"  Rg(0, {r[j]:+.3f}) = {Rd.values[0, j]:.4f}   "
          f"chord = {2 * np.sqrt(max(0.0, 1 - r[j] ** 2)):.4f}")

print("\n== Gaussian: line integrals are 1d marginals ==")
gauss = PlanarGrid.from_function(n, lambda X, Y: np.exp(-np.pi * (X ** 2 + Y ** 2)))
Rg = xray(gauss)
err = np.abs(Rg.values - np.exp(-np.pi * r ** 2)[None, :]).max()
print(f"  max |Rg(theta, r) - exp(-pi r^2)| = {err:.2e}")

print("\n== projection slice identity ==")
res = slice_identity_residual(gauss, Rg, sample_size=256, seed=0)
print(f"  max |(Rg)~(theta, rho) - g_hat(rho e_theta)| = {res:.2e} on a "
      "random frequency sample")

print("\n== adjoint duality ==")
rng = np.random.default_rng(1)
f = CylinderGrid(np.cos(2 * np.pi * np.arange(n) / n)[:, None]
                 * np.exp(-(Rg.rs() ** 2) / 0.18)[None, :])
lhs = plane_inner(adjoint_xray(f), gauss)
rhs = cylinder_inner(f, Rg)
print(f"  <R*f, g> = {lhs:.10f}")
print(f"  <f, Rg>  = {rhs:.10f}")

print("\n== half-order smoothing: norm-gain ratios ==")
chi = canonical_cutoff(n)
s_values = (-0.5, -0.25, 0.0, 0.25, 0.5)
by_width = []
for w in (0.08, 0.15, 0.25):
    g = PlanarGrid.from_function(
        n, lambda X, Y: np.exp(-((X - 0.2) ** 2 + Y ** 2) / (2 * w * w)))
    by_width.append(smoothing_ratio(g, s_values, chi))
for k, s in enumerate(s_values):
    ratios = [r[k] for r in by_width]
    print(f"  s = {s:+.2f}: gain ratios {['%.3f' % v for v in ratios]}")
print("  (bounded ratios across widths witness the smoothing estimate)")
