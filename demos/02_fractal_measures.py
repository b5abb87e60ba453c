"""Fractal measure generators and their diagnostics.

Measures live on dyadic grids; a dimension parameter controls how many
children survive each subdivision.  Diagnostics: ball-growth (Frostman)
constants, covering numbers, and Riesz energies computed two independent
ways (direct pair sums and the weighted Fourier integral).
"""

import numpy as np

from inclab.measures import (PlanarAtomMeasure, covering_number,
                             frostman_constant, generate_cantor_measure,
                             generate_line_measure, riesz_energy_direct)
from inclab.spectral import riesz_energy_fourier

delta = 2.0 ** -8

print("== planar generators across dimensions ==")
for s in (0.6, 1.0, 1.4, 1.8):
    m = generate_cantor_measure(s, delta, seed=1)
    print(f"  dim {s}: {len(m):6d} atoms,  Frostman constant "
          f"{frostman_constant(m, s):6.3f}")

print("\n== the four-corner construction (dimension 1) ==")
# four times over, keep the four corner squares of side 1/4 of each cell
corners = np.array([[0, 0], [0, 3], [3, 0], [3, 3]])
cells = np.zeros((1, 2), dtype=int)
for _ in range(4):
    cells = (4 * cells[:, None] + corners).reshape(-1, 2)
ix0 = 2 * 4 ** 4  # the cell column of x = 0 in the plane box [-2, 2)
m = PlanarAtomMeasure(4.0 ** -4, ix0 + cells[:, 0], ix0 + cells[:, 1],
                      np.full(len(cells), 4.0 ** -4))
print(f"  {len(m)} atoms at resolution 4^-4 (expected {4 ** 4})")
P = m.support()
for j in range(5):
    rho = 4.0 ** -j
    print(f"  covering at rho = 4^-{j}: {covering_number(P, rho):5d} "
          f"(dimension-1 law predicts {4 ** j})")

print("\n== line-space measures ==")
nu = generate_line_measure(1.5, delta, seed=2)
print(f"  dim 1.5 on [1/4,3/4]x[-1,1]: {len(nu)} atoms, "
      f"Frostman {frostman_constant(nu, 1.5):.3f}")

print("\n== Riesz energies: direct pair sums vs the Fourier side ==")
print("  s     dim   direct        fourier       ratio")
for s in (0.5, 1.0, 1.5):
    for dim in (s, min(s + 0.4, 2.0)):
        m = generate_cantor_measure(dim, 2.0 ** -7, seed=3)
        d = riesz_energy_direct(m, s)
        f = riesz_energy_fourier(m, s)
        print(f"  {s:.1f}   {dim:.1f}   {d:<12.5g}  {f:<12.5g}  {f / d:.3f}")
print("  (the two routes agree up to an absolute constant)")
