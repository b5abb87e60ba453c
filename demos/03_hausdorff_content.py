"""Dyadic Hausdorff content by exact dynamic programming.

The content of a cell set at exponent s is the cheapest antichain of dyadic
squares covering it, charging side^s per square.  The optimal cover adapts
to the set's structure: sparse parts are covered by their own cells, dense
parts by one coarse square.
"""

import numpy as np

from inclab.content import (dyadic_content, extract_katz_tao_subset,
                            multiscale_cover, smallest_katz_tao_constant)
from inclab.geometry import PLANE
from inclab.measures import PointSet, generate_cantor_measure

k = 6
delta = 2.0 ** -k
ix0 = round(2.0 / delta)

print("== a row of cells: the exponent decides the optimal scale ==")
row = PointSet(PLANE, delta, np.arange(ix0, ix0 + 2 ** k), np.full(2 ** k, ix0))
for s in (0.5, 1.0, 1.5, 2.0):
    res = dyadic_content(row, s)
    sides = sorted(fam.resolution for fam in res.cover.values())
    print(f"  s = {s}: content {res.value:.6f}  cover of "
          f"{sum(map(len, res.cover.values()))} squares with sides {sides}")

print("\n== mixed configuration: one dense square plus stray cells ==")
cells = [(ix0 + i, ix0 + j) for i in range(16) for j in range(16)]
cells += [(3 + 11 * i, 7 + 13 * i) for i in range(10)]
arr = np.array(cells)
P = PointSet(PLANE, delta, arr[:, 0], arr[:, 1])
res = dyadic_content(P, 2.0)
print(f"  content at s=2: {res.value:.6f} "
      f"(= 2^-4 + 10 delta^2 = {2.0 ** -4 + 10 * delta ** 2:.6f})")
for fam in multiscale_cover(P, 2.0).cover.values():
    print(f"  scale {fam.resolution}: {len(fam)} cover squares")

print("\n== non-concentrated subsets of a fractal set ==")
m = generate_cantor_measure(1.3, 2.0 ** -7, seed=4)
P = m.support()
for s in (0.8, 1.3):
    sub = extract_katz_tao_subset(P, s)
    content = dyadic_content(P, s).value
    print(f"  s = {s}: kept {len(sub)}/{len(P)} cells, "
          f"non-concentration constant {smallest_katz_tao_constant(sub, s):.2f}, "
          f"count * delta^s / content = "
          f"{len(sub) * P.resolution ** s / content:.2f}")
