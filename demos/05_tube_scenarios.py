"""Three scenario harnesses built from measures, tubes, and contents.

1. A fractal measure with a direction-set tube family through every support
   cell: the content of the union family stays bounded below across scales.
2. A separated pair joined by all tubes from one side to the other: some
   tube slices the far set in a set of substantial content.
3. Radial projections: from some viewpoint in one set, the other set spans
   many distinct direction intervals, stably under passing to subsets.
"""

from inclab.measures import generate_cantor_measure
from inclab.scenarios import (build_furstenberg, build_slicing,
                              furstenberg_content, radial_check,
                              slicing_tube_content)

print("== direction-set tube families ==")
for d in (2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
    cfg = build_furstenberg(0.8, 1.4, d, seed=1)
    v = furstenberg_content(cfg, sigma=0.7)
    n_tubes = len(cfg.union_cells())
    print(f"  delta = {d:<8.5f} union of {n_tubes:6d} tube cells, "
          f"content {v:.4f}")
print("  (no decay across scales)")

print("\n== tube slices of a separated fractal pair ==")
for d in (2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
    cfg = build_slicing(0.6, 1.6, 1.3, d, seed=2)
    value, _, tube_cell = slicing_tube_content(cfg)
    print(f"  delta = {d:<8.5f} C = {cfg.C:.3f}  "
          f"best slice content {value:.4f} at tube {tube_cell}")

print("\n== radial projections ==")
delta = 2.0 ** -8
E = generate_cantor_measure(0.8, delta, seed=[3, 0],
                            window=(-0.75, 0.5, -0.5, 0.5)).support()
F = generate_cantor_measure(1.5, delta, seed=[3, 1],
                            window=(0.75, 1.0, -0.125, 0.125)).support()
_, rep = radial_check(E, F, sigma=0.6, delta=delta, s=0.8, t=1.5, seed=3)
print(f"  |E| = {len(E)}, |F| = {len(F)}, threshold delta^-0.6 = "
      f"{rep['threshold']:.1f}")
print(f"  best viewpoint {rep['best_q']}: min covering over subsets "
      f"{rep['best_covering']}")
print(f"  fraction of viewpoints above threshold: {rep['fraction']:.2f}")
