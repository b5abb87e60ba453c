"""Weighted point-tube incidences against the energy bound.

The incidence mass pairs a planar measure with a measure on lines: every
(point, line) pair with the point inside the delta-tube contributes its
weight product.  The source abstract bounds this by
delta * sqrt(I_t(mu) * I_{3-t}(nu)); the sweep here pairs the energies the
other way, dividing by delta * sqrt(I_{3-t}(mu) * I_t(nu)), and tracks the
ratio across scales, which should stay bounded (log-log slope near zero or
below).  The test suite checks the abstract's pairing on quick fixtures.
"""

from inclab.incidence import incidences, inequality_sweep, lemma4_upper_bound
from inclab.measures import (generate_cantor_measure, generate_line_measure,
                             PlanarAtomMeasure, LineParamMeasure)

print("== single pair sanity ==")
delta = 2.0 ** -6
k = round(2.0 / delta)
mu1 = PlanarAtomMeasure(delta, [k], [k], [1.0])        # atom at the origin
nu1 = LineParamMeasure(delta, [round(0.5 / delta)], [k], [1.0])  # line through it
print(f"  incidence mass: {incidences(mu1, nu1, 0.05)}")
bound, = lemma4_upper_bound([(mu1, nu1, 0.05)])  # one bound per fixture
print(f"  angular-average upper bound: {bound:.3f}")

print("\n== ratio sweep for a dimension-1.5 pair ==")
mu = generate_cantor_measure(1.5, 2.0 ** -9, seed=1)
nu = generate_line_measure(1.5, 2.0 ** -9, seed=2)
rows, summ = inequality_sweep(mu, nu, 1.5, [2.0 ** -j for j in range(5, 10)])
print("  delta      incidence   energy_mu   energy_nu   ratio")
for r in rows:
    print(f"  {r['delta']:<9.5f}  {r['incidence']:<10.4g}  "
          f"{r['energy_mu']:<10.4g}  {r['energy_nu']:<10.4g}  {r['ratio']:.4f}")
print(f"  fitted log-log slope: {summ['slope']:+.4f}  "
      f"(bounded ratios: {'yes' if summ['pass'] else 'no'})")
