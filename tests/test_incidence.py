import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import incidence
from inclab.experiments import _auto_window
from inclab.geometry import LINESPACE, PLANE
from inclab.incidence import (SWEEP_DELTA_MAX, RatioTable, _line_sum,
                              fit_slope, incidences, inequality_sweep,
                              lemma4_upper_bound)
from inclab.measures import (LineParamMeasure, PlanarAtomMeasure,
                             generate_cantor_measure, generate_line_measure,
                             riesz_energy_direct)


def origin_atom(delta):
    k = round(2.0 / delta)
    return PlanarAtomMeasure(delta, [k], [k], [1.0])


def line_atom(delta, theta, r, weight=1.0):
    return LineParamMeasure(delta, [int(theta / delta)],
                            [int((r + 2.0) / delta)], [weight])


def brute_incidences(mu, nu, delta):
    # every atom is a candidate of every line
    pts = mu.centers()
    every = np.arange(len(mu))
    thetas, rs = nu.line_params()
    return math.fsum(
        float(v) * float(_line_sum(pts, every, mu.weights, th, r, delta))
        for v, th, r in zip(nu.weights, thetas, rs))


def test_incidence_line_through_origin():
    delta = 2.0 ** -6
    mu = origin_atom(delta)
    nu = line_atom(delta, 0.5, 0.0)
    for d in (2.0 ** -5, 2.0 ** -4, 2.0 ** -3):
        assert incidences(mu, nu, d) == pytest.approx(1.0)


def test_incidence_far_line():
    delta = 2.0 ** -6
    mu = origin_atom(delta)
    nu = line_atom(delta, 0.5, 0.5)
    assert incidences(mu, nu, 0.1) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incidence_brute_equals_bucketed_exactly(data):
    # up to 1000 atoms near the origin and 1000 tubes with angles in
    # [1/4, 3/4) and offsets in [-1, 1), all at resolution 2^-7; the drawn
    # seed places them, so few cells repeat and the candidate sets are large
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def atoms(x_range, y_range):
        size = data.draw(st.integers(1, 1000))
        return (rng.integers(*x_range, size), rng.integers(*y_range, size),
                rng.uniform(0.01, 1.0, size))

    mu = PlanarAtomMeasure(2.0 ** -7, *atoms((200, 312), (200, 312)))
    nu = LineParamMeasure(2.0 ** -7, *atoms((32, 96), (128, 384)))
    deltas = st.one_of(st.sampled_from([2.0 ** -k for k in range(3, 8)]),
                       st.floats(2.0 ** -7, 2.0 ** -3))
    for d in data.draw(st.lists(deltas, min_size=1, max_size=3)):
        assert incidences(mu, nu, d) == brute_incidences(mu, nu, d)


def test_incidence_monotone_in_delta():
    rng = np.random.default_rng(1)
    mu = PlanarAtomMeasure(2.0 ** -7, rng.integers(200, 312, 60),
                           rng.integers(200, 312, 60), rng.uniform(0.1, 1, 60))
    nu = LineParamMeasure(2.0 ** -7, rng.integers(32, 96, 60),
                          rng.integers(128, 384, 60), rng.uniform(0.1, 1, 60))
    vals = [incidences(mu, nu, d) for d in (2.0 ** -6, 2.0 ** -5, 2.0 ** -4)]
    assert vals[0] <= vals[1] <= vals[2]


def test_incidence_bilinear():
    delta = 2.0 ** -6
    mu = origin_atom(delta)
    nu = line_atom(delta, 0.5, 0.0)
    base = incidences(mu, nu, 0.05)
    assert incidences(mu.scaled(3.0), nu, 0.05) == pytest.approx(3.0 * base)
    assert incidences(mu, nu.scaled(7.0), 0.05) == pytest.approx(7.0 * base)


def test_incidence_resolution_precondition():
    mu = origin_atom(2.0 ** -5)
    nu = line_atom(2.0 ** -5, 0.5, 0.0)
    with pytest.raises(ValueError):
        incidences(mu, nu, 2.0 ** -6)


def test_lemma4_point_at_origin():
    # projections of the (near-)origin atom stay tiny, so the angle set is
    # the full 3-delta window around theta0 and the bound is 6
    delta = 0.01
    mu = origin_atom(2.0 ** -12)  # cell center within 4e-4 of the origin
    nu = line_atom(2.0 ** -12, 0.5, 0.0)
    bound = lemma4_upper_bound(mu, nu, delta)
    assert bound == pytest.approx(6.0, rel=1e-3)
    assert bound >= incidences(mu, nu, delta)


def test_lemma4_far_pair_zero():
    delta = 0.01
    mu = origin_atom(2.0 ** -7)
    nu = line_atom(2.0 ** -7, 0.5, 1.5)
    assert lemma4_upper_bound(mu, nu, delta) == 0.0
    assert incidences(mu, nu, delta) == 0.0


def test_lemma4_dominates_on_random_fixtures():
    rng = np.random.default_rng(2)
    for _ in range(60):
        delta = float(2.0 ** -rng.integers(4, 7))
        n, m = rng.integers(3, 12, 2)
        mu = PlanarAtomMeasure(2.0 ** -7, rng.integers(192, 320, n),
                               rng.integers(192, 320, n), rng.uniform(0.1, 1, n))
        nu = LineParamMeasure(2.0 ** -7, rng.integers(32, 96, m),
                              rng.integers(128, 384, m), rng.uniform(0.1, 1, m))
        bound = lemma4_upper_bound(mu, nu, delta)
        inc = incidences(mu, nu, delta)
        assert bound * 1.01 >= inc


def test_lemma4_theta_margin():
    mu = origin_atom(2.0 ** -7)
    nu = line_atom(2.0 ** -7, 0.001, 0.0)
    with pytest.raises(ValueError, match="theta margin"):
        lemma4_upper_bound(mu, nu, 0.01)


def test_sweep_far_atoms_all_zero():
    delta = 2.0 ** -7
    k = round(2.0 / delta)
    mu = PlanarAtomMeasure(delta, [k + round(0.5 / delta)], [k], [1.0])
    nu = line_atom(delta, 0.5, -0.9)
    table = inequality_sweep(mu, nu, 1.5, [2.0 ** -5, 2.0 ** -6, 2.0 ** -7])
    assert all(r["ratio"] == 0.0 for r in table.rows)
    assert table.slope == 0.0


def test_sweep_scaling_invariance():
    mu = generate_cantor_measure(1.5, 2.0 ** -7, seed=1)
    nu = generate_line_measure(1.5, 2.0 ** -7, seed=2)
    deltas = [2.0 ** -5, 2.0 ** -6]
    a = inequality_sweep(mu, nu, 1.5, deltas)
    b = inequality_sweep(mu.scaled(3.0), nu.scaled(3.0), 1.5, deltas)
    for ra, rb in zip(a.rows, b.rows):
        assert rb["ratio"] == pytest.approx(ra["ratio"], rel=1e-9)


def test_sweep_acceptance_style_fixture():
    mu = generate_cantor_measure(1.5, 2.0 ** -9, seed=3)
    nu = generate_line_measure(1.5, 2.0 ** -9, seed=4)
    table = inequality_sweep(mu, nu, 1.5, [2.0 ** -k for k in range(5, 10)])
    assert len(table.rows) == 5
    assert table.slope <= 0.1
    summ = table.summary()
    assert summ["pass"]


@pytest.mark.parametrize("seed", [0, 2026])
@pytest.mark.parametrize("t", [1.3, 1.7])
def test_abstract_energy_pairing_passes_the_sweep_rules(t, seed):
    # the source abstract bounds the incidences by
    # delta * sqrt(I_t(mu) * I_{3-t}(nu)), the reverse of inequality_sweep's
    # pairing; on the quick incidence-inequality fixtures its ratios pass
    # the same slope and growth rules
    deltas = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    res = deltas[-1]
    mu = generate_cantor_measure(t, res, seed=[seed, 5, 0],
                                 window=_auto_window(PLANE, t, res))
    nu = generate_line_measure(t, res, seed=[seed, 6, 0],
                               window=_auto_window(LINESPACE, t, res))
    rows = [{"delta": d, "ratio": incidences(mu, nu, d) / (d * math.sqrt(
        riesz_energy_direct(mu, t, trunc=d)
        * riesz_energy_direct(nu, 3.0 - t, trunc=d)))} for d in deltas]
    ratios = [r["ratio"] for r in rows]
    summ = RatioTable(t, rows, fit_slope([1.0 / d for d in deltas],
                                         ratios)).summary()
    assert min(ratios) > 0.0
    assert summ["pass_slope"] and summ["pass_growth"]


@pytest.mark.parametrize("seed", [0, 2026])
@pytest.mark.parametrize("t", [1.3, 1.5, 1.7])
def test_incidences_over_delta_are_flat_at_finite_energy(t, seed, monkeypatch):
    # with mu of dimension t + 0.1 and nu of dimension 3 - t + 0.1 both
    # energies of the abstract stay finite, so it bounds I_delta / delta
    # with no delta^-eps loss: the log-log slope over three scales is flat,
    # and a delta^-0.1 factor on the incidences shows in it
    deltas = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    res = deltas[-1]
    dim_mu, dim_nu = t + 0.1, 3.0 - t + 0.1
    mu = generate_cantor_measure(dim_mu, res, seed=[seed, 5, 0],
                                 window=_auto_window(PLANE, dim_mu, res))
    nu = generate_line_measure(dim_nu, res, seed=[seed, 6, 0],
                               window=_auto_window(LINESPACE, dim_nu, res))

    def slope():
        return fit_slope([1.0 / d for d in deltas],
                         [incidence.incidences(mu, nu, d) / d for d in deltas])

    assert abs(slope()) <= 0.05
    exact = incidence.incidences
    monkeypatch.setattr(incidence, "incidences",
                        lambda mu, nu, d: exact(mu, nu, d) * d ** -0.1)
    assert abs(slope()) > 0.05


def test_sweep_preconditions():
    mu = generate_cantor_measure(1.5, 2.0 ** -6, seed=5)
    nu = generate_line_measure(1.5, 2.0 ** -6, seed=6)
    with pytest.raises(ValueError, match="unit ball"):
        bad = PlanarAtomMeasure(2.0 ** -6, [10], [10], [1.0])  # near (-2,-2)
        inequality_sweep(bad, nu, 1.5, [2.0 ** -5])
    with pytest.raises(ValueError, match="angle support"):
        bad = LineParamMeasure(2.0 ** -6, [1], [128], [1.0])
        inequality_sweep(mu, bad, 1.5, [2.0 ** -5])
    with pytest.raises(ValueError, match="deltas"):
        inequality_sweep(mu, nu, 1.5, [0.25])
    with pytest.raises(ValueError, match="t must"):
        inequality_sweep(mu, nu, 2.5, [2.0 ** -5])
    assert SWEEP_DELTA_MAX >= 2.0 ** -5


def test_fit_slope():
    xs = [2.0, 4.0, 8.0]
    ys = [1.0, 2.0, 4.0]  # slope 1 in log-log
    assert fit_slope(xs, ys) == pytest.approx(1.0)
    assert fit_slope([1.0], [2.0]) == 0.0
    assert fit_slope(xs, [0.0, 0.0, 0.0]) == 0.0
