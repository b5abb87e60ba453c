import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inclab import experiments, incidence
from inclab.experiments import _auto_window
from inclab.geometry import LINESPACE, PLANE, project
from inclab.incidence import (SWEEP_DELTA_MAX, fit_slope, incidences,
                              inequality_sweep, lemma4_upper_bound,
                              sweep_summary)
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
    # every pair is tested, and each line sums its incident weights with
    # np.sum in atom order
    pts = mu.centers()
    thetas, rs = nu.centers().T
    return math.fsum(
        float(v) * float(np.sum(mu.weights[np.abs(project(pts, th) - r) <= delta]))
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


def quarter_turn_rows(rng, mu):
    """mu with tied atoms added on the two columns beside x = 0, at 2^-7
    resolution, and lines at theta = 1/4, the angle of the first column of
    a line-parameter grid at resolution 1/2.  There e_theta is (6e-17, 1),
    so an atom at x = +-2^-8 projects to its y exactly (the cross term is
    below half an ulp of y, save in the rows at y = +-2^-8, where it
    crosses a binade and which are left out), and the two atoms of each
    added row tie."""
    rows = rng.choice(np.r_[200:255, 257:312], rng.integers(1, 40))
    ix = np.concatenate([mu.ix, np.full(rows.size, 255),
                         np.full(rows.size, 256)])
    mu = PlanarAtomMeasure(mu.resolution, ix,
                           np.concatenate([mu.iy, rows, rows]),
                           rng.uniform(0.01, 1.0, ix.size))
    size = rng.integers(1, 20)
    nu = LineParamMeasure(0.5, np.zeros(size, dtype=int),
                          rng.integers(0, 8, size), rng.uniform(0.01, 1.0, size))
    proj = project(mu.centers(), 0.25)
    assert np.unique(proj).size < len(mu)  # the fixture holds ties
    x, y = np.abs(mu.centers()).T
    column = (x == 2.0 ** -8) & (y > 2.0 ** -8)
    assert np.array_equal(proj[column], mu.centers()[column, 1])
    return mu, nu, column


def edge_deltas(rng, mu, nu, atoms):
    """Deltas that put a pair exactly on its tube's edge: one with
    fl(p - r) = -delta and one with fl(p - r) = +delta, each of a randomly
    chosen pair of a line and one of the `atoms` (a mask of mu's atoms) with
    delta between both resolutions and 2, where such a pair exists."""
    thetas, rs = nu.centers().T
    diff = project(mu.centers(), thetas[:, None]) - rs[:, None]
    low = max(mu.resolution, nu.resolution)
    deltas = []
    for side in (diff < 0, diff > 0):
        line, atom = np.nonzero(side & atoms & (np.abs(diff) >= low)
                                & (np.abs(diff) <= 2.0))
        if line.size:
            k = rng.integers(line.size)
            # the brute test's own scalar projection sits on the edge
            p = mu.centers()[atom[k]]
            edge = project(p, thetas[line[k]]) - rs[line[k]]
            assert edge == diff[line[k], atom[k]]
            deltas.append(float(abs(edge)))
    return deltas


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_incidence_brute_equals_bucketed_exactly(data):
    # up to 1000 atoms near the origin and 1000 tubes with angles in
    # [1/4, 3/4) and offsets in [-1, 1), all at resolution 2^-7; the drawn
    # seed places them, so few cells repeat and the runs are long.  At
    # times two more deltas put a pair exactly on the lower and on the
    # upper edge of its tube; at times the lines all run at theta = 1/4 and
    # the atoms hold tied rows, with deltas that put tied rows on the
    # edges.  mu's weights are random, or all equal so that incidences
    # counts hits.  The deltas, one of them twice, go in one at a time and
    # as one sequence
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def atoms(x_range, y_range):
        size = data.draw(st.integers(1, 1000))
        return (rng.integers(*x_range, size), rng.integers(*y_range, size),
                rng.uniform(0.01, 1.0, size))

    mu = PlanarAtomMeasure(2.0 ** -7, *atoms((200, 312), (200, 312)))
    nu = LineParamMeasure(2.0 ** -7, *atoms((32, 96), (128, 384)))
    deltas = st.one_of(st.sampled_from([2.0 ** -k for k in range(3, 8)]),
                       st.floats(2.0 ** -7, 2.0 ** -3))
    ds = data.draw(st.lists(deltas, min_size=1, max_size=3))
    edges = np.ones(len(mu), dtype=bool)
    fixture = data.draw(st.sampled_from(["random", "edges", "quarter turn"]))
    if fixture == "quarter turn":
        mu, nu, edges = quarter_turn_rows(rng, mu)
        ds = [d + 0.5 for d in ds]  # nu's resolution is 1/2
    if data.draw(st.booleans()):
        mu = PlanarAtomMeasure(mu.resolution, mu.ix, mu.iy,
                               np.full(len(mu), mu.weights[0]))
    if fixture != "random":
        ds += edge_deltas(rng, mu, nu, edges)
    ds.append(ds[0])
    want = [brute_incidences(mu, nu, d) for d in ds]
    assert [incidences(mu, nu, d) for d in ds] == want
    assert incidences(mu, nu, ds) == want


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
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            incidences(mu, nu, delta)


@pytest.mark.parametrize("deltas, match", [
    ([], "no delta"), ([math.nan], "finite"), ([2.0 ** -4, math.inf], "finite"),
    ([2.0 ** -4, 2.0 ** -6], "resolutions")])
def test_incidence_delta_sequence_checked_before_any_work(deltas, match,
                                                          monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the delta checks")

    monkeypatch.setattr(incidence, "_incidence_masses", no_work)
    mu = origin_atom(2.0 ** -5)
    nu = line_atom(2.0 ** -5, 0.5, 0.0)
    with pytest.raises(ValueError, match=match):
        incidences(mu, nu, deltas)


def test_incidence_sequence_form():
    mu = origin_atom(2.0 ** -6)
    nu = line_atom(2.0 ** -6, 0.5, 0.0)
    assert incidences(mu, nu, (0.05, 0.1)) == [1.0, 1.0]
    assert incidences(mu, nu, np.array([0.05])) == [1.0]
    assert isinstance(incidences(mu, nu, np.float64(0.05)), float)
    empty = LineParamMeasure(2.0 ** -6, [], [], [])
    assert incidences(mu, empty, [0.05, 0.1]) == [0.0, 0.0]


def test_sweep_calls_incidences_once_per_fixture(monkeypatch):
    calls = []
    exact = incidence.incidences

    def counted(mu, nu, deltas):
        calls.append(list(deltas))
        return exact(mu, nu, deltas)

    monkeypatch.setattr(incidence, "incidences", counted)
    deltas = [2.0 ** -6, 2.0 ** -5]
    rows, _ = experiments.exp_incidence_sweep(seed=0, t_values=(1.3, 1.7),
                                              n_seeds=1, deltas=deltas)
    assert calls == [[2.0 ** -5, 2.0 ** -6]] * 2
    mu = generate_cantor_measure(1.3, 2.0 ** -6, seed=[0, 5, 0],
                                 window=_auto_window(PLANE, 1.3, 2.0 ** -6))
    nu = generate_line_measure(1.3, 2.0 ** -6, seed=[0, 6, 0],
                               window=_auto_window(LINESPACE, 1.3, 2.0 ** -6))
    assert [r["incidence"] for r in rows[:2]] == [
        exact(mu, nu, d) for d in calls[0]]


def test_lemma4_point_at_origin():
    # projections of the (near-)origin atom stay tiny, so the angle set is
    # the full 3-delta window around theta0 and the bound is 6
    delta = 0.01
    mu = origin_atom(2.0 ** -12)  # cell center within 4e-4 of the origin
    nu = line_atom(2.0 ** -12, 0.5, 0.0)
    bound, = lemma4_upper_bound([(mu, nu, delta)])
    assert bound == pytest.approx(6.0, rel=1e-3)
    assert bound >= incidences(mu, nu, delta)


def interval_measure_one_line(theta0, r0, pts, delta):
    """The majorant's per-point angle measure for one line, as a loop over
    lines computed it: samples, a bisection per crossing, and each point's
    inside segments added in angle order."""
    def inside(ts, p):
        return ((ts - theta0) ** 2 + (project(p, ts) - r0) ** 2
                <= 9.0 * delta ** 2)

    n = pts.shape[0]
    ts = theta0 + 3.0 * delta * np.linspace(-1.0, 1.0,
                                            incidence.MAJORANT_SAMPLES)
    hit = inside(ts, pts[:, None, :])
    pi_idx, ki = np.nonzero(hit[:, 1:] != hit[:, :-1])
    lo, hi = ts[ki].copy(), ts[ki + 1].copy()
    lo_in = inside(lo, pts[pi_idx])
    for _ in range(incidence.MAJORANT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = inside(mid, pts[pi_idx]) == lo_in
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    roots = 0.5 * (lo + hi)
    counts = np.bincount(pi_idx, minlength=n)
    first = np.cumsum(counts) - counts
    left = np.insert(roots, first, ts[0])
    right = np.insert(roots, first + counts, ts[-1])
    owner = np.repeat(np.arange(n), counts + 1)
    keep = inside(0.5 * (left + right), pts[owner])
    return np.bincount(owner[keep], weights=(right - left)[keep], minlength=n)


def line_kinds(rng, kinds, pts, delta, far):
    """(thetas, rs) arrays of one line per entry of `kinds`: anywhere;
    offset `far`, so no crossing; through the origin; and near-tangent to a
    point's projection curve at its peak, where the inside interval can be
    narrower than a sample step.  Angles keep a delta margin from the seam."""
    lines = []
    for kind in kinds:
        theta, r = rng.uniform(0.25, 0.75), rng.uniform(-1.0, 1.0)
        if kind == "far":
            r = far
        elif kind == "origin":
            r = 0.0
        elif kind == "tangent":
            x, y = pts[rng.integers(len(pts))]
            theta = math.atan2(y, x) / (2.0 * math.pi) % 1.0
            gap = 1.0 - 10.0 ** -float(rng.integers(2, 13))
            r = math.hypot(x, y) + rng.choice([-3.0, 3.0]) * delta * gap
            if not delta <= theta <= 1.0 - delta:
                theta, r = (theta + 0.5) % 1.0, -r  # the same line
        lines.append((theta, r))
    return np.array(lines).reshape(-1, 2).T


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interval_measure_rows_equal_one_line_loop(data):
    # one to three blocks, each with its own delta, up to 13 points in
    # [-1, 1]^2, at times one at the origin, and up to 13 lines of the four
    # `line_kinds`; the blocks' crossings share one bisection
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for _ in range(data.draw(st.integers(1, 3))):
        delta = data.draw(st.sampled_from([2.0 ** -k for k in range(3, 8)]))
        n = data.draw(st.integers(0, 13))
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        if n and data.draw(st.booleans()):
            pts[0] = 0.0
        kinds = ["any", "far", "origin"] + (["tangent"] if n else [])
        thetas, rs = line_kinds(
            rng, data.draw(st.lists(st.sampled_from(kinds), min_size=1,
                                    max_size=13)), pts, delta, 5.0)
        blocks.append((thetas, rs, pts, delta))
    measures = list(incidence._interval_measures(blocks))
    assert len(measures) == len(blocks)
    for (thetas, rs, pts, delta), batched in zip(blocks, measures):
        assert batched.shape == (len(thetas), len(pts))
        for k in range(len(thetas)):
            one = interval_measure_one_line(float(thetas[k]), float(rs[k]),
                                            pts, delta)
            assert batched[k].tobytes() == one.tobytes()


def lemma4_one_line_loop(mu, nu, delta):
    """A fixture's majorant as a loop over its single lines computed it."""
    total = 0.0
    for v, (theta, r) in zip(nu.weights, nu.centers()):
        meas = interval_measure_one_line(float(theta), float(r), mu.centers(),
                                         delta)
        total += float(v) * float(np.dot(mu.weights, meas))
    return total / delta


def random_fixtures(seed):
    """A fixed 13-atom, 13-line fixture at delta 2^-4, then up to four more,
    with an empty nu after the first at times.  The drawn fixtures take delta
    from 2^-4 to 2^-7 and up to 13 atoms and lines of the four `line_kinds`,
    at resolution 2^-20, so near-tangent lines stay near their tangency."""
    rng = np.random.default_rng(5)
    fixtures = [(
        PlanarAtomMeasure(2.0 ** -7, rng.integers(224, 288, 13),
                          rng.integers(224, 288, 13), rng.uniform(0.1, 1, 13)),
        LineParamMeasure(2.0 ** -7, rng.integers(32, 96, 13),
                         rng.integers(224, 288, 13), rng.uniform(0.1, 1, 13)),
        2.0 ** -4)]
    rng = np.random.default_rng(seed)
    res = 2.0 ** -20
    for _ in range(rng.integers(0, 5)):
        delta = 2.0 ** -float(rng.integers(4, 8))
        n = int(rng.integers(1, 14))
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        mu = PlanarAtomMeasure(res, *np.floor((pts + 2.0) / res).T.astype(int),
                               rng.uniform(0.1, 1.0, n))
        kinds = rng.choice(["any", "far", "origin", "tangent"],
                           rng.integers(1, 14))
        thetas, rs = line_kinds(rng, kinds, mu.centers(), delta, 1.9)
        nu = LineParamMeasure(res, np.floor(thetas / res).astype(int),
                              np.floor((rs + 2.0) / res).astype(int),
                              rng.uniform(0.1, 1.0, len(kinds)))
        fixtures.append((mu, nu, delta))
    if rng.integers(2):
        fixtures.insert(1, (fixtures[0][0], LineParamMeasure(res, [], [], []),
                            2.0 ** -6))
    return fixtures


@pytest.mark.parametrize("block", [incidence.MAJORANT_BLOCK, 1])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(3)
def test_lemma4_equals_one_line_loop(block, seed):
    # the fixtures are one bisection group by default; with blocks of one
    # line each, every block with a crossing is a group of its own.  Either
    # way each bound is its fixture's loop over single lines
    fixtures = random_fixtures(seed)
    want = [lemma4_one_line_loop(*fixture) for fixture in fixtures]
    assert want[0] > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "MAJORANT_BLOCK", block)
        got = lemma4_upper_bound(fixtures)
    assert got == want


def test_lemma4_far_pair_zero():
    delta = 0.01
    mu = origin_atom(2.0 ** -7)
    nu = line_atom(2.0 ** -7, 0.5, 1.5)
    assert lemma4_upper_bound([(mu, nu, delta)]) == [0.0]
    assert incidences(mu, nu, delta) == 0.0


@settings(max_examples=39, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(2)
def test_lemma4_dominates_on_random_fixtures(seed):
    rng = np.random.default_rng(seed)
    delta = float(2.0 ** -rng.integers(4, 7))
    n, m = rng.integers(3, 12, 2)
    mu = PlanarAtomMeasure(2.0 ** -7, rng.integers(192, 320, n),
                           rng.integers(192, 320, n), rng.uniform(0.1, 1, n))
    nu = LineParamMeasure(2.0 ** -7, rng.integers(32, 96, m),
                          rng.integers(128, 384, m), rng.uniform(0.1, 1, m))
    bound, = lemma4_upper_bound([(mu, nu, delta)])
    inc = incidences(mu, nu, delta)
    assert bound * 1.01 >= inc


def test_lemma4_empty_tubes_zero():
    mu = origin_atom(2.0 ** -7)
    nu = LineParamMeasure(2.0 ** -7, [], [], [])
    assert lemma4_upper_bound([(mu, nu, 0.01)]) == [0.0]
    assert incidences(mu, nu, 0.01) == 0.0
    assert lemma4_upper_bound([]) == []


def test_lemma4_theta_margin(monkeypatch):
    # a bad fixture anywhere in the sequence stops the call before any
    # fixture is measured
    def no_work(*args):
        raise AssertionError("a fixture was measured")

    monkeypatch.setattr(incidence, "_inside", no_work)
    mu = origin_atom(2.0 ** -7)
    good = (mu, line_atom(2.0 ** -7, 0.5, 0.0), 0.01)
    with pytest.raises(ValueError, match="theta margin"):
        lemma4_upper_bound([good, (mu, line_atom(2.0 ** -7, 0.001, 0.0), 0.01)])
    for delta in (math.nan, math.inf, 0.0, -0.01):
        with pytest.raises(ValueError, match="finite and positive"):
            lemma4_upper_bound([good, good[:2] + (delta,), good])


def test_sweep_far_atoms_all_zero():
    delta = 2.0 ** -7
    k = round(2.0 / delta)
    mu = PlanarAtomMeasure(delta, [k + round(0.5 / delta)], [k], [1.0])
    nu = line_atom(delta, 0.5, -0.9)
    rows, summ = inequality_sweep(mu, nu, 1.5, [2.0 ** -5, 2.0 ** -6, 2.0 ** -7])
    assert all(r["ratio"] == 0.0 for r in rows)
    assert summ["slope"] == 0.0


def test_sweep_scaling_invariance():
    mu = generate_cantor_measure(1.5, 2.0 ** -7, seed=1)
    nu = generate_line_measure(1.5, 2.0 ** -7, seed=2)
    deltas = [2.0 ** -5, 2.0 ** -6]
    a, _ = inequality_sweep(mu, nu, 1.5, deltas)
    b, _ = inequality_sweep(mu.scaled(3.0), nu.scaled(3.0), 1.5, deltas)
    for ra, rb in zip(a, b):
        assert rb["ratio"] == pytest.approx(ra["ratio"], rel=1e-9)


def test_sweep_acceptance_style_fixture():
    mu = generate_cantor_measure(1.5, 2.0 ** -9, seed=3)
    nu = generate_line_measure(1.5, 2.0 ** -9, seed=4)
    rows, summ = inequality_sweep(mu, nu, 1.5, [2.0 ** -k for k in range(5, 10)])
    assert len(rows) == 5
    assert summ["slope"] <= 0.1
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
    summ = sweep_summary(t, rows)
    assert min(r["ratio"] for r in rows) > 0.0
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


@pytest.mark.parametrize("deltas", [
    [], [math.nan], [2.0 ** -5, math.nan], [0.0], [-2.0 ** -6],
    [2.0 ** -5, -2.0 ** -6], [math.inf]])
def test_sweep_rejects_bad_deltas_before_any_work(deltas, monkeypatch):
    mu = generate_cantor_measure(1.5, 2.0 ** -6, seed=5)
    nu = generate_line_measure(1.5, 2.0 ** -6, seed=6)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the delta checks")

    monkeypatch.setattr(incidence, "incidences", no_work)
    monkeypatch.setattr(incidence, "riesz_energy_direct", no_work)
    with pytest.raises(ValueError, match="deltas"):
        inequality_sweep(mu, nu, 1.5, deltas)


def test_fit_slope():
    xs = [2.0, 4.0, 8.0]
    ys = [1.0, 2.0, 4.0]  # slope 1 in log-log
    assert fit_slope(xs, ys) == pytest.approx(1.0)
    assert fit_slope([1.0], [2.0]) == 0.0
    assert fit_slope(xs, [0.0, 0.0, 0.0]) == 0.0
