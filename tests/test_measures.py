import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inclab.content import (dyadic_content, extract_katz_tao_subset,
                            smallest_delta_s_constant, smallest_katz_tao_constant)
from inclab.geometry import LINESPACE, PLANE, grid_shape, side_at_level
from inclab.experiments import RADIAL_E_WINDOW, RADIAL_F_WINDOW
from inclab.measures import (OFFSETS, AtomMeasure, CellFamilies,
                             LineParamMeasure, PlanarAtomMeasure, PointSet,
                             _check_generated,
                             _child_count_sequence, _pair_energy_direct,
                             _pair_energy_fft, _window_cells,
                             covering_number, frostman_constant,
                             generate_cantor_measure, generate_line_measure,
                             radial_projection_covering, riesz_energy_direct)


def unit_square_grid(k):
    """All delta-cells of [0,1)^2 at delta = 2^-k, equal weights, total 1."""
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    n = 2 ** k
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return PlanarAtomMeasure(delta, ix0 + ii.ravel(), ix0 + jj.ravel(),
                             np.full(n * n, 1.0 / (n * n)))


def four_corner_measure(k):
    """The four-corner Cantor set on [0,1)^2 at resolution 4^-k, equal
    weights: each of k steps keeps the four corner squares of side 1/4."""
    cells = np.zeros((1, 2), dtype=np.int64)
    for _ in range(k):
        cells = (4 * cells[:, None] + 3 * OFFSETS).reshape(-1, 2)
    ix0 = 2 * 4 ** k  # the column of x = 0 in the plane box [-2, 2)
    return PlanarAtomMeasure(4.0 ** -k, ix0 + cells[:, 0], ix0 + cells[:, 1],
                             np.full(4 ** k, 4.0 ** -k))


def test_frostman_single_atom():
    m = PlanarAtomMeasure(2.0 ** -6, [100], [100], [1.0])
    assert frostman_constant(m, 1.0) == pytest.approx(2.0 ** 6)


def test_frostman_uniform_s2():
    m = unit_square_grid(4)
    assert frostman_constant(m, 2.0) == pytest.approx(1.0)


def test_frostman_four_corner():
    m = four_corner_measure(5)
    assert len(m) == 4 ** 5
    c = frostman_constant(m, 1.0)
    assert 1.0 <= c <= 8.0


def test_frostman_empty_raises():
    m = PlanarAtomMeasure(2.0 ** -4, [], [], [])
    with pytest.raises(ValueError, match="empty measure"):
        frostman_constant(m, 1.0)


def test_frostman_root_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        m = PlanarAtomMeasure(2.0 ** -6,
                              rng.integers(0, 256, n), rng.integers(0, 256, n),
                              rng.uniform(0.1, 2.0, n))
        for s in (0.5, 1.0, 1.7):
            assert frostman_constant(m, s) >= m.total * 4.0 ** (-s) - 1e-12


def test_energy_single_atom():
    m = PlanarAtomMeasure(2.0 ** -6, [5], [5], [1.0])
    assert riesz_energy_direct(m, 1.0) == pytest.approx(64.0)


def test_energy_two_atoms():
    # distance 1 apart, weight 1/2 each: 2*(1/4)*64 + 2*(1/4)*1
    delta = 2.0 ** -6
    m = PlanarAtomMeasure(delta, [0, 64], [0, 0], [0.5, 0.5])
    assert riesz_energy_direct(m, 1.0) == pytest.approx(32.5)


def test_energy_uniform_matches_monte_carlo():
    m = unit_square_grid(7)
    val = riesz_energy_direct(m, 1.0)
    rng = np.random.default_rng(42)
    n = 10 ** 7
    x = rng.uniform(0, 1, (n, 2))
    y = rng.uniform(0, 1, (n, 2))
    d = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1])
    mc = float(np.mean(np.maximum(d, 2.0 ** -7) ** -1.0))
    assert abs(val - mc) / mc < 0.05


def lattice_measure(rng, root, level, n):
    """n distinct random cells of the root box at `level`, with random
    weights summing to one."""
    nx, ny = grid_shape(root, level)
    codes = rng.choice(nx * ny, n, replace=False)
    w = rng.uniform(0.01, 1.0, n)
    measure = PlanarAtomMeasure if root == PLANE else LineParamMeasure
    return measure(side_at_level(root, level), codes // ny, codes % ny,
                   w / w.sum())


def whole_block_energies(pts, w, s, truncs):
    """Reference: each 2048-row kernel block built whole from per-pair
    distances, then k @ w."""
    n = pts.shape[0]
    sums = {trunc: [] for trunc in truncs}
    for a in range(0, n, 2048):
        pa = pts[a:a + 2048]
        d = np.hypot(pa[:, 0:1] - pts[None, :, 0], pa[:, 1:2] - pts[None, :, 1])
        for trunc in truncs:
            k = np.maximum(d, trunc) ** -s
            sums[trunc].append(float(np.dot(w[a:a + 2048], k @ w)))
    return [math.fsum(sums[trunc]) for trunc in truncs]


def test_energy_fft_matches_blocked_sum():
    for seed, root in ((1, PLANE), (2, LINESPACE)):
        m = lattice_measure(np.random.default_rng(seed), root, 7, 2500)
        truncs = [m.resolution, 2.0 ** -4]
        for s in (0.5, 1.3):
            direct = _pair_energy_direct(m, s, truncs)
            assert direct == whole_block_energies(m.centers(), m.weights, s,
                                                  truncs)
            for a, b in zip(direct, _pair_energy_fft(m, s, truncs)):
                assert abs(a - b) / a < 1e-10


@pytest.mark.parametrize("n", [1, 7, 255, 257, 1943, 2049, 2301])
def test_energy_row_slices_match_whole_block_products(n):
    # kernel rows are gathered 256 at a time from one table per lattice
    # displacement; the energies must keep the bits of whole 2048-row
    # blocks of per-pair distances, which the pinned bench and desk
    # outputs hold
    rng = np.random.default_rng(n)
    truncs = [2.0 ** -k for k in range(5, 10)]
    for root in (PLANE, LINESPACE):
        m = lattice_measure(rng, root, 7, n)
        for s in (0.3, 1.0, 1.7):
            assert _pair_energy_direct(m, s, truncs) == whole_block_energies(
                m.centers(), m.weights, s, truncs)


def test_sparse_energy_box_is_bounded():
    # two atoms in opposite corners of the plane box at 2^-12: the direct
    # sum's table of 16,384^2 displacements is refused before it exists
    m = PlanarAtomMeasure(2.0 ** -12, [0, 2 ** 14 - 1], [0, 2 ** 14 - 1],
                          [1.0, 1.0])
    with pytest.raises(ValueError, match="16384 x 16384 cells, above "
                                         "MAX_ENERGY_GRID"):
        riesz_energy_direct(m, 1.0)


@pytest.mark.parametrize("trunc", [
    math.nan, math.inf, -math.inf, 0.0, -2.0 ** -6, [], np.array([]),
    [2.0 ** -5, math.nan], [math.inf], (2.0 ** -5, 0.0)])
def test_energy_rejects_bad_truncations(trunc):
    m = PlanarAtomMeasure(2.0 ** -6, [5, 9], [5, 5], [1.0, 1.0])
    with pytest.raises(ValueError, match="truncation"):
        riesz_energy_direct(m, 1.0, trunc=trunc)


def test_energy_monotone_in_s_small_diameter():
    # all pairwise distances at most 1: kernel grows with s
    m = generate_cantor_measure(1.0, 2.0 ** -7, seed=3,
                                window=(0.0, 0.5, 0.0, 0.5))
    vals = [riesz_energy_direct(m, s) for s in (0.3, 0.8, 1.4, 1.9)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_energy_weight_scaling():
    rng = np.random.default_rng(4)
    m = generate_cantor_measure(1.3, 2.0 ** -6, seed=5)
    for _ in range(5):
        c = float(rng.uniform(0.1, 10.0))
        a = riesz_energy_direct(m.scaled(c), 1.0)
        b = riesz_energy_direct(m, 1.0)
        assert abs(a - c * c * b) <= 1e-10 * a


def test_covering_number_grid():
    P = unit_square_grid(5).support()
    for k in (0, 1, 2, 3):
        assert covering_number(P, 2.0 ** -k) == 4 ** k
    single = PointSet(PLANE, 2.0 ** -5, [7], [9])
    for k in (0, 2, 5):
        assert covering_number(single, 2.0 ** -k) == 1
        assert covering_number(PointSet(PLANE, 2.0 ** -5, [], []), 2.0 ** -k) == 0


def test_covering_number_cantor():
    k = 5
    m = four_corner_measure(k)
    P = m.support()
    for j in range(k + 1):
        assert covering_number(P, 4.0 ** -j) == 4 ** j


def test_radial_projection_single_ray():
    # a horizontal row aligned with q's own y-coordinate: one direction
    delta = 2.0 ** -6
    q = (-1.5, 0.5)
    row = PointSet(PLANE, delta, np.arange(100, 140),
                   np.full(40, round((q[1] + 2.0) / delta - 0.5)))
    assert radial_projection_covering(q, row) == 1


def test_radial_projection_separated_directions():
    # k cells at well-separated directions around q
    delta = 2.0 ** -6
    q = (0.0, 0.0)
    k = 12
    ang = (np.arange(k) + 0.5) / k
    px = q[0] + 1.2 * np.cos(2 * math.pi * ang)
    py = q[1] + 1.2 * np.sin(2 * math.pi * ang)
    P = PointSet(PLANE, delta, np.floor((px + 2) / delta).astype(int),
                 np.floor((py + 2) / delta).astype(int))
    assert radial_projection_covering(q, P) == k


def test_radial_projection_grid_against_recount():
    delta = 2.0 ** -7
    P = unit_square_grid(7).support()
    q = (-1.5, 0.5)
    val = radial_projection_covering(q, P)
    # independent recount with sorted angles
    c = P.centers()
    ang = np.mod(np.arctan2(q[1] - c[:, 1], q[0] - c[:, 0]) / (2 * math.pi), 1.0)
    occupied = len(set(int(a / delta) for a in np.sort(ang)))
    assert val == occupied
    assert 0.05 * 2 ** 7 <= val <= 2 ** 7


def test_radial_projection_separation_error():
    P = PointSet(PLANE, 2.0 ** -5, [64], [64])  # cell near (0, 0)
    with pytest.raises(ValueError, match="separation violated"):
        radial_projection_covering((0.1, 0.1), P)


def test_radial_projection_viewpoint_array_matches_single_calls():
    # the desk radial fixture at 2^-8: E from every F-cell center at once
    delta = 2.0 ** -8
    E = generate_cantor_measure(0.8, delta, [2026, 10, 0],
                                window=RADIAL_E_WINDOW).support()
    F = generate_cantor_measure(1.5, delta, [2026, 10, 1],
                                window=RADIAL_F_WINDOW).support()
    qs = F.centers()
    counts = radial_projection_covering(qs, E)
    assert counts.shape == (len(F),) and counts.dtype.kind == "i"
    single = [radial_projection_covering((x, y), E) for x, y in qs.tolist()]
    assert counts.tolist() == single
    assert len(set(single)) > 1
    # one viewpoint too close makes the whole call raise
    near = np.concatenate([qs, E.centers()[:1] + 0.1])
    with pytest.raises(ValueError, match="separation violated"):
        radial_projection_covering(near, E)


def test_window_cells():
    levels, _, _ = _window_cells(PLANE, (-0.5, 0.5, -0.5, 0.5))
    assert levels.size == 4
    assert all(side_at_level(PLANE, lv) == 0.5 for lv in levels)
    levels, _, _ = _window_cells(PLANE, (-0.75, 0.5, -0.5, 0.5))
    area = sum(side_at_level(PLANE, lv) ** 2 for lv in levels)
    assert area == pytest.approx(1.25 * 1.0)
    for window, message in (((-3.0, 0.0, 0.0, 1.0), "not contained"),
                            ((0.1, 0.5, 0.0, 0.5), "not dyadic")):
        with pytest.raises(ValueError, match=message):
            _window_cells(PLANE, window)


def _cells_digest(m):
    return hashlib.sha256(m.ix.astype(np.int64).tobytes()
                          + m.iy.astype(np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("make,digest", [
    # a mixed tiling: squares of side 1/2 and 1/4, split to side 1/4
    pytest.param(lambda: generate_cantor_measure(0.8, 2.0 ** -7, [2026, 10, 0],
                                                 window=RADIAL_E_WINDOW),
                 "3ca4ec1d4d85e4e41f4bbbdbc2b04d55dca45457244e91790ef4363888a776d1",
                 id="radial-E-window"),
    pytest.param(lambda: generate_line_measure(1.5, 2.0 ** -7, 2026),
                 "af2ce8de29ad29048cb7a92e5304817889a40d436d7343b48802680bab397e8e",
                 id="line-default-window"),
    # the set that the generator's removed four-corner style built
    pytest.param(lambda: four_corner_measure(4),
                 "fabf58d89dfa095660a30c095bbddbee80c7587cf6687e49e337d9e32b581849",
                 id="four-corner"),
])
def test_generator_streams_are_pinned(make, digest):
    # the random streams are drawn per cell in window order; any change to
    # that order, or to the child order, moves every seeded measure
    assert _cells_digest(make()) == digest


def test_generate_s2_full_grid():
    m = generate_cantor_measure(2.0, 2.0 ** -5, seed=0,
                                window=(0.0, 1.0, 0.0, 1.0))
    assert len(m) == 4 ** 5
    np.testing.assert_allclose(m.weights, 4.0 ** -5)


def test_generate_atom_counts():
    m = generate_cantor_measure(0.5, 2.0 ** -10, seed=1,
                                window=(0.0, 1.0, 0.0, 1.0))
    assert 2 ** 5 <= len(m) <= 2 ** 6
    assert frostman_constant(m, 0.5) <= 16.0


def test_generate_line_measure_counts():
    m = generate_line_measure(1.5, 2.0 ** -8, seed=2)
    assert 2 ** 12 / 4 <= len(m) <= 2 ** 12 * 4
    assert frostman_constant(m, 1.5) <= 16.0


def test_generate_line_row_frostman():
    # dimension-1 measure concentrated on one angle column
    delta = 2.0 ** -6
    iy = np.arange(64, 128)
    m = LineParamMeasure(delta, np.full(64, 20), iy, np.full(64, 1.0 / 64))
    assert frostman_constant(m, 1.0) <= 4.0


def test_generate_deterministic():
    a = generate_cantor_measure(1.3, 2.0 ** -8, seed=7)
    b = generate_cantor_measure(1.3, 2.0 ** -8, seed=7)
    assert np.array_equal(a.ix, b.ix) and np.array_equal(a.iy, b.iy)
    assert np.array_equal(a.weights, b.weights)
    c = generate_cantor_measure(1.3, 2.0 ** -8, seed=8)
    assert not (np.array_equal(a.ix, c.ix) and np.array_equal(a.iy, c.iy))


def test_generate_infeasible():
    with pytest.raises(ValueError):
        generate_cantor_measure(2.5, 2.0 ** -5, seed=0)


def test_generator_postconditions_reject_doctored_measures():
    delta = 2.0 ** -5
    # all the mass in one cell: 1 / delta > 16 at s = 1
    atom = PlanarAtomMeasure(delta, [70], [70], [1.0])
    with pytest.raises(AssertionError, match="Frostman constant > 16"):
        _check_generated(atom, 1.0, delta, 1.0)
    # the full grid of the unit square read as a dimension-1 measure: its
    # Frostman constant is 1/4, but one unit square covers what the law
    # wants 32 of; the law is checked only up to the window side
    full = unit_square_grid(5)
    _check_generated(full, 2.0, delta, 1.0)
    _check_generated(full, 1.0, delta, 0.5)
    with pytest.raises(AssertionError, match="covering at rho=1.0 is 1, "
                                             "target 32"):
        _check_generated(full, 1.0, delta, 1.0)


def test_measure_merges_duplicates():
    m = PlanarAtomMeasure(2.0 ** -4, [3, 3, 5], [4, 4, 6], [0.25, 0.25, 0.5])
    assert len(m) == 2
    assert m.total == pytest.approx(1.0)


def test_cell_sets_are_read_only():
    # the dyadic walk, the content DP and multiscale_cover's searchsorted
    # read merged, sorted cells, so no cell set may change after it is built
    delta = 2.0 ** -5
    P = PointSet(PLANE, delta, [70, 64, 64, 70], [66, 64, 65, 66])
    m = PlanarAtomMeasure(delta, [70, 64, 64], [66, 64, 65], [1.0, 2.0, 3.0])
    store = CellFamilies(PLANE, delta, [64, 65, 70], [64, 64, 66], [0, 1, 1])
    sets = [P, m, store, CellFamilies.concatenate([store, P]),
            store.family(1), m.support(), *dyadic_content(P, 1.0).cover.values(),
            extract_katz_tao_subset(P, 1.0)]
    for cells in sets:
        arrays = [cells.ix, cells.iy, cells.starts]
        if isinstance(cells, AtomMeasure):
            arrays.append(cells.weights)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0] + 1


def test_child_count_products_stay_in_a_factor_two_band():
    # the products after j levels lie in [2/3, 2) * 2^(j*s), but do not
    # grow with s: at s = 1.0183 they fall below those at s = 1
    for branching, s_max in ((2, 1.0), (4, 2.0)):
        for s in np.linspace(s_max / 2000, s_max, 2000):
            counts = _child_count_sequence(float(s), 29, branching)
            gap = np.log2(np.cumprod(counts)) - s * np.arange(1, 30)
            assert -0.585 <= gap.min() and gap.max() < 1.0
    assert _child_count_sequence(1.0183, 4, 4) == [3, 2, 2, 1]
    assert _child_count_sequence(1.0, 4, 4) == [2, 2, 2, 2]


def test_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        PlanarAtomMeasure(2.0 ** -4, [0], [0], [0.0])
    with pytest.raises(ValueError):
        PlanarAtomMeasure(2.0 ** -4, [9999], [0], [1.0])


@st.composite
def weighted_cells(draw):
    """A small random measure on either root, at a random level."""
    root = draw(st.sampled_from([PLANE, LINESPACE]))
    level = draw(st.integers(0, 6))
    nx, ny = grid_shape(root, level)
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                          min_size=1, max_size=40))
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(cells),
                            max_size=len(cells)))
    measure = PlanarAtomMeasure if root == PLANE else LineParamMeasure
    return measure(side_at_level(root, level), [c[0] for c in cells],
                   [c[1] for c in cells], weights)


def ancestor_tallies(m):
    """{(level, ix, iy): [cell count, mass]} over every dyadic ancestor of every cell.

    Masses add up the cells in their stored order, as a per-level bincount does.
    """
    tallies = {}
    for a, b, w in zip(m.ix.tolist(), m.iy.tolist(), m.weights.tolist()):
        for up in range(m.level + 1):
            t = tallies.setdefault((m.level - up, a >> up, b >> up), [0, 0.0])
            t[0] += 1
            t[1] += w
    return tallies


@settings(max_examples=300, deadline=None)
@given(weighted_cells(), st.floats(0.05, 2.0))
def test_level_reductions_match_brute_force(m, s):
    P = m.support()
    tallies = ancestor_tallies(m)
    side = {lev: side_at_level(m.root, lev) for lev in range(m.level + 1)}
    assert frostman_constant(m, s) == max(
        mass / side[lev] ** s for (lev, _, _), (_, mass) in tallies.items())
    assert smallest_katz_tao_constant(P, s) == max(
        n / 2.0 ** ((m.level - lev) * s) for (lev, _, _), (n, _) in tallies.items())
    assert smallest_delta_s_constant(P, s) == max(
        n / (side[lev] ** s * len(P)) for (lev, _, _), (n, _) in tallies.items())
    for lev in range(m.level + 1):
        assert covering_number(P, side[lev]) == sum(1 for key in tallies if key[0] == lev)


truncations = st.lists(st.one_of(st.sampled_from([2.0 ** -k for k in range(8)]),
                                 st.floats(1e-3, 4.0)),
                       min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(weighted_cells(), st.floats(0.05, 1.95), truncations)
@example(PlanarAtomMeasure(2.0 ** -3, [1, 3], [2, 2], [1.0, 2.0]), 1.0,
         [2.0 ** -1, 2.0 ** -3, 2.0 ** -1])
def test_energy_truncation_sequence_matches_single_calls(m, s, truncs):
    # unsorted lists with repeats: one pass per kernel gives, bit for bit,
    # what one call per truncation gives (measures this small take the
    # direct path; the FFT kernel is called directly)
    assert riesz_energy_direct(m, s, trunc=truncs) == [
        riesz_energy_direct(m, s, trunc=x) for x in truncs]
    assert _pair_energy_fft(m, s, truncs) == [
        _pair_energy_fft(m, s, [x])[0] for x in truncs]
