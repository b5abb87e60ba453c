import math
import re

import numpy as np
import pytest

from inclab import scenarios
from inclab.content import dyadic_content, extract_katz_tao_subset
from inclab.geometry import LINESPACE, PLANE, grid_shape, projection_range
from inclab.measures import (CellFamilies, PointSet, _child_count_sequence,
                             generate_cantor_measure,
                             radial_projection_covering)
from inclab.scenarios import (F_WINDOW, _check_families, build_furstenberg,
                              build_slicing, furstenberg_content,
                              radial_check, slicing_tube_content,
                              tube_cell_members)

from golden import environment


def test_furstenberg_densest_case():
    # full-dimensional measure with all directions: family sizes near 1/delta
    delta = 2.0 ** -6
    cfg = build_furstenberg(1.0, 2.0, delta, seed=0)
    sizes = cfg.tube_cells.sizes()
    assert sizes.size == len(cfg.mu)
    target = 1.0 / delta
    assert all(target / 4 <= sz <= 4 * target for sz in sizes)


def test_furstenberg_generic_fixture():
    delta = 2.0 ** -7
    cfg = build_furstenberg(0.5, 1.6, delta, seed=1)
    # direction counts near 2^(7 * 0.5), within the stated factor
    sizes = cfg.tube_cells.sizes()
    target = 2.0 ** 3.5
    assert all(target / 8 <= sz <= 8 * target for sz in sizes)


def test_furstenberg_determinism():
    a = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=5)
    b = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=5)
    for name in ("ix", "iy", "starts"):
        assert np.array_equal(getattr(a.tube_cells, name),
                              getattr(b.tube_cells, name))


def test_furstenberg_content_monotone_in_sigma():
    cfg = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=2)
    sigmas = (0.1, 0.3, 0.5, 0.7)
    vals = [furstenberg_content(cfg, s) for s in sigmas]
    # content at a smaller exponent dominates up to the root-side factor
    for (s1, v1), (s2, v2) in zip(zip(sigmas, vals), zip(sigmas[1:], vals[1:])):
        assert v1 >= v2 * 4.0 ** (s1 - s2) - 1e-12


def test_furstenberg_single_point_lower_bound():
    # one support cell: the parameter set is an s-dimensional direction graph
    delta = 2.0 ** -7
    cfg = build_furstenberg(0.7, 1.9, delta, seed=3)
    fam = cfg.tube_cells.family(0)  # the family of the first mu-cell
    sigma = 0.5
    content = dyadic_content(fam, sigma + 1.0).value
    extracted = extract_katz_tao_subset(fam, sigma + 1.0)
    assert content >= len(extracted) * delta ** (sigma + 1.0) / 64.0


def test_furstenberg_validation():
    with pytest.raises(ValueError):
        build_furstenberg(0.2, 1.5, 2.0 ** -5, seed=0)  # s <= 2 - t
    with pytest.raises(ValueError):
        build_furstenberg(0.5, 0.9, 2.0 ** -5, seed=0)  # t <= 1
    cfg = build_furstenberg(0.6, 1.6, 2.0 ** -5, seed=0)
    with pytest.raises(ValueError):
        furstenberg_content(cfg, 0.7)  # sigma >= s


def test_slicing_full_grid_mass():
    # full-dimensional far set: tubes toward it capture all its mass
    cfg = build_slicing(0.6, 2.0, 1.3, 2.0 ** -6, seed=4)
    assert cfg.C <= 1.12


def test_slicing_separation_and_determinism():
    cfg = build_slicing(0.6, 1.6, 1.3, 2.0 ** -6, seed=6)
    e = cfg.nu.centers()
    f = cfg.mu.centers()
    assert f[:, 0].min() - e[:, 0].max() >= 1.1
    again = build_slicing(0.6, 1.6, 1.3, 2.0 ** -6, seed=6)
    for name in ("ix", "iy", "starts"):
        assert np.array_equal(getattr(cfg.tubes, name),
                              getattr(again.tubes, name))
    assert cfg.C == again.C


def test_slicing_witness_reproducible():
    cfg = build_slicing(0.6, 1.6, 1.3, 2.0 ** -6, seed=7)
    value, _, (c, row) = slicing_tube_content(cfg)
    assert value > 0
    hit = tube_cell_members(cfg, np.array([c]), np.array([row]))[0]
    members = PointSet(PLANE, cfg.delta, cfg.mu.ix[hit], cfg.mu.iy[hit])
    again = dyadic_content(members, cfg.tau - 1.0).value
    assert again == value


def reference_slicing_tubes(cfg):
    """The tube store, F ranges and C of build_slicing, one E-cell and one
    angle column at a time, from the configuration's own nu and mu."""
    delta = cfg.delta
    ncol, ny = grid_shape(LINESPACE, cfg.tubes.level)

    def column_ranges(pts):
        cols = np.arange(ncol)[:, None]
        return projection_range(pts, cols * delta, (cols + 1) * delta)

    corners = np.array([[F_WINDOW[0], F_WINDOW[2]], [F_WINDOW[0], F_WINDOW[3]],
                        [F_WINDOW[1], F_WINDOW[2]], [F_WINDOW[1], F_WINDOW[3]]])
    corner_lo, corner_hi = column_ranges(corners)
    win_lo = corner_lo.min(axis=1)
    win_hi = corner_hi.max(axis=1)
    f_lo, f_hi = column_ranges(cfg.mu.centers())
    e_lo, e_hi = column_ranges(cfg.nu.centers())
    tube_ix, tube_iy, family, masses = [], [], [], []
    for k in range(len(cfg.nu)):
        covered = np.zeros(len(cfg.mu), dtype=bool)
        for c in range(ncol):
            k_lo = max(math.floor((e_lo[c, k] - 2.0 * delta + 2.0) / delta), 0)
            k_hi = min(math.floor((e_hi[c, k] + 2.0 * delta + 2.0) / delta),
                       ny - 1)
            ks = np.arange(k_lo, k_hi + 1)
            r0 = ks * delta - 2.0
            ks = ks[(r0 <= win_hi[c]) & (r0 + delta >= win_lo[c])]
            if not ks.size:
                continue
            tube_ix.append(np.full(ks.size, c))
            tube_iy.append(ks)
            family.append(np.full(ks.size, k))
            y_klo = np.floor((f_lo[c] + 2.0) / delta).astype(np.int64)
            y_khi = np.floor((f_hi[c] + 2.0) / delta).astype(np.int64)
            covered |= (np.searchsorted(ks, y_khi, side="right")
                        > np.searchsorted(ks, y_klo, side="left"))
        masses.append(float(cfg.mu.weights[covered].sum()))
    tubes = CellFamilies(LINESPACE, delta, np.concatenate(tube_ix),
                         np.concatenate(tube_iy), np.concatenate(family))
    return tubes, f_lo, f_hi, 1.0 / min(masses)


def assert_matches_reference(cfg):
    tubes, f_lo, f_hi, C = reference_slicing_tubes(cfg)
    for name in ("ix", "iy", "starts"):
        assert np.array_equal(getattr(cfg.tubes, name), getattr(tubes, name))
    assert np.array_equal(cfg.f_lo, f_lo) and np.array_equal(cfg.f_hi, f_hi)
    assert cfg.C == C


@pytest.mark.parametrize("seed,level", [(0, 5), (1, 5), (2, 6), (3, 6),
                                        (4, 7), (5, 7), (6, 8)])
def test_build_slicing_matches_reference_loop(seed, level):
    assert_matches_reference(
        build_slicing(0.6, 1.6, 1.3, 2.0 ** -level, seed=[seed, 9]))


# the full F grid, a thin s + t margin, a small s, and E with more cells
# than F (64 against 48)
@pytest.mark.parametrize("s,t,seed,level", [(1.0, 2.0, 0, 6), (0.9, 1.2, 1, 6),
                                            (0.3, 1.9, 2, 5),
                                            (1.0, 1.0183, 0, 7)])
def test_build_slicing_matches_reference_loop_over_pairs(s, t, seed, level):
    assert_matches_reference(
        build_slicing(s, t, (1.0 + t) / 2.0, 2.0 ** -level, seed=seed))


def test_slicing_table_guard_counts_e_cells(monkeypatch):
    # 128 angle columns x 64 E-cells, above the 128 x 48 F-cell table
    monkeypatch.setattr(scenarios, "MAX_SLICING_TABLE", 128 * 50)
    with pytest.raises(ValueError, match="E-cell row interval table would "
                                         "have 8192 entries"):
        build_slicing(1.0, 1.0183, 1.009, 2.0 ** -7, seed=0)


def fresh_tube_hits(cfg, c, row):
    """The F-cells met by the tube of cell (c, row), with 2 delta halfwidth
    slack, from a fresh projection_range over the cell's angle column."""
    delta = cfg.delta
    lo, hi = projection_range(cfg.mu.centers(), c * delta, (c + 1) * delta)
    return ((lo <= (row + 1) * delta - 2.0 + 2.0 * delta)
            & (hi >= row * delta - 2.0 - 2.0 * delta))


@pytest.mark.parametrize("seed,level,has_empty", [([0, 9], 5, False),
                                                  (7, 6, False), (8, 7, True)])
def test_slicing_witness_matches_loop_over_families(seed, level, has_empty):
    # strict > keeps the first maximum in (E-cell, tube cell) order, among
    # hundreds of tied pairs; a tube meeting no F-cell counts 0
    cfg = build_slicing(0.6, 1.6, 1.3, 2.0 ** -level, seed=seed)
    # one mask call over the tube cells of every family, in store order
    hits = tube_cell_members(cfg, cfg.tubes.ix, cfg.tubes.iy)
    assert hits.shape == (len(cfg.tubes), len(cfg.mu))
    best = (0.0, None, None)
    values = []
    for k in range(cfg.tubes.starts.size):
        fam = cfg.tubes.family(k)
        for tc in zip(fam.ix.tolist(), fam.iy.tolist()):
            hit = fresh_tube_hits(cfg, *tc)
            assert np.array_equal(hits[len(values)], hit)
            members = PointSet(PLANE, cfg.delta, cfg.mu.ix[hit],
                               cfg.mu.iy[hit])
            values.append(dyadic_content(members, cfg.tau - 1.0).value
                          if len(members) else 0.0)
            if values[-1] > best[0]:
                best = (values[-1], (int(cfg.nu.ix[k]), int(cfg.nu.iy[k])), tc)
    res = slicing_tube_content(cfg)
    assert res == best
    assert type(res[0]) is float
    assert values.count(best[0]) > 100
    assert (0.0 in values) == has_empty


def test_tube_cell_members_match_fresh_projection_ranges():
    # the stored per-column F ranges give the members that a fresh
    # projection_range over the tube cell's angle column gives, and one mask
    # call over all tube cells gives each cell's members in its row
    cfg = build_slicing(0.6, 1.6, 1.3, 2.0 ** -6, seed=7)
    delta = cfg.delta
    fpts = cfg.mu.centers()
    tube_cells = sorted(set(zip(cfg.tubes.ix.tolist(), cfg.tubes.iy.tolist())))
    assert len(tube_cells) > 100
    cols, rows = np.array(tube_cells).T
    hits = tube_cell_members(cfg, cols, rows)
    assert hits.shape == (len(tube_cells), len(cfg.mu))
    for (c, kcell), hit in zip(tube_cells, hits):
        lo, hi = projection_range(fpts, c * delta, (c + 1) * delta)
        assert np.array_equal(cfg.f_lo[c], lo)
        assert np.array_equal(cfg.f_hi[c], hi)
        assert np.array_equal(hit, fresh_tube_hits(cfg, c, kcell))


def direction_cantor_one_cell(counts, rng):
    """One cell's direction set, as a loop over cells built it: one draw
    per level that keeps one child of two."""
    lows = np.array([0.25])
    width = 0.5
    for mj in counts:
        width *= 0.5
        if mj == 2:
            lows = np.concatenate([lows, lows + width])
        else:
            lows = lows + rng.integers(0, 2, size=lows.size) * width
    return lows + 0.5 * width


# picks (fair bits per cell): 6, 0, 18, then 16, 14, 8 and 0 for the
# child-count sequences, then 1, 3 (the last output's high half unused) and
# 128 (64 outputs)
@pytest.mark.parametrize("counts", [
    [1] * 6, [2] * 6, [2, 1, 2, 2, 1, 1, 2],
    *(_child_count_sequence(s, 7, 2) for s in (0.3, 0.5, 0.8, 1.0)),
    [1, 2, 2, 2, 2, 2], [1, 1, 1, 2, 2], [2] * 6 + [1, 1]])
# entropy (the seed's words, then ix and iy) of 3 to 5 words: 2^32 + 5 and
# [2026, 8], the shape exp_furstenberg passes, fill SeedSequence's 4-word
# pool, and 2^70 + 1 and [[1, 2], 3] run past it
@pytest.mark.parametrize("seed", [0, 3, 2026, 2 ** 32 + 5, 2 ** 70 + 1,
                                  [2026, 8], [[1, 2], 3]])
def test_direction_cantor_rows_equal_one_cell_loop(counts, seed):
    keys = [(ix, iy) for ix in (0, 1, 4, 2 ** 16 - 1)
            for iy in (0, 7, 100, 2 ** 16 - 1)]
    rows = scenarios._direction_cantor(counts, seed, keys)
    assert rows.shape == (len(keys), math.prod(counts))
    for row, (ix, iy) in zip(rows, keys):
        one = direction_cantor_one_cell(
            counts, np.random.default_rng([seed, ix, iy]))
        assert row.tobytes() == one.tobytes(), (
            f"cell ({ix}, {iy}) at seed {seed} differs from the Generator "
            f"stream of {environment()}")


@pytest.mark.parametrize("seed", [-1, [2026, -8]])
def test_direction_cantor_rejects_negative_seed_like_numpy(seed):
    with pytest.raises(ValueError):
        np.random.default_rng([seed, 0, 0])
    with pytest.raises(ValueError):
        scenarios._direction_cantor([1] * 3, seed, [(0, 0)])


def test_furstenberg_check_names_first_bad_family():
    cfg = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=5)
    fams = cfg.tube_cells
    pts = cfg.mu.centers()
    keys = list(zip(cfg.mu.ix.tolist(), cfg.mu.iy.tolist()))

    def check(replace):
        """Check the families with those k in `replace` swapped for (ix, iy)."""
        parts = [replace.get(k, (fams.family(k).ix, fams.family(k).iy))
                 for k in range(fams.starts.size)]
        store = CellFamilies(LINESPACE, cfg.delta,
                             np.concatenate([ix for ix, _ in parts]),
                             np.concatenate([iy for _, iy in parts]),
                             np.repeat(np.arange(len(parts)),
                                       [len(ix) for ix, _ in parts]))
        _check_families(store, pts, keys, cfg.s, cfg.delta)

    def dense(k):
        # a single cell: delta^-s = 2^4.8 > 16
        return fams.family(k).ix[:1], fams.family(k).iy[:1]

    def stray(k):
        # the family of the cell farthest from cell k, off k's graph
        far = int(np.argmax(np.hypot(*(pts - pts[k]).T)))
        return fams.family(far).ix, fams.family(far).iy

    check({})
    for first, second, message in (
            (dense, stray, "too concentrated for exponent 0.8"),
            (stray, dense, "strays off its graph")):
        with pytest.raises(AssertionError) as err:
            check({3: first(3), 7: second(7)})
        assert str(err.value) == f"tube family at cell {keys[3]} {message}"
        with pytest.raises(AssertionError, match=re.escape(str(keys[7]))):
            check({7: second(7)})
    # a family both too concentrated and off its graph reports concentration
    ix, iy = stray(3)
    with pytest.raises(AssertionError, match="too concentrated"):
        check({3: (ix[:1], iy[:1])})


def test_slicing_validation():
    with pytest.raises(ValueError):
        build_slicing(0.3, 1.5, 1.2, 2.0 ** -5, seed=0)  # s + t <= 2
    with pytest.raises(ValueError):
        build_slicing(0.6, 1.6, 1.7, 2.0 ** -5, seed=0)  # tau >= t


def test_radial_ray_and_separated_directions():
    delta = 2.0 ** -6
    # handled in measures tests for the covering primitive; here the report
    E = generate_cantor_measure(0.8, delta, seed=[8, 0],
                                window=(-0.75, 0.5, -0.5, 0.5)).support()
    F = generate_cantor_measure(1.5, delta, seed=[8, 1],
                                window=(0.75, 1.0, -0.125, 0.125)).support()
    rows, summary = radial_check(E, F, 0.6, delta, s=0.8, t=1.5, seed=8)
    assert summary["threshold"] == pytest.approx(delta ** -0.6)
    assert summary["best_covering"] >= 1
    assert 0.0 <= summary["fraction"] <= 1.0
    assert len(rows) == min(len(F), 256)
    # the winner is consistent with its row
    best_rows = [r["covering_min"] for r in rows]
    assert summary["best_covering"] == max(best_rows)


def test_radial_check_rows_match_single_viewpoint_calls():
    # each row's counts are those of one-viewpoint calls on E and on the
    # seeded half-subsets of E, as Python ints
    delta = 2.0 ** -6
    E = generate_cantor_measure(0.8, delta, seed=[8, 0],
                                window=(-0.75, 0.5, -0.5, 0.5)).support()
    F = generate_cantor_measure(1.5, delta, seed=[8, 1],
                                window=(0.75, 1.0, -0.125, 0.125)).support()
    rows, _ = radial_check(E, F, 0.6, delta, s=0.8, t=1.5, seed=8)
    subsets = []
    for j in range(scenarios.RADIAL_SUBSETS):
        pick = np.sort(np.random.default_rng([8, 202, j])
                       .choice(len(E), size=len(E) // 2, replace=False))
        subsets.append(PointSet(PLANE, delta, E.ix[pick], E.iy[pick]))
    for row in rows:
        q = (row["q_x"], row["q_y"])
        full = radial_projection_covering(q, E)
        assert type(row["covering_full"]) is int
        assert type(row["covering_min"]) is int
        assert row["covering_full"] == full
        assert row["covering_min"] == min(
            [full] + [radial_projection_covering(q, sub) for sub in subsets])
    # some subset sees fewer directions than E, so the minimum matters
    assert any(r["covering_min"] < r["covering_full"] for r in rows)


def test_radial_degenerate_rejection():
    delta = 2.0 ** -8
    E = generate_cantor_measure(0.8, delta, seed=[9, 0],
                                window=(-0.75, 0.5, -0.5, 0.5)).support()
    row = PointSet(PLANE, delta, np.arange(704, 904), np.full(200, 716))
    with pytest.raises(ValueError, match="single line"):
        radial_check(E, row, 0.6, delta, s=0.8, t=1.5)


def test_radial_separation_rejection():
    delta = 2.0 ** -6
    # full grids guarantee cells on the facing window edges, delta apart
    E = generate_cantor_measure(2.0, delta, seed=[10, 0],
                                window=(-0.5, 0.5, -0.5, 0.5)).support()
    F_near = generate_cantor_measure(2.0, delta, seed=[10, 1],
                                     window=(0.5, 0.75, -0.125, 0.125)).support()
    with pytest.raises(ValueError, match="separation"):
        radial_check(E, F_near, 0.6, delta, s=0.8, t=1.5)


def test_radial_declared_dimension_guards():
    delta = 2.0 ** -6
    E = generate_cantor_measure(0.8, delta, seed=[11, 0],
                                window=(-0.75, 0.5, -0.5, 0.5)).support()
    F = generate_cantor_measure(1.5, delta, seed=[11, 1],
                                window=(0.75, 1.0, -0.125, 0.125)).support()
    with pytest.raises(ValueError, match="t must exceed 1"):
        radial_check(E, F, 0.6, delta, s=0.8, t=0.9)
    with pytest.raises(ValueError, match="exceed sigma"):
        radial_check(E, F, 0.9, delta, s=0.8, t=1.5)
    tiny = PointSet(PLANE, delta, [10], [10])
    with pytest.raises(ValueError, match="too small"):
        radial_check(tiny, F, 0.6, delta, s=1.5, t=1.5)
