import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import content
from inclab.content import (ContentResult, CoverError, dyadic_content,
                            extract_katz_tao_subset, multiscale_cover,
                            smallest_delta_s_constant,
                            smallest_katz_tao_constant)
from inclab.experiments import (content_cover_lp, enumerate_cover_min,
                                exp_content)
from inclab.geometry import (LINESPACE, PLANE, _cell_codes, grid_shape,
                             level_for_resolution, side_at_level)
from inclab.measures import CellFamilies, PointSet, generate_cantor_measure


def bottom_row(k):
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    return PointSet(PLANE, delta, np.arange(ix0, ix0 + 2 ** k),
                    np.full(2 ** k, ix0))


def unit_square_cells(k):
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    n = 2 ** k
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return PointSet(PLANE, delta, ix0 + ii.ravel(), ix0 + jj.ravel())


def cover_sizes(res):
    """{side: number of cover squares of that side}."""
    return {fam.resolution: len(fam) for fam in res.cover.values()}


def cover_value(cover, s):
    """math.fsum of side^s over the squares of a {level: PointSet} cover."""
    return math.fsum(fam.resolution ** s
                     for fam in cover.values() for _ in range(len(fam)))


def test_content_single_cell():
    P = PointSet(PLANE, 2.0 ** -5, [40], [41])
    for s in (0.5, 1.0, 2.0):
        res = dyadic_content(P, s)
        assert res.value == pytest.approx((2.0 ** -5) ** s)
        assert cover_sizes(res) == {2.0 ** -5: 1}


def test_content_full_unit_square():
    res = dyadic_content(unit_square_cells(4), 2.0)
    assert res.value == pytest.approx(1.0)
    assert cover_sizes(res) == {1.0: 1}


def test_content_bottom_row():
    k = 6
    P = bottom_row(k)
    res1 = dyadic_content(P, 1.0)
    assert res1.value == 1.0
    # tie-break picks the coarsest tied square: the unit square itself
    assert cover_sizes(res1) == {1.0: 1}
    res2 = dyadic_content(P, 2.0)
    assert res2.value == pytest.approx(2.0 ** -k)
    assert cover_sizes(res2) == {2.0 ** -k: 2 ** k}


def test_content_two_part_configuration():
    delta = 2.0 ** -6
    ix0 = round(2.0 / delta)
    cells = [(ix0 + i, ix0 + j) for i in range(16) for j in range(16)]
    cells += [(3 + 11 * i, 7 + 13 * i) for i in range(10)]
    arr = np.array(cells)
    P = PointSet(PLANE, delta, arr[:, 0], arr[:, 1])
    res = dyadic_content(P, 2.0)
    assert res.value == pytest.approx(2.0 ** -4 + 10 * delta ** 2)
    assert sum(cover_sizes(res).values()) == 11


def test_content_monotone_and_subadditive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n1, n2 = rng.integers(2, 60, 2)
        A = PointSet(PLANE, 2.0 ** -6, rng.integers(0, 256, n1),
                     rng.integers(0, 256, n1))
        B = PointSet(PLANE, 2.0 ** -6, rng.integers(0, 256, n2),
                     rng.integers(0, 256, n2))
        union = PointSet(PLANE, 2.0 ** -6, np.concatenate([A.ix, B.ix]),
                         np.concatenate([A.iy, B.iy]))
        s = float(rng.uniform(0.3, 2.0))
        cA = dyadic_content(A, s).value
        cB = dyadic_content(B, s).value
        cU = dyadic_content(union, s).value
        assert cU >= cA - 1e-12 and cU >= cB - 1e-12
        assert cU <= cA + cB + 1e-12


def test_content_cover_is_partition():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(5, 300))
        P = PointSet(PLANE, 2.0 ** -7, rng.integers(64, 448, n),
                     rng.integers(64, 448, n))
        res = dyadic_content(P, 1.3)
        # each input cell is inside exactly one cover square
        hits = np.zeros(len(P), dtype=int)
        for level, fam in res.cover.items():
            assert fam.level == level and len(fam)
            shift = P.level - level
            for a, b in zip(fam.ix, fam.iy):
                hits += ((P.ix >> shift) == a) & ((P.iy >> shift) == b)
        assert (hits == 1).all()
        assert res.value == cover_value(res.cover, res.exponent)


def test_content_against_enumeration_oracle():
    rng = np.random.default_rng(2)
    done = 0
    while done < 25:
        n = int(rng.integers(3, 30))
        base_x, base_y = rng.integers(32, 200, 2)
        P = PointSet(PLANE, 2.0 ** -6,
                     base_x + rng.integers(0, 16, n),
                     base_y + rng.integers(0, 16, n))
        s = float(rng.uniform(0.4, 2.0))
        try:
            oracle = enumerate_cover_min(P, s)
        except RuntimeError:
            continue
        dp = dyadic_content(P, s, max_levels_up=4)
        assert dp.value == pytest.approx(oracle, rel=1e-9)
        done += 1


def test_enumeration_cap_checked_before_building_product():
    # under one top square, an 8x8 block has 83522 covers and a 4x4 block
    # 18; their product alone is far over the cap, so it must not be built
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    kk, ll = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    P = PointSet(PLANE, 2.0 ** -6,
                 np.concatenate([128 + ii.ravel(), 136 + kk.ravel()]),
                 np.concatenate([128 + jj.ravel(), 128 + ll.ravel()]))
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="cap exceeded"):
            enumerate_cover_min(P, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_content_against_lp_oracle(data):
    # up to 400 cells, uniform in a box of 2 to 64 cells a side, on either
    # root; the drawn seed places them, so the sets stay dense as they shrink
    root = data.draw(st.sampled_from([PLANE, LINESPACE]))
    delta = 2.0 ** -data.draw(st.integers(4, 8))
    nx, ny = grid_shape(root, level_for_resolution(root, delta))
    span = data.draw(st.integers(2, 64))
    n = data.draw(st.integers(1, 400))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def coords(size):
        lo = data.draw(st.integers(0, max(0, size - span)))
        return lo + rng.integers(0, min(span, size), n)

    P = PointSet(root, delta, coords(nx), coords(ny))
    s = data.draw(st.floats(0.4, 2.0))
    dp = dyadic_content(P, s, max_levels_up=4)
    lp = content_cover_lp(P, s)
    assert dp.value == pytest.approx(lp, rel=1e-6, abs=1e-9)


def test_katz_tao_constant_examples():
    single = PointSet(PLANE, 2.0 ** -5, [9], [9])
    assert smallest_katz_tao_constant(single, 1.0) == pytest.approx(1.0)
    assert smallest_katz_tao_constant(unit_square_cells(4), 2.0) == pytest.approx(1.0)
    row = bottom_row(5)
    assert smallest_katz_tao_constant(row, 1.0) == pytest.approx(1.0)
    assert smallest_katz_tao_constant(row, 2.0) == pytest.approx(1.0)


def test_delta_s_constant_examples():
    assert smallest_delta_s_constant(unit_square_cells(4), 2.0) == pytest.approx(1.0)
    single = PointSet(PLANE, 2.0 ** -5, [9], [9])
    assert smallest_delta_s_constant(single, 1.0) == pytest.approx(2.0 ** 5)
    cantor = generate_cantor_measure(1.0, 4.0 ** -5, seed=0,
                                     style="four_corner").support()
    c = smallest_delta_s_constant(cantor, 1.0)
    assert 1.0 <= c <= 16.0


@st.composite
def cell_families(draw):
    """(store, [(ix, iy) as drawn, per family]) on either root.

    Each family holds up to 80 cells in a box of 2 to 2^level cells a side,
    and the store gets the cells of all families shuffled together.  Family
    0 also holds (2a, 2b), (2a, 2b + 2) and (2a + 1, 2b): in (ix, iy) order
    their parent codes go down and back up, so a count of runs of equal
    codes in leaf order splits their parent square.
    """
    root = draw(st.sampled_from([PLANE, LINESPACE]))
    level = draw(st.integers(2, 7))
    n_families = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx, ny = grid_shape(root, level)

    def coords(size, span, n):
        lo = rng.integers(0, size - span + 1)
        return lo + rng.integers(0, span, n)

    families = []
    for _ in range(n_families):
        span = 2 ** int(rng.integers(1, level + 1))
        n = int(rng.integers(1, 81))
        families.append((coords(nx, span, n), coords(ny, span, n)))
    a = rng.integers(0, nx // 2)
    b = rng.integers(0, (ny - 1) // 2)
    families[0] = (np.append(families[0][0], [2 * a, 2 * a, 2 * a + 1]),
                   np.append(families[0][1], [2 * b, 2 * b + 2, 2 * b]))
    ix, iy = (np.concatenate(c) for c in zip(*families))
    family = np.repeat(np.arange(n_families), [f[0].size for f in families])
    order = rng.permutation(ix.size)
    store = CellFamilies(root, side_at_level(root, level), ix[order],
                         iy[order], family[order])
    return store, families


def brute_delta_s_constant(P, s):
    """max over every dyadic ancestor Q of |P cap Q| / (side(Q)^s |P|)."""
    best = 0.0
    for up in range(P.level + 1):
        counts = {}
        for a, b in zip(P.ix.tolist(), P.iy.tolist()):
            counts[a >> up, b >> up] = counts.get((a >> up, b >> up), 0) + 1
        side = side_at_level(P.root, P.level - up)
        best = max(best, max(counts.values()) / (side ** s * len(P)))
    return best


@settings(max_examples=150, deadline=None)
@given(cell_families(), st.floats(0.05, 2.0))
def test_family_constants_match_single_sets(case, s):
    store, families = case
    first = store.family(0)
    assert np.any(np.diff(_cell_codes(first.root, first.level,
                                      first.ix, first.iy, 1)) < 0)
    got = smallest_delta_s_constant(store, s)
    contents = dyadic_content(store, s)
    assert got.shape == contents.shape == (len(families),)
    for k, (ix, iy) in enumerate(families):
        P = PointSet(store.root, store.resolution, ix, iy)
        fam = store.family(k)
        assert np.array_equal(fam.ix, P.ix) and np.array_equal(fam.iy, P.iy)
        one = smallest_delta_s_constant(P, s)
        assert got[k] == one == brute_delta_s_constant(P, s)
        assert contents[k] == dyadic_content(fam, s).value


def test_extraction_full_grid_and_singleton():
    P = unit_square_cells(4)
    sub = extract_katz_tao_subset(P, 2.0)
    assert len(sub) == len(P)
    single = PointSet(PLANE, 2.0 ** -5, [3], [7])
    sub = extract_katz_tao_subset(single, 1.0)
    assert len(sub) == 1


def test_extraction_row():
    k = 6
    P = bottom_row(k)
    sub = extract_katz_tao_subset(P, 1.0)
    assert len(sub) == 2 ** k  # the row is already non-concentrated
    assert smallest_katz_tao_constant(sub, 1.0) <= 1.0 + 1e-9


def test_extraction_bound_random():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(5, 800))
        P = PointSet(PLANE, 2.0 ** -7, rng.integers(0, 512, n),
                     rng.integers(0, 512, n))
        s = float(rng.uniform(0.4, 2.0))
        sub = extract_katz_tao_subset(P, s)
        assert smallest_katz_tao_constant(sub, s) <= 1.0 + 1e-9
        content = dyadic_content(P, s).value
        assert len(sub) * P.resolution ** s >= content / 64.0


def greedy_katz_tao_subset(P, s):
    """The extraction as a per-cell loop: in Morton order, admit a cell iff
    afterwards each of its dyadic ancestors k levels up holds at most
    2^(k s) admitted cells."""
    order = np.argsort(content._morton(P.ix, P.iy, P.level + 3), kind="stable")
    caps = [2.0 ** (k * s) for k in range(P.level + 1)]
    counts = [dict() for _ in range(P.level + 1)]  # per levels-up
    keep_ix, keep_iy = [], []
    for a, b in zip(P.ix[order].tolist(), P.iy[order].tolist()):
        if all(counts[k].get((a >> k, b >> k), 0) + 1 <= caps[k]
               for k in range(1, P.level + 1)):
            keep_ix.append(a)
            keep_iy.append(b)
            for k in range(1, P.level + 1):
                key = (a >> k, b >> k)
                counts[k][key] = counts[k].get(key, 0) + 1
    return PointSet(P.root, P.resolution, keep_ix, keep_iy)


@st.composite
def clustered_cells(draw):
    """A PointSet on either root: up to 6 clusters of up to 120 cells, each
    spread over a box of 1 to 2^level cells a side, so some dyadic squares
    are crowded and others sparse."""
    root = draw(st.sampled_from([PLANE, LINESPACE]))
    level = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx, ny = grid_shape(root, level)
    ix, iy = [], []
    for _ in range(int(rng.integers(1, 7))):
        span = 2 ** int(rng.integers(0, level + 1))
        n = int(rng.integers(1, 121))
        ix.append(rng.integers(0, nx - span + 1) + rng.integers(0, span, n))
        iy.append(rng.integers(0, ny - span + 1) + rng.integers(0, span, n))
    return PointSet(root, side_at_level(root, level), np.concatenate(ix),
                    np.concatenate(iy))


@settings(max_examples=200, deadline=None)
@given(clustered_cells(), st.floats(0.05, 2.0))
def test_extraction_equals_the_greedy_loop(P, s):
    sub = extract_katz_tao_subset(P, s)
    ref = greedy_katz_tao_subset(P, s)
    assert np.array_equal(sub.ix, ref.ix) and np.array_equal(sub.iy, ref.iy)
    assert smallest_katz_tao_constant(sub, s) <= 1.0


def test_multiscale_single_cell_and_square():
    single = PointSet(PLANE, 2.0 ** -5, [3], [7])
    cov = multiscale_cover(single, 1.0)
    assert list(cov.cover) == [single.level]
    full = unit_square_cells(4)
    cov = multiscale_cover(full, 2.0)
    assert cover_sizes(cov) == {1.0: 1}


def test_multiscale_two_part():
    delta = 2.0 ** -6
    ix0 = round(2.0 / delta)
    cells = [(ix0 + i, ix0 + j) for i in range(16) for j in range(16)]
    cells += [(3 + 11 * i, 7 + 13 * i) for i in range(10)]
    arr = np.array(cells)
    P = PointSet(PLANE, delta, arr[:, 0], arr[:, 1])
    cov = multiscale_cover(P, 2.0)
    sizes = {lev: len(fam) for lev, fam in cov.cover.items()}
    assert sizes == {4: 1, 8: 10}
    assert cov.value == pytest.approx(2.0 ** -4 + 10 * delta ** 2)


def test_multiscale_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(4, 1000))
        P = PointSet(PLANE, 2.0 ** -7, rng.integers(0, 512, n),
                     rng.integers(0, 512, n))
        s = float(rng.uniform(0.4, 2.0))
        cov = multiscale_cover(P, s)  # raises CoverError on any violation
        assert cover_value(cov.cover, s) == cov.value


def _doctored_result(case):
    """(cells, a DP result for them breaking one check of multiscale_cover,
    the message of that check); the value matches the cover unless the
    case is the value itself."""
    if case == "katz_tao":
        # a 4x4 block covering itself at s = 0.4: its square two levels up
        # holds 16 > 4 * 4^0.4 cover squares
        P = unit_square_cells(2)
        cover, s, message = {P.level: P}, 0.4, "not Katz-Tao"
    else:
        P = PointSet(PLANE, 2.0 ** -7, [64, 64, 200, 300], [64, 66, 90, 310])
        res = dyadic_content(P, 2.0)
        assert cover_sizes(res) == {P.resolution: 4}  # each cell covers itself
        s, message = 2.0, "not a partition"
        if case == "ulp":
            return (P, ContentResult(math.nextafter(res.value, 1.0),
                                     res.cover, s), "does not reproduce")
        if case == "dropped":
            cover = {P.level: PointSet(PLANE, P.resolution, P.ix[1:], P.iy[1:])}
        elif case == "empty":  # the square (400, 5) holds no cell of P
            cover = {P.level: PointSet(PLANE, P.resolution, [*P.ix, 400],
                                       [*P.iy, 5])}
            message = "holds no input cell"
        elif case == "finer":  # a square inside the cell (64, 64)
            cover = {P.level: P, P.level + 1: PointSet(
                PLANE, P.resolution / 2, [128], [128])}
            message = "holds no input cell"
        else:  # the parent of cell (64, 64) covers it a second time
            cover = {P.level - 1: PointSet(PLANE, 2 * P.resolution, [32], [32]),
                     P.level: P}
    return P, ContentResult(cover_value(cover, s), cover, s), message


@pytest.mark.parametrize("case", ["ulp", "dropped", "ancestor", "katz_tao",
                                  "empty", "finer"])
def test_multiscale_cover_rejects_doctored_results(case, monkeypatch):
    P, res, message = _doctored_result(case)
    monkeypatch.setattr(content, "dyadic_content", lambda P, s: res)
    with pytest.raises(CoverError, match=message):
        multiscale_cover(P, res.exponent)


def test_exp_content_reports_a_failed_cover(monkeypatch):
    def broken(P, s):
        raise CoverError("cover is not a partition of the input cells")

    monkeypatch.setattr(content, "multiscale_cover", broken)
    _, summary = exp_content(seed=0, n_enum=2, n_lp=1)
    assert summary["multiscale_ok"] is False and summary["pass"] is False
