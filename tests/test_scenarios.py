import numpy as np
import pytest

from inclab.content import dyadic_content, extract_katz_tao_subset
from inclab.geometry import PLANE
from inclab.measures import PointSet, generate_cantor_measure
from inclab.scenarios import (build_furstenberg, build_slicing,
                              furstenberg_content, radial_check,
                              slicing_tube_content, tube_cell_members)


def test_furstenberg_densest_case():
    # full-dimensional measure with all directions: family sizes near 1/delta
    delta = 2.0 ** -6
    cfg = build_furstenberg(1.0, 2.0, delta, seed=0)
    sizes = [len(v) for v in cfg.tube_cells.values()]
    target = 1.0 / delta
    assert all(target / 4 <= sz <= 4 * target for sz in sizes)


def test_furstenberg_generic_fixture():
    delta = 2.0 ** -7
    cfg = build_furstenberg(0.5, 1.6, delta, seed=1)
    # direction counts near 2^(7 * 0.5), within the stated factor
    sizes = [len(v) for v in cfg.tube_cells.values()]
    target = 2.0 ** 3.5
    assert all(target / 8 <= sz <= 8 * target for sz in sizes)


def test_furstenberg_determinism():
    a = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=5)
    b = build_furstenberg(0.8, 1.4, 2.0 ** -6, seed=5)
    assert sorted(a.tube_cells) == sorted(b.tube_cells)
    for key in a.tube_cells:
        assert np.array_equal(a.tube_cells[key].ix, b.tube_cells[key].ix)
        assert np.array_equal(a.tube_cells[key].iy, b.tube_cells[key].iy)


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
    key = sorted(cfg.tube_cells)[0]
    fam = cfg.tube_cells[key]
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
    assert sorted(cfg.tubes) == sorted(again.tubes)
    assert cfg.C == again.C


def test_slicing_witness_reproducible():
    cfg = build_slicing(0.6, 1.6, 1.3, 2.0 ** -6, seed=7)
    res = slicing_tube_content(cfg)
    assert res.value > 0
    members = tube_cell_members(cfg, res.tube_cell)
    again = dyadic_content(members, cfg.tau - 1.0).value
    assert again == res.value


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
    rep = radial_check(E, F, 0.6, delta, s=0.8, t=1.5, seed=8)
    assert rep.threshold == pytest.approx(delta ** -0.6)
    assert rep.best_covering >= 1
    assert 0.0 <= rep.fraction <= 1.0
    assert len(rep.rows) == min(len(F), 256)
    # the winner is consistent with its row
    best_rows = [w for q, full, w in rep.rows]
    assert rep.best_covering == max(best_rows)


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
