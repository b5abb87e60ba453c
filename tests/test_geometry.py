import math

import numpy as np
import pytest

from inclab.geometry import (LINESPACE, PLANE, direction, grid_shape,
                             level_for_resolution, project, projection_range,
                             root_extent, side_at_level)


def test_dist_to_line_on_line():
    # the distance from p to the line (theta, r) is |project(p, theta) - r|
    assert project((0.0, 0.0), 0.0) == 0.0


def test_dist_to_line_axis():
    # e_theta = (0, 1) at a quarter revolution
    assert project((0.0, 1.0), 0.25) == pytest.approx(1.0)


def test_dist_to_line_oblique():
    # p.e = (0.3 + 0.4) cos(pi/4) = 0.7/sqrt(2); offset 0.1
    expect = 0.7 / math.sqrt(2.0) - 0.1
    assert project((0.3, 0.4), 0.125) - 0.1 == pytest.approx(expect, abs=1e-12)


def test_project_translation_invariance():
    # moving a point along the line direction keeps its projection
    rng = np.random.default_rng(0)
    n = 10 ** 5
    p = rng.uniform(-1, 1, (n, 2))
    theta = rng.uniform(0, 1, n)
    shift = rng.uniform(-0.5, 0.5, n)
    a = 2 * math.pi * theta
    q = p + shift[:, None] * np.column_stack([np.sin(a), -np.cos(a)])
    assert np.array_equal(project(p, theta),
                          p[:, 0] * np.cos(a) + p[:, 1] * np.sin(a))
    assert np.abs(project(p, theta) - project(q, theta)).max() < 1e-12
    # (..., 2) points broadcast against an array of angles
    grid = project(p[None, :50], theta[:7, None])
    assert grid.shape == (7, 50)
    for i in range(7):
        assert np.array_equal(grid[i], project(p[:50], theta[i]))


def test_direction_of_an_angle_array_matches_each_angle_alone():
    # incidences takes cos and sin of a whole band's angles at once and
    # tests each line as project does, which takes them of one 0-d angle;
    # project of a unit vector returns that cos or sin unchanged
    theta = np.random.default_rng(0).random(20000)
    c, s = direction(theta)
    assert c.tobytes() == np.array([project((1.0, 0.0), t) for t in theta]).tobytes()
    assert s.tobytes() == np.array([project((0.0, 1.0), t) for t in theta]).tobytes()


def test_projection_range_matches_dense_sampling():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p = rng.uniform(-2, 2, 2)
        a = rng.uniform(0, 1)
        b = a + rng.uniform(1e-4, 0.3)
        lo, hi = projection_range(p, a, b)
        ts = np.linspace(a, b, 2001)
        proj = p[0] * np.cos(2 * math.pi * ts) + p[1] * np.sin(2 * math.pi * ts)
        assert lo <= proj.min() + 1e-12
        assert hi >= proj.max() - 1e-12
        # and tight: endpoints/extrema realize the bounds
        assert proj.min() - lo < 1e-4 + (hi - lo) * 1e-3
        assert hi - proj.max() < 1e-4 + (hi - lo) * 1e-3
    # array form: many points and intervals of up to 1.5 revolutions in one
    # call, the first point at the origin
    p = rng.uniform(-2, 2, (300, 2))
    p[0] = 0.0
    a = rng.uniform(0, 1, 300)
    b = a + rng.uniform(1e-4, 1.5, 300)
    lo, hi = projection_range(p, a, b)
    ts = np.linspace(a, b, 4001)
    proj = p[:, 0] * np.cos(2 * math.pi * ts) + p[:, 1] * np.sin(2 * math.pi * ts)
    assert np.all(lo <= proj.min(axis=0) + 1e-12)
    assert np.all(hi >= proj.max(axis=0) - 1e-12)
    assert np.all(proj.min(axis=0) - lo < 1e-4 + (hi - lo) * 1e-3)
    assert np.all(hi - proj.max(axis=0) < 1e-4 + (hi - lo) * 1e-3)
    assert lo[0] == hi[0] == 0.0
    assert projection_range((0.0, 0.0), 0.1, 0.7) == (0.0, 0.0)


def test_dyadic_tube_contains_sweep_inversion():
    # p = (2, 0): projection 2 cos(2 pi theta) sweeps into an r-window
    # [r_lo, r_hi] exactly when theta meets [acos(r_hi/2), acos(r_lo/2)]/2pi
    level = 7
    d = 2.0 ** -level
    tol = d * 2.0 ** -40  # roundoff in the range
    iy = round((1.9375 + 2.0) / d)  # r cell [1.9375, 1.9453)
    r_lo, r_hi = iy * d - 2.0, (iy + 1) * d - 2.0
    t_lo = math.acos(r_hi / 2.0) / (2 * math.pi)
    t_hi = math.acos(r_lo / 2.0) / (2 * math.pi)
    for ix in range(0, 2 ** level // 4):
        lo, hi = projection_range((2.0, 0.0), ix * d, (ix + 1) * d)
        expect = (ix * d <= t_hi) and ((ix + 1) * d >= t_lo)
        assert (lo <= r_hi + tol and hi >= r_lo - tol) == expect


def test_dyadic_tube_disjoint_offsets():
    # |proj| <= |p|, so r-cells beyond |p| never meet the sweep:
    # theta in [3/16, 4/16), r cell [1.75, 1.8125)
    _, hi = projection_range((1.0, 0.5), 3 / 16, 4 / 16)
    assert hi < 1.75


def test_root_box_facts():
    # the plane box has level-0 side 4 and one level-0 cell, the
    # line-parameter box side 1 and 1 x 4 cells; each level down halves the
    # side and doubles both counts
    assert root_extent(PLANE) == ((-2.0, 2.0), (-2.0, 2.0))
    assert root_extent(LINESPACE) == ((0.0, 1.0), (-2.0, 2.0))
    for level in (0, 1, 7):
        assert side_at_level(PLANE, level) == 4.0 * 2.0 ** -level
        assert side_at_level(LINESPACE, level) == 2.0 ** -level
        assert grid_shape(PLANE, level) == (2 ** level, 2 ** level)
        assert grid_shape(LINESPACE, level) == (2 ** level, 2 ** (level + 2))
        assert level_for_resolution(PLANE, 4.0 * 2.0 ** -level) == level
        assert level_for_resolution(LINESPACE, 2.0 ** -level) == level
    for fact in (root_extent, lambda root: side_at_level(root, 1),
                 lambda root: grid_shape(root, 1),
                 lambda root: level_for_resolution(root, 0.5)):
        with pytest.raises(ValueError, match="unknown root 'SPHERE'"):
            fact("SPHERE")
