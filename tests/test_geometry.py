import math

import numpy as np
import pytest

from inclab.geometry import (LINESPACE, PLANE, DyadicSquare, DyadicTube,
                             LineParam, Tube, cell_containing, dist_to_line,
                             dyadic_cover_of_box, dyadic_tube_contains,
                             dyadic_tube_hull, projection_range,
                             rescale_measure, tube_contains)
from inclab.measures import PlanarAtomMeasure, frostman_constant, generate_cantor_measure


def test_dist_to_line_on_line():
    assert dist_to_line((0.0, 0.0), LineParam(0.0, 0.0)) == 0.0


def test_dist_to_line_axis():
    # e_theta = (0, 1) at a quarter revolution
    assert dist_to_line((0.0, 1.0), LineParam(0.25, 0.0)) == pytest.approx(1.0)


def test_dist_to_line_oblique():
    # p.e = (0.3 + 0.4) cos(pi/4) = 0.7/sqrt(2); offset 0.1
    expect = 0.7 / math.sqrt(2.0) - 0.1
    assert dist_to_line((0.3, 0.4), LineParam(0.125, 0.1)) == pytest.approx(expect, abs=1e-12)


def test_tube_contains():
    assert tube_contains((0.0, 0.0), Tube(LineParam(0.0, 0.0), 0.01))
    assert not tube_contains((0.0, 0.0), Tube(LineParam(0.0, 0.5), 0.1))
    assert tube_contains((0.3, 0.4), Tube(LineParam(0.125, 0.1), 0.4))


def test_tube_contains_translation_invariance():
    # moving point and line offset together along the line direction
    rng = np.random.default_rng(0)
    n = 10 ** 5
    p = rng.uniform(-1, 1, (n, 2))
    theta = rng.uniform(0, 1, n)
    r = rng.uniform(-1, 1, n)
    shift = rng.uniform(-0.5, 0.5, n)
    a = 2 * math.pi * theta
    q = p + shift[:, None] * np.column_stack([np.sin(a), -np.cos(a)])
    d1 = np.abs(p[:, 0] * np.cos(a) + p[:, 1] * np.sin(a) - r)
    d2 = np.abs(q[:, 0] * np.cos(a) + q[:, 1] * np.sin(a) - r)
    assert np.abs(d1 - d2).max() < 1e-12
    # spot-check the object interface on a sample
    for i in range(0, n, n // 50):
        width = 0.1
        assert tube_contains(p[i], Tube(LineParam(theta[i], r[i]), width)) == \
            tube_contains(q[i], Tube(LineParam(theta[i], r[i]), width))


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


def test_dyadic_tube_contains_origin():
    # all lines through the origin have r = 0
    for level in (2, 4, 6):
        for ix in (0, 1, 3):
            sq = DyadicSquare(LINESPACE, level, ix, 2 ** (level + 2) // 2)
            assert dyadic_tube_contains((0.0, 0.0), DyadicTube(sq))


def test_dyadic_tube_contains_sweep_inversion():
    # p = (2, 0): projection 2 cos(2 pi theta) sweeps into an r-window
    # [r_lo, r_hi] exactly when theta meets [acos(r_hi/2), acos(r_lo/2)]/2pi
    level = 7
    d = 2.0 ** -level
    iy = round((1.9375 + 2.0) / d)  # r cell [1.9375, 1.9453)
    r_lo, r_hi = iy * d - 2.0, (iy + 1) * d - 2.0
    t_lo = math.acos(r_hi / 2.0) / (2 * math.pi)
    t_hi = math.acos(r_lo / 2.0) / (2 * math.pi)
    for ix in range(0, 2 ** level // 4):
        sq = DyadicSquare(LINESPACE, level, ix, iy)
        expect = (ix * d <= t_hi) and ((ix + 1) * d >= t_lo)
        assert dyadic_tube_contains((2.0, 0.0), DyadicTube(sq)) == expect


def test_dyadic_tube_disjoint_offsets():
    # |proj| <= |p|, so r-cells beyond |p| never meet the sweep
    sq = DyadicSquare(LINESPACE, 4, 3, 60)  # r in [1.75, 1.8125)
    assert not dyadic_tube_contains((1.0, 0.5), DyadicTube(sq))


def test_hull_shape():
    sq = DyadicSquare(LINESPACE, 5, 7, 64)
    tube = dyadic_tube_hull(DyadicTube(sq))
    tlo, _, rlo, _ = sq.bounds
    assert tube.line.theta == tlo
    assert tube.line.r == rlo
    assert tube.halfwidth == 10.0 * sq.side


def _sample_tube_points(rng, sq, count, radius):
    """Random points of T(Q) within the given ball: pick (theta, r) in Q and a
    point on that line inside the ball."""
    tlo, thi, rlo, rhi = sq.bounds
    thetas = rng.uniform(tlo, thi, count)
    rs = rng.uniform(rlo, rhi, count)
    keep = np.abs(rs) < radius
    thetas, rs = thetas[keep], rs[keep]
    span = np.sqrt(radius ** 2 - rs ** 2)
    u = rng.uniform(-1.0, 1.0, rs.size) * span
    ang = 2 * math.pi * thetas
    px = rs * np.cos(ang) + u * np.sin(ang)
    py = rs * np.sin(ang) - u * np.cos(ang)
    return np.column_stack([px, py])


def test_hull_contains_tube_points_in_unit_ball():
    # the factor 10 is valid for points within distance 1 of the origin:
    # sharp constant there is 2 pi + 1 < 10
    rng = np.random.default_rng(2)
    for _ in range(2000):
        level = int(rng.integers(3, 11))
        sq = DyadicSquare(LINESPACE, level, int(rng.integers(0, 2 ** level)),
                          int(rng.integers(0, 2 ** (level + 2))))
        tube = dyadic_tube_hull(DyadicTube(sq))
        pts = _sample_tube_points(rng, sq, 300, 1.0)
        if not pts.size:
            continue
        a = 2 * math.pi * tube.line.theta
        d = np.abs(pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a) - tube.line.r)
        assert (d <= tube.halfwidth + 1e-12).all()


def test_hull_factor_on_big_ball():
    # over the ball of radius 2 the sharp hull factor is 4 pi + 1: the
    # factor-10 corner tube provably misses some points, the sharp one never
    rng = np.random.default_rng(3)
    sharp = 4 * math.pi + 1
    violations_10 = 0
    for _ in range(400):
        level = int(rng.integers(3, 8))
        sq = DyadicSquare(LINESPACE, level, int(rng.integers(0, 2 ** level)),
                          int(rng.integers(0, 2 ** (level + 2))))
        tube = dyadic_tube_hull(DyadicTube(sq))
        pts = _sample_tube_points(rng, sq, 200, 2.0)
        if not pts.size:
            continue
        a = 2 * math.pi * tube.line.theta
        d = np.abs(pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a) - tube.line.r)
        assert (d <= sharp * sq.side + 1e-12).all()
        violations_10 += int((d > tube.halfwidth).sum())
    assert violations_10 > 0  # documents that 10 is too small for radius 2


def test_rescale_single_atom_at_center():
    delta = 2.0 ** -6
    Q = cell_containing(PLANE, 5, 0.3, 0.3)
    cx, cy = Q.center
    mu = PlanarAtomMeasure(delta,
                           [int((cx + 2.0) // delta)], [int((cy + 2.0) // delta)],
                           [1.0])
    out = rescale_measure(mu, Q, 1.5)
    big = 10.0 * Q.side
    assert len(out) == 1
    np.testing.assert_allclose(out.centers()[0], [0.5, 0.5], atol=out.resolution)
    assert out.total == pytest.approx(big ** -1.5)


def test_rescale_total_and_mass_ratios():
    rng = np.random.default_rng(4)
    m = generate_cantor_measure(1.2, 2.0 ** -8, seed=5)
    Q = cell_containing(PLANE, 6, 0.1, -0.1)
    t = 1.2
    out = rescale_measure(m, Q, t)
    big = 10.0 * Q.side
    cx, cy = Q.center
    pts = m.centers()
    inside = (np.abs(pts[:, 0] - cx) < big / 2) & (np.abs(pts[:, 1] - cy) < big / 2)
    assert out.total == pytest.approx(big ** -t * m.weights[inside].sum(), rel=1e-12)
    # relative masses preserved
    if inside.sum() >= 2:
        w_in = np.sort(m.weights[inside])
        w_out = np.sort(out.weights)
        ratio = w_out / w_in
        assert np.all(np.abs(ratio / ratio[0] - 1.0) < 1e-12)


def test_rescale_preserves_frostman_scale():
    t = 1.0
    m = generate_cantor_measure(t, 2.0 ** -8, seed=6)
    base = frostman_constant(m, t)
    for level in (4, 5):
        Q = cell_containing(PLANE, level, 0.05, 0.05)
        out = rescale_measure(m, Q, t)
        if len(out) == 0:
            continue
        assert frostman_constant(out, t) <= 8.0 * base


def test_rescale_empty():
    m = PlanarAtomMeasure(2.0 ** -4, [0], [0], [1.0])  # near (-2, -2)
    Q = cell_containing(PLANE, 6, 1.0, 1.0)
    out = rescale_measure(m, Q, 1.0)
    assert len(out) == 0 and out.total == 0.0


def test_dyadic_cover_of_box():
    squares = dyadic_cover_of_box(PLANE, -0.5, 0.5, -0.5, 0.5)
    assert len(squares) == 4
    assert all(sq.side == 0.5 for sq in squares)
    mixed = dyadic_cover_of_box(PLANE, -0.75, 0.5, -0.5, 0.5)
    area = sum(sq.side ** 2 for sq in mixed)
    assert area == pytest.approx(1.25 * 1.0)


def test_cell_containing_bounds():
    sq = cell_containing(PLANE, 7, 0.3, -0.7)
    xlo, xhi, ylo, yhi = sq.bounds
    assert xlo <= 0.3 < xhi and ylo <= -0.7 < yhi
    with pytest.raises(ValueError):
        cell_containing(PLANE, 3, 2.5, 0.0)
