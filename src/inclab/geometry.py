"""Line projections and the dyadic cell grids.

Lines in the plane are parametrized by (theta, r) with theta in [0, 1)
revolutions: the line is {z : z . e_theta = r} where
e_theta = (cos 2*pi*theta, sin 2*pi*theta).  A point p lies in the
delta-tube of the line (theta, r) when |project(p, theta) - r| <= delta, and
in the tube of a line-parameter cell when `projection_range` over the cell's
angles meets its offsets.  Two root boxes carry dyadic decompositions: the
plane box [-2, 2)^2 and the line-parameter box [0, 1) x [-2, 2).  A cell is
an integer pair (ix, iy) at a level, and its children at the next level are
(2 ix + dx, 2 iy + dy) for dx, dy in {0, 1}.
"""

import math

import numpy as np

PLANE = "PLANE"
LINESPACE = "LINESPACE"


def direction(theta):
    """(cos, sin) of the angle 2 pi theta, the components of e_theta, for a
    scalar or an array theta.  numpy's cos and sin give the same bits on an
    angle array as on each of its entries alone, which the tests check."""
    a = 2.0 * math.pi * np.asarray(theta)
    return np.cos(a), np.sin(a)


def project(p, theta):
    """p . e_theta for points p of shape (..., 2); theta broadcasts against them.

    A point p lies on the line (theta, r) up to delta when
    |project(p, theta) - r| <= delta; every incidence test uses this.
    """
    c, s = direction(theta)
    p = np.asarray(p, dtype=float)
    return p[..., 0] * c + p[..., 1] * s


# root box -> its extent ((x_lo, x_hi), (y_lo, y_hi)), then log2 of the side
# and of the counts (nx, ny) of its level-0 cells; each level halves the side
_ROOTS = {PLANE: (((-2.0, 2.0), (-2.0, 2.0)), 2, (0, 0)),
          LINESPACE: (((0.0, 1.0), (-2.0, 2.0)), 0, (0, 2))}


def _root(root):
    if isinstance(root, str) and root in _ROOTS:
        return _ROOTS[root]
    raise ValueError(f"unknown root {root!r}")


def root_extent(root):
    """((x_lo, x_hi), (y_lo, y_hi)) of the root box."""
    return _root(root)[0]


def side_at_level(root, level):
    return 2.0 ** _root(root)[1] * 2.0 ** (-level)


def grid_shape(root, level):
    """(nx, ny) cell counts at a level."""
    return tuple(2 ** (level + b) for b in _root(root)[2])


def _cell_codes(root, level, ix, iy, up=0):
    """Codes of the ancestors `up` levels above the level-`level` cells (ix, iy).

    A cell's code at a level with ny rows is ix * ny + iy, so codes sort
    like (ix, iy); `_cell_index` inverts it.  Nothing else builds codes.
    """
    _, ny = grid_shape(root, level - up)
    return (ix >> up) * ny + (iy >> up)


def _cell_index(root, level, codes):
    """(ix, iy) arrays of the level-`level` cells with the given codes."""
    _, ny = grid_shape(root, level)
    return codes // ny, codes % ny


def level_for_resolution(root, delta):
    """Level whose cells have side exactly delta (a power of two)."""
    j = 1 - math.frexp(delta)[1]  # exact, also where 1 / delta overflows
    if not math.isclose(delta, 2.0 ** (-j), rel_tol=0.0, abs_tol=0.0):
        raise ValueError(f"resolution {delta} is not a power of two")
    level = j + _root(root)[1]
    if level < 0:
        raise ValueError(f"resolution {delta} is coarser than the {root} root")
    return level


def projection_range(p, theta_lo, theta_hi):
    """Exact range of theta -> p . e_theta over [theta_lo, theta_hi].

    `p` is one point or an (..., 2) array of points; the angles broadcast
    against the points.  Writing p in polar form, the projection is
    |p| cos(2 pi (theta - phi)), so the range is the cosine range over the
    rotated interval: endpoint values, plus +-|p| whenever a critical angle
    falls inside.  This is a guaranteed enclosure (exact up to roundoff), so
    no bisection is needed to decide interval membership.
    """
    p = np.asarray(p, dtype=float)
    px, py = p[..., 0], p[..., 1]
    rad = np.hypot(px, py)
    phi = np.arctan2(py, px) / (2.0 * math.pi)  # revolutions
    a = theta_lo - phi
    b = theta_hi - phi
    va = rad * np.cos(2.0 * math.pi * a)
    vb = rad * np.cos(2.0 * math.pi * b)
    # critical points of cos(2 pi t) at t = k/2: +rad for even k, -rad for
    # odd k; check the first even and the first odd k with k/2 >= a
    k_first = np.ceil(2.0 * a)
    parity = np.mod(k_first, 2)
    hi = np.where(k_first + parity <= 2.0 * b, rad, np.maximum(va, vb))
    lo = np.where(k_first + 1 - parity <= 2.0 * b, -rad, np.minimum(va, vb))
    return lo, hi

