"""Lines, tubes, dyadic squares and the renormalizing rescale map.

Lines in the plane are parametrized by (theta, r) with theta in [0, 1)
revolutions: the line is {z : z . e_theta = r} where
e_theta = (cos 2*pi*theta, sin 2*pi*theta).  Two root boxes carry dyadic
decompositions: the plane box [-2, 2)^2 and the line-parameter box
[0, 1) x [-2, 2).
"""

import math
from dataclasses import dataclass

import numpy as np

PLANE = "PLANE"
LINESPACE = "LINESPACE"

# Halfwidth multiplier for the corner tube hull of a dyadic tube.  For points
# of T(Q) in B(1) the sharp factor is 2*pi + 1; inside B(2) it is 4*pi + 1,
# so 10 only covers B(1) with slack.
HULL_FACTOR = 10.0


def project(p, theta):
    """p . e_theta for a single point or an (N, 2) array of points."""
    a = 2.0 * math.pi * theta
    p = np.asarray(p, dtype=float)
    return p[..., 0] * math.cos(a) + p[..., 1] * math.sin(a)


@dataclass(frozen=True)
class LineParam:
    theta: float  # revolutions, in [0, 1)
    r: float      # signed offset, |r| <= 2

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ValueError("theta must lie in [0, 1)")
        if abs(self.r) > 2.0:
            raise ValueError("offset r must lie in [-2, 2]")


@dataclass(frozen=True)
class Tube:
    line: LineParam
    halfwidth: float

    def __post_init__(self):
        if self.halfwidth <= 0.0:
            raise ValueError("halfwidth must be positive")


def root_extent(root):
    """((x_lo, x_hi), (y_lo, y_hi)) of the root box."""
    if root == PLANE:
        return (-2.0, 2.0), (-2.0, 2.0)
    if root == LINESPACE:
        return (0.0, 1.0), (-2.0, 2.0)
    raise ValueError(f"unknown root {root!r}")


def side_at_level(root, level):
    if root == PLANE:
        return 4.0 * 2.0 ** (-level)
    if root == LINESPACE:
        return 2.0 ** (-level)
    raise ValueError(f"unknown root {root!r}")


def grid_shape(root, level):
    """(nx, ny) cell counts at a level."""
    if root == PLANE:
        return 2 ** level, 2 ** level
    if root == LINESPACE:
        return 2 ** level, 2 ** (level + 2)
    raise ValueError(f"unknown root {root!r}")


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
    j = round(math.log2(1.0 / delta))
    if not math.isclose(delta, 2.0 ** (-j), rel_tol=0.0, abs_tol=0.0):
        raise ValueError(f"resolution {delta} is not a power of two")
    level = j + 2 if root == PLANE else j
    if level < 0:
        raise ValueError(f"resolution {delta} is coarser than the {root} root")
    return level


@dataclass(frozen=True)
class DyadicSquare:
    """Node (level, ix, iy) of the dyadic tree over a root box.

    PLANE cells have side 4 * 2^-level, LINESPACE cells side 2^-level (the
    r-axis of the line-parameter box splits into four unit strips at level 0,
    so LINESPACE forms a forest with four roots).
    """

    root: str
    level: int
    ix: int
    iy: int

    def __post_init__(self):
        nx, ny = grid_shape(self.root, self.level)
        if self.level < 0 or not (0 <= self.ix < nx and 0 <= self.iy < ny):
            raise ValueError(f"cell index ({self.ix}, {self.iy}) out of range "
                             f"for {self.root} level {self.level}")

    @property
    def side(self):
        return side_at_level(self.root, self.level)

    @property
    def bounds(self):
        (x0, _), (y0, _) = root_extent(self.root)
        s = self.side
        xlo = x0 + self.ix * s
        ylo = y0 + self.iy * s
        return xlo, xlo + s, ylo, ylo + s

    @property
    def center(self):
        xlo, xhi, ylo, yhi = self.bounds
        return np.array([0.5 * (xlo + xhi), 0.5 * (ylo + yhi)])

    def children(self):
        return [DyadicSquare(self.root, self.level + 1,
                             2 * self.ix + dx, 2 * self.iy + dy)
                for dy in (0, 1) for dx in (0, 1)]


def cell_containing(root, level, x, y):
    """The level-`level` dyadic square containing the point (x, y)."""
    (x0, x1), (y0, y1) = root_extent(root)
    if not (x0 <= x < x1 and y0 <= y < y1):
        raise ValueError(f"point ({x}, {y}) outside the {root} root box")
    s = side_at_level(root, level)
    return DyadicSquare(root, level, int((x - x0) / s), int((y - y0) / s))


@dataclass(frozen=True)
class DyadicTube:
    """T(Q): the union of all lines whose (theta, r) parameter lies in Q."""

    square: DyadicSquare

    def __post_init__(self):
        if self.square.root != LINESPACE:
            raise ValueError("dyadic tube parameter square must have LINESPACE root")

    @property
    def resolution(self):
        return self.square.side


def dist_to_line(p, line):
    """Distance from a planar point to the line (= |p . e_theta - r|)."""
    return float(abs(project(np.asarray(p, dtype=float), line.theta) - line.r))


def tube_contains(p, tube):
    return dist_to_line(p, tube.line) <= tube.halfwidth


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


def dyadic_tube_contains(p, dt, slack=0.0):
    """Whether some line with parameters in dt.square passes through p.

    Decided by the exact projection range over the square's theta-interval;
    `slack` inflates the r-interval (used for membership tests of whole
    delta-cells via their centers).  Tolerance 2^-40 * side absorbs roundoff.
    """
    sq = dt.square
    tlo, thi, rlo, rhi = sq.bounds
    lo, hi = projection_range(p, tlo, thi)
    tol = sq.side * 2.0 ** -40
    return bool(lo <= rhi + slack + tol) and bool(hi >= rlo - slack - tol)


def dyadic_tube_hull(dt):
    """Corner tube containing T(Q) near the origin.

    Returns the tube around the line at Q's lower-left corner with halfwidth
    10 * side(Q).  The factor 10 covers every point of T(Q) inside B(1);
    over all of B(2) the sharp factor is 4*pi + 1 (reached by points at
    distance 2 from the origin moving at full angular speed).
    """
    sq = dt.square
    tlo, _, rlo, _ = sq.bounds
    return Tube(LineParam(tlo, rlo), HULL_FACTOR * sq.side)


def dyadic_cover_of_box(root, x_lo, x_hi, y_lo, y_hi, max_level=40):
    """Maximal dyadic squares tiling the half-open box [x_lo,x_hi) x [y_lo,y_hi).

    The box edges must be dyadic (multiples of some cell side); raises
    otherwise.  Greedy top-down: a square is emitted as soon as it fits.
    """
    (rx0, rx1), (ry0, ry1) = root_extent(root)
    if not (rx0 <= x_lo < x_hi <= rx1 and ry0 <= y_lo < y_hi <= ry1):
        raise ValueError("box not contained in the root box")

    out = []

    def visit(sq):
        xlo, xhi, ylo, yhi = sq.bounds
        if xhi <= x_lo or xlo >= x_hi or yhi <= y_lo or ylo >= y_hi:
            return
        if x_lo <= xlo and xhi <= x_hi and y_lo <= ylo and yhi <= y_hi:
            out.append(sq)
            return
        if sq.level >= max_level:
            raise ValueError("box edges are not dyadic")
        for ch in sq.children():
            visit(ch)

    nx, ny = grid_shape(root, 0)
    for iy in range(ny):
        for ix in range(nx):
            visit(DyadicSquare(root, 0, ix, iy))
    return out


def rescale_measure(mu, Q, t):
    """Restrict mu to 10Q, map 10Q affinely onto [0,1]^2, reweight by scale^-t.

    10Q is the concentric dilate of Q with side 10*side(Q).  Weights are
    multiplied by side(10Q)^-t, which preserves a t-dimensional ball bound
    exactly.  Atoms are snapped to the dyadic grid fine enough that distinct
    atoms stay distinct; an empty restriction yields the zero measure.
    """
    from .measures import PlanarAtomMeasure

    if Q.root != PLANE:
        raise ValueError("rescale window must be a PLANE square")
    if not (0.0 < t <= 2.0):
        raise ValueError("exponent t must lie in (0, 2]")

    big = 10.0 * Q.side
    cx, cy = Q.center
    x_lo, y_lo = cx - 0.5 * big, cy - 0.5 * big

    pts = mu.centers()
    keep = ((pts[:, 0] >= x_lo) & (pts[:, 0] < x_lo + big)
            & (pts[:, 1] >= y_lo) & (pts[:, 1] < y_lo + big))
    if not keep.any():
        return PlanarAtomMeasure.empty(_snap_resolution(mu.resolution, big))

    mapped = (pts[keep] - np.array([x_lo, y_lo])) / big
    w = mu.weights[keep] * big ** (-t)

    delta_out = _snap_resolution(mu.resolution, big)
    ix = np.floor((mapped[:, 0] + 2.0) / delta_out).astype(np.int64)
    iy = np.floor((mapped[:, 1] + 2.0) / delta_out).astype(np.int64)
    return PlanarAtomMeasure(delta_out, ix, iy, w)


def _snap_resolution(delta_in, scale):
    # Output grid pitch: finest power of two not above the mapped atom
    # spacing delta_in/scale, so snapping cannot merge distinct atoms.
    j = math.ceil(math.log2(scale / delta_in) - 1e-12)
    return 2.0 ** (-j)
