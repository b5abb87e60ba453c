"""Discrete measures on dyadic grids, their diagnostics, and fractal generators.

A measure is a finite set of weighted atoms identified with dyadic cells of a
fixed resolution, either in the plane box [-2,2)^2 or in the line-parameter
box [0,1) x [-2,2).  Diagnostics (Frostman constants, Riesz energies,
covering numbers, radial projections) quantify over dyadic squares only; the
comparison with ball-based quantities is absorbed into absolute constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (LINESPACE, PLANE, _cell_codes, _cell_index,
                       dyadic_cover_of_box, grid_shape, level_for_resolution,
                       root_extent, side_at_level)


class _CellSet:
    """Cells (ix, iy) of one root box at one level, merged and sorted.

    `starts` holds the offset of each family of cells; a single set is one
    family from cell 0, and a CellFamilies store holds many.
    """

    starts = np.zeros(1, dtype=np.int64)
    starts.flags.writeable = False

    def __len__(self):
        return self.ix.size

    def sizes(self):
        """Number of cells of each family."""
        return np.diff(self.starts, append=len(self))

    def family_numbers(self):
        """Family number of each cell."""
        return np.repeat(np.arange(self.starts.size), self.sizes())

    def centers(self):
        (x0, _), (y0, _) = root_extent(self.root)
        d = self.resolution
        return np.column_stack([x0 + (self.ix + 0.5) * d,
                                y0 + (self.iy + 0.5) * d])


def _inside_codes(root, level, ix, iy):
    """Codes of the cells (ix, iy), checked to lie in the root box."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    nx, ny = grid_shape(root, level)
    if ix.size and (ix.min() < 0 or ix.max() >= nx or iy.min() < 0 or iy.max() >= ny):
        raise ValueError("cell outside the root box")
    return _cell_codes(root, level, ix, iy)


def _canonical_cells(root, level, ix, iy, weights=None):
    """Check the cells lie in the root box, merge duplicates and sort by (ix, iy).

    Returns (ix, iy, weights); merged cells sum their weights, and weights
    stay None when none are given.
    """
    codes = _inside_codes(root, level, ix, iy)
    if weights is None:
        return (*_cell_index(root, level, np.unique(codes)), None)
    codes, inv = np.unique(codes, return_inverse=True)
    return (*_cell_index(root, level, codes),
            np.bincount(inv, weights=weights, minlength=codes.size))


class AtomMeasure(_CellSet):
    """Weighted atoms on the dyadic grid of one root box at one resolution.

    Immutable after construction: atoms are merged per cell, sorted, and the
    arrays are frozen.  `resolution` is the cell side (a power of two).
    """

    def __init__(self, root, resolution, ix, iy, weights):
        self.root = root
        self.resolution = float(resolution)
        self.level = level_for_resolution(root, self.resolution)

        w = np.asarray(weights, dtype=float)
        if not (np.shape(ix) == np.shape(iy) == w.shape):
            raise ValueError("atom arrays must have matching shapes")
        if w.size and w.min() <= 0.0:
            raise ValueError("atom weights must be positive")
        self.ix, self.iy, self.weights = _canonical_cells(root, self.level,
                                                          ix, iy, w)
        for a in (self.ix, self.iy, self.weights):
            a.flags.writeable = False
        self.total = float(self.weights.sum())

    def scaled(self, c):
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return type(self)(self.resolution, self.ix, self.iy, self.weights * c)

    def support(self):
        return PointSet(self.root, self.resolution, self.ix, self.iy)


class PlanarAtomMeasure(AtomMeasure):
    def __init__(self, resolution, ix, iy, weights):
        super().__init__(PLANE, resolution, ix, iy, weights)


class LineParamMeasure(AtomMeasure):
    def __init__(self, resolution, ix, iy, weights):
        super().__init__(LINESPACE, resolution, ix, iy, weights)

    def line_params(self):
        """(theta, r) cell centers as two arrays."""
        c = self.centers()
        return c[:, 0], c[:, 1]


def _measure_class(root):
    return PlanarAtomMeasure if root == PLANE else LineParamMeasure


@dataclass(frozen=True)
class PointSet(_CellSet):
    """Finite set of dyadic cells at one resolution (a discretized set)."""

    root: str
    resolution: float
    ix: np.ndarray
    iy: np.ndarray

    def __post_init__(self):
        level = level_for_resolution(self.root, self.resolution)
        ix, iy, _ = _canonical_cells(self.root, level, self.ix, self.iy)
        object.__setattr__(self, "ix", ix)
        object.__setattr__(self, "iy", iy)
        object.__setattr__(self, "level", level)


class CellFamilies(_CellSet):
    """Many cell sets of one root box at one resolution, stored back to back.

    Family k is the cells from `starts[k]` up to the next family's start (the
    last one up to the end), merged and sorted by (ix, iy) as in a PointSet;
    no family is empty.  `len` counts the cells of all families.  The
    constructor takes cells tagged with family numbers 0, 1, ... in any
    order; `concatenate` joins stores, or single sets as one family each,
    family by family.
    """

    def __init__(self, root, resolution, ix, iy, family):
        level = level_for_resolution(root, resolution)
        family = np.asarray(family, dtype=np.int64)
        if not (np.shape(ix) == np.shape(iy) == family.shape and family.size):
            raise ValueError("need one family number per cell, and some cells")
        nx, ny = grid_shape(root, level)
        keys = np.unique(family * (nx * ny)
                         + _inside_codes(root, level, ix, iy))
        family, codes = np.divmod(keys, nx * ny)
        step = np.diff(family, prepend=-1)
        if family[0] != 0 or step.max() > 1:
            raise ValueError("family numbers must run 0, 1, ... without gaps")
        self._set(root, resolution, level, *_cell_index(root, level, codes),
                  np.flatnonzero(step))

    def _set(self, root, resolution, level, ix, iy, starts):
        self.root = root
        self.resolution = float(resolution)
        self.level = level
        self.ix, self.iy, self.starts = ix, iy, starts
        for a in (ix, iy, starts):
            a.flags.writeable = False

    @classmethod
    def concatenate(cls, stores):
        """One store holding the families of `stores`, in order."""
        first = stores[0]
        if any((p.root, p.resolution) != (first.root, first.resolution)
               for p in stores):
            raise ValueError("stores differ in root box or resolution")
        offsets = np.cumsum([0] + [len(p) for p in stores[:-1]])
        out = cls.__new__(cls)
        out._set(first.root, first.resolution, first.level,
                 np.concatenate([p.ix for p in stores]),
                 np.concatenate([p.iy for p in stores]),
                 np.concatenate([p.starts + o for p, o in zip(stores, offsets)]))
        return out

    def family(self, k):
        """Family k as a PointSet."""
        a, b = np.append(self.starts, len(self))[k:k + 2]
        return PointSet(self.root, self.resolution, self.ix[a:b], self.iy[a:b])


def _dyadic_levels(cells, weights=None):
    """Per dyadic level, from the cells' own level up to the root.

    Yields (level, codes, values): the sorted codes of the occupied
    level-`level` squares and, per square, the number of cells it holds or,
    with `weights` (one per cell), their total weight.  When `cells` holds
    several families, a square's code is family * (squares per level) + its
    own code, so each family's squares stay apart and the families follow
    one another in order.
    """
    family = cells.family_numbers() if cells.starts.size > 1 else None
    for level in range(cells.level, -1, -1):
        code = _cell_codes(cells.root, cells.level, cells.ix, cells.iy,
                           cells.level - level)
        if family is not None:
            nx, ny = grid_shape(cells.root, level)
            code += family * (nx * ny)
        if weights is None:
            yield (level, *np.unique(code, return_counts=True))
        else:
            codes, inv = np.unique(code, return_inverse=True)
            yield level, codes, np.bincount(inv, weights=weights)


def frostman_constant(m, s):
    """max over dyadic squares Q (side >= resolution) of m(Q) / side(Q)^s.

    Comparable within an absolute factor to the ball-based Frostman constant.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(m) == 0 or m.total <= 0.0:
        raise ValueError("empty measure")
    return max(masses.max() / side_at_level(m.root, level) ** s
               for level, _, masses in _dyadic_levels(m, m.weights))


def _pair_energy_direct(pts, w, s, trunc):
    """Blocked double sum of w_i w_j max(|x_i-x_j|, trunc)^-s (diagonal included)."""
    n = pts.shape[0]
    block = 2048
    partials = []
    for a in range(0, n, block):
        pa = pts[a:a + block]
        dx = pa[:, 0:1] - pts[None, :, 0]
        dy = pa[:, 1:2] - pts[None, :, 1]
        d = np.hypot(dx, dy)
        np.maximum(d, trunc, out=d)
        k = d ** (-s)
        partials.append(float(np.dot(w[a:a + block], k @ w)))
    return math.fsum(partials)


def _pair_energy_fft(m, s, trunc):
    """Same double sum via autocorrelation of the weight grid.

    Atoms sit on a lattice of pitch `resolution`, so the displacement
    histogram C(v) = sum_{x_j - x_i = v} w_i w_j is an FFT autocorrelation of
    the (bounding-box cropped) weight grid; the energy is sum_v C(v) K(|v|).
    """
    d = m.resolution
    ix = m.ix - m.ix.min()
    iy = m.iy - m.iy.min()
    nx, ny = int(ix.max()) + 1, int(iy.max()) + 1
    grid = np.zeros((nx, ny))
    grid[ix, iy] = m.weights
    px, py = 2 * nx, 2 * ny
    spec = np.fft.rfft2(grid, s=(px, py))
    corr = np.fft.irfft2(np.abs(spec) ** 2, s=(px, py))
    fx = np.fft.fftfreq(px, 1.0 / px)  # signed displacements
    fy = np.fft.fftfreq(py, 1.0 / py)
    dist = d * np.hypot(fx[:, None], fy[None, :])
    np.maximum(dist, trunc, out=dist)
    return float(np.sum(corr * dist ** (-s)))


def riesz_energy_direct(m, s, trunc=None):
    """s-dimensional Riesz energy with the kernel truncated at short range.

    Sums w_i w_j max(|x_i - x_j|, trunc)^-s over all ordered atom pairs,
    diagonal included; `trunc` defaults to the measure resolution.  Above a
    size threshold the sum is evaluated by FFT autocorrelation (identical
    value up to roundoff; cross-checked in the test suite).
    """
    if not (0.0 < s < 2.0):
        raise ValueError("exponent s must lie in (0, 2)")
    if len(m) == 0:
        raise ValueError("empty measure")
    if trunc is None:
        trunc = m.resolution
    if trunc <= 0.0:
        raise ValueError("truncation must be positive")
    if len(m) <= 3000:
        return _pair_energy_direct(m.centers(), m.weights, s, trunc)
    return _pair_energy_fft(m, s, trunc)


def covering_number(P, rho):
    """Number of side-rho dyadic squares meeting P (rho a dyadic scale >= resolution)."""
    level = level_for_resolution(P.root, rho)
    if level > P.level:
        raise ValueError("rho must be a dyadic multiple of the resolution")
    return int(np.unique(_cell_codes(P.root, P.level, P.ix, P.iy,
                                     P.level - level)).size)


def radial_projection_covering(q, P):
    """Count of occupied dyadic resolution-intervals of direction angles.

    Maps each cell center y to the angle of (q - y)/|q - y| in [0,1)
    revolutions and counts distinct dyadic intervals of length `resolution`.
    Requires dist(q, P) >= 1/4.
    """
    if len(P) == 0:
        return 0
    pts = P.centers()
    dx = q[0] - pts[:, 0]
    dy = q[1] - pts[:, 1]
    dist = np.hypot(dx, dy)
    if dist.min() < 0.25:
        raise ValueError("separation violated")
    ang = np.mod(np.arctan2(dy, dx) / (2.0 * math.pi), 1.0)
    bins = np.floor(ang / P.resolution).astype(np.int64)
    nbins = round(1.0 / P.resolution)
    bins[bins >= nbins] = 0  # angle rounding onto 1.0 wraps to bin 0
    return int(np.unique(bins).size)


# ---------------------------------------------------------------------------
# generators

def _child_count_sequence(s, steps, branching):
    """Per-level kept-children counts whose products track ceil(2^(j*s)).

    Every kept cell keeps the same number of children at a given level, so
    the tree stays perfectly balanced and the Frostman constant is certified.
    """
    counts = []
    c = 1
    for j in range(1, steps + 1):
        try:
            target = math.ceil(2.0 ** (j * s))
            mj = int(math.floor(target / c + 0.5))
        except OverflowError:  # no float holds 2^(j s): far above any cap
            raise ValueError(f"{steps} levels at dimension {s} need more "
                             f"than 2^1023 cells") from None
        mj = min(branching, max(1, mj))
        counts.append(mj)
        c *= mj
    return counts


def _window_squares(root, window):
    """Dyadic squares, all at one level, tiling the box (x0, x1, y0, y1)."""
    squares = dyadic_cover_of_box(root, *window)
    if not squares:
        raise ValueError("empty window")
    # normalize a mixed-size tiling to its finest level
    lev = max(sq.level for sq in squares)
    out = []
    for sq in squares:
        stack = [sq]
        while stack:
            cur = stack.pop()
            if cur.level == lev:
                out.append(cur)
            else:
                stack.extend(cur.children())
    return out


# the largest measure a test, demo or desk experiment builds has 36,864
# atoms (exp_energy, dimension 1.9 at resolution 2^-8)
MAX_GENERATED_ATOMS = 100_000


def _check_atom_count(atoms):
    # called with the final atom count, before any per-atom array exists
    if atoms > MAX_GENERATED_ATOMS:
        shown = (atoms if atoms < 10 ** 15
                 else f"about 10^{math.log10(atoms):.0f}")
        raise ValueError(f"the measure would have {shown} atoms, above "
                         f"MAX_GENERATED_ATOMS = {MAX_GENERATED_ATOMS}")


def _generate_measure(root, s, delta, seed, window, style):
    if not (0.0 < s <= 2.0):
        raise ValueError(f"infeasible dimension {s} (need 0 < dimension <= 2)")
    level = level_for_resolution(root, delta)
    squares = _window_squares(root, window)
    steps = level - squares[0].level
    if steps < 0:
        raise ValueError("delta coarser than the window squares")

    ix = np.array([sq.ix for sq in squares], dtype=np.int64)
    iy = np.array([sq.iy for sq in squares], dtype=np.int64)

    if style == "four_corner":
        if not math.isclose(s, 1.0):
            raise ValueError("four_corner style is the dimension-1 construction")
        if steps % 2:
            raise ValueError("four_corner style needs an even number of levels")
        _check_atom_count(len(squares) * 4 ** (steps // 2))
        px = np.zeros_like(ix)
        py = np.zeros_like(iy)
        for j in range(1, steps + 1):
            if j % 2:  # keep all four children, remember the offsets
                off = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)
                ix = (2 * ix[:, None] + off[None, :, 0]).ravel()
                iy = (2 * iy[:, None] + off[None, :, 1]).ravel()
                px = np.repeat(off[None, :, 0], px.size, axis=0).ravel()
                py = np.repeat(off[None, :, 1], py.size, axis=0).ravel()
            else:      # keep the child continuing the previous offset
                ix = 2 * ix + px
                iy = 2 * iy + py
    else:
        counts = _child_count_sequence(s, steps, 4)
        _check_atom_count(len(squares) * math.prod(counts))
        rng = np.random.default_rng(seed)
        off = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)
        for mj in counts:
            n = ix.size
            if mj == 4:
                pick = np.broadcast_to(np.arange(4), (n, 4))
            else:
                pick = np.argsort(rng.random((n, 4)), axis=1)[:, :mj]
            ix = (2 * ix[:, None] + off[pick, 0]).ravel()
            iy = (2 * iy[:, None] + off[pick, 1]).ravel()

    w = np.full(ix.size, 1.0 / ix.size)
    m = _measure_class(root)(delta, ix, iy, w)
    _check_generated(m, s, delta, squares[0].side)
    return m


def _check_generated(m, s, delta, window_side):
    if frostman_constant(m, s) > 16.0:
        raise AssertionError("generator postcondition failed: Frostman constant > 16")
    # the dimension-s covering law is checked up to the window-square scale;
    # coarser scales saturate at the window-square count
    P = m.support()
    n = len(P)
    rho = delta
    while rho <= window_side:
        cov = covering_number(P, rho)
        target = rho ** (-s) * delta ** s * n
        if not (target / 16.0 <= cov <= 16.0 * target):
            raise AssertionError(
                f"generator postcondition failed: covering at rho={rho} is {cov}, "
                f"target {target:.3g}")
        rho *= 2.0


def generate_cantor_measure(s, delta, seed, window=None, style="random"):
    """Deterministic-pseudorandom s-dimensional measure on the plane grid.

    Subdivides the window squares down to cell side `delta`, keeping at each
    level a seeded subset of children so the kept count after j levels tracks
    ceil(2^(j*s)); kept leaves get equal weights summing to one.  Style
    "four_corner" builds the classical corner Cantor set (s = 1 only).
    Postconditions (Frostman constant <= 16, covering counts within factor 16
    of the dimension-s law) are verified and raise on failure.
    """
    if window is None:
        window = (-0.5, 0.5, -0.5, 0.5)
        if style == "four_corner":
            window = (0.0, 1.0, 0.0, 1.0)
    return _generate_measure(PLANE, s, delta, seed, window, style)


def generate_line_measure(s, delta, seed, theta_window=(0.25, 0.75),
                          r_window=(-1.0, 1.0)):
    """Dimension-s measure on the line-parameter grid [0,1) x [-2,2).

    The window defaults to [1/4,3/4] x [-1,1] so the angle seam at 0 = 1 is
    never active.
    """
    window = (theta_window[0], theta_window[1], r_window[0], r_window[1])
    return _generate_measure(LINESPACE, s, delta, seed, window, "random")
