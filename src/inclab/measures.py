"""Discrete measures on dyadic grids, their diagnostics, and fractal generators.

A measure is a finite set of weighted atoms identified with dyadic cells of a
fixed resolution, either in the plane box [-2,2)^2 or in the line-parameter
box [0,1) x [-2,2).  Diagnostics (Frostman constants, Riesz energies,
covering numbers, radial projections) quantify over dyadic squares only; the
comparison with ball-based quantities is absorbed into absolute constants.
`_dyadic_levels`, the one walk up the dyadic levels, serves the Frostman
check, the generator's covering law and the content layer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (LINESPACE, PLANE, _cell_codes, _cell_index,
                       grid_shape, level_for_resolution, root_extent,
                       side_at_level)


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
        # return_counts keeps numpy 2.4's sort path, which is 20-30x faster
        # than the bare call's hashing on mostly distinct int64 codes; an
        # inverse would cost four more arrays the size of `codes`
        codes, _ = np.unique(codes, return_counts=True)
        return (*_cell_index(root, level, codes), None)
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
        # return_counts: numpy's sort path, as in _canonical_cells
        keys, _ = np.unique(family * (nx * ny)
                            + _inside_codes(root, level, ix, iy),
                            return_counts=True)
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

    Yields (level, codes, values, starts, up): the sorted codes of the
    occupied squares; per square, its cell count or, with `weights` (one
    per cell), their total weight; each family's first square; and each
    square's parent position in the next level (None at level 0).  A store
    codes its squares as the cells (family * nx + ix, iy), so families stay
    apart in order and, as nx halves per level up, one shift finds a parent.
    """
    root = cells.root
    nx, _ = grid_shape(root, cells.level)
    codes = _cell_codes(root, cells.level,
                        cells.family_numbers() * nx + cells.ix, cells.iy)
    starts, square = cells.starts, np.arange(len(cells))  # cell -> square
    for level in range(cells.level, -1, -1):
        values = np.bincount(square, weights=weights, minlength=codes.size)
        if level == 0:
            yield level, codes, values, starts, None
            return
        parents, up = np.unique(
            _cell_codes(root, level, *_cell_index(root, level, codes), 1),
            return_inverse=True)
        yield level, codes, values, starts, up
        # parent codes are not monotone in (ix, iy) order, so a family's
        # first parent is the least parent of its squares
        codes, square, starts = (parents, up[square],
                                 np.minimum.reduceat(up, starts))


def frostman_constant(m, s):
    """max over dyadic squares Q (side >= resolution) of m(Q) / side(Q)^s.

    Comparable within an absolute factor to the ball-based Frostman constant.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(m) == 0 or m.total <= 0.0:
        raise ValueError("empty measure")
    return max(masses.max() / side_at_level(m.root, level) ** s
               for level, _, masses, _, _ in _dyadic_levels(m, m.weights))


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


# the largest energy grids a test, demo, desk or bench run builds have 2^20
# cells: exp_energy's Fourier grid at 2^-8, exp_incidence_sweep's 512 x 2048
MAX_ENERGY_GRID = 2 ** 22


def _check_energy_grid(nx, ny):
    if nx * ny > MAX_ENERGY_GRID:  # called before the grid exists
        raise ValueError(f"the energy grid would have {nx} x {ny} cells, "
                         f"above MAX_ENERGY_GRID = {MAX_ENERGY_GRID}")


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
    px, py = 2 * nx, 2 * ny
    _check_energy_grid(px, py)
    grid = np.zeros((nx, ny))
    grid[ix, iy] = m.weights
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


# child offsets (dx, dy) of a cell, indexed by the generator's picks
OFFSETS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)


def _children(cells, pick):
    """Children OFFSETS[pick] of the (n, 2) array of cells (ix, iy), cell by
    cell; `pick` is one row of offset indices for every cell, or one row per
    cell."""
    return (2 * cells[:, None] + OFFSETS[pick]).reshape(-1, 2)


def _window_cells(root, window):
    """Maximal dyadic squares tiling the half-open box (x0, x1, y0, y1).

    Returns (level, ix, iy) arrays in greedy depth-first order: the roots by
    (iy, ix), then children (dx, dy) = (0, 0), (1, 0), (0, 1), (1, 1).  The
    box edges must be dyadic (multiples of some cell side); raises otherwise.
    """
    x_lo, x_hi, y_lo, y_hi = window
    (rx0, rx1), (ry0, ry1) = root_extent(root)
    if not (rx0 <= x_lo < x_hi <= rx1 and ry0 <= y_lo < y_hi <= ry1):
        raise ValueError("box not contained in the root box")
    nx, ny = grid_shape(root, 0)
    stack = [(0, ix, iy) for iy in range(ny) for ix in range(nx)][::-1]
    cells = []
    while stack:
        level, ix, iy = stack.pop()
        side = side_at_level(root, level)
        xlo, ylo = rx0 + ix * side, ry0 + iy * side
        if xlo + side <= x_lo or xlo >= x_hi or ylo + side <= y_lo or ylo >= y_hi:
            continue
        if x_lo <= xlo and xlo + side <= x_hi and y_lo <= ylo and ylo + side <= y_hi:
            cells.append((level, ix, iy))
        elif level >= 40:  # a box edge this fine counts as not dyadic
            raise ValueError("box edges are not dyadic")
        else:
            stack += [(level + 1, 2 * ix + dx, 2 * iy + dy)
                      for dx, dy in ((1, 1), (0, 1), (1, 0), (0, 0))]
    return np.array(cells, dtype=np.int64).T


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
    levels, ix, iy = _window_cells(root, window)
    top = int(levels.max())
    steps = level - top
    if steps < 0:
        raise ValueError("delta coarser than the window squares")

    # each window square split down to the finest window level, last child
    # first; the random streams below are drawn per cell in this order
    cells = []
    for lv, cell in zip(levels, np.column_stack([ix, iy])[:, None]):
        for _ in range(top - lv):
            cell = _children(cell, [3, 1, 2, 0])
        cells.append(cell)
    cells = np.concatenate(cells)

    if style == "four_corner":
        if not math.isclose(s, 1.0):
            raise ValueError("four_corner style is the dimension-1 construction")
        if steps % 2:
            raise ValueError("four_corner style needs an even number of levels")
        _check_atom_count(len(cells) * 4 ** (steps // 2))
        for j in range(steps):
            # keep all four children, then the child continuing each offset
            pick = (np.arange(4) if j % 2 == 0
                    else (np.arange(len(cells)) % 4)[:, None])
            cells = _children(cells, pick)
    else:
        counts = _child_count_sequence(s, steps, 4)
        _check_atom_count(len(cells) * math.prod(counts))
        rng = np.random.default_rng(seed)
        for mj in counts:
            pick = (np.arange(4) if mj == 4 else
                    np.argsort(rng.random((len(cells), 4)), axis=1)[:, :mj])
            cells = _children(cells, pick)

    w = np.full(len(cells), 1.0 / len(cells))
    m = _measure_class(root)(delta, cells[:, 0], cells[:, 1], w)
    _check_generated(m, s, delta, side_at_level(root, top))
    return m


def _check_generated(m, s, delta, window_side):
    if frostman_constant(m, s) > 16.0:
        raise AssertionError("generator postcondition failed: Frostman constant > 16")
    # the dimension-s covering law is checked up to the window-square scale;
    # coarser scales saturate at the window-square count
    for level, codes, _, _, _ in _dyadic_levels(m):
        rho = side_at_level(m.root, level)
        if rho > window_side:
            break
        target = rho ** (-s) * delta ** s * len(m)
        if not (target / 16.0 <= codes.size <= 16.0 * target):
            raise AssertionError(
                f"generator postcondition failed: covering at rho={rho} is "
                f"{codes.size}, target {target:.3g}")


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


def generate_line_measure(s, delta, seed, window=(0.25, 0.75, -1.0, 1.0)):
    """Dimension-s measure on the line-parameter grid [0,1) x [-2,2).

    The window (theta_lo, theta_hi, r_lo, r_hi) defaults to [1/4,3/4] x [-1,1]
    so the angle seam at 0 = 1 is never active.
    """
    return _generate_measure(LINESPACE, s, delta, seed, window, "random")
