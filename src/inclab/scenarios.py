"""Configuration generators and measurement harnesses for the Furstenberg
tube-family bound, the tube-slicing experiment, and radial projections.

Generators build seeded deterministic fixtures: a planar fractal measure
together with per-point families of dyadic tubes (non-concentrated in the
line-parameter space), or a separated pair of fractal sets with the tube
bundle joining them.  Both store their tube families the same way: one
CellFamilies store of line-parameter cells, family k running through the
k-th cell of the planar measure (in its (ix, iy) order).  Harnesses
then measure dyadic contents and covering numbers whose non-decay across
scales is the quantity of interest; the non-empty F-slices of the slicing
tubes go through one content DP as one more CellFamilies store.
"""

import math
from dataclasses import dataclass

import numpy as np

from .content import dyadic_content, smallest_delta_s_constant
from .geometry import (LINESPACE, PLANE, _cell_codes, _cell_index,
                       grid_shape, level_for_resolution, project,
                       projection_range)
from .measures import (CellFamilies, PointSet, _child_count_sequence,
                       generate_cantor_measure, radial_projection_covering)

E_WINDOW = (-0.875, -0.625, -0.125, 0.125)
F_WINDOW = (0.625, 0.875, -0.125, 0.125)


# build_furstenberg projects, merges and checks its families in blocks of
# about this many cells, which bounds its temporaries
FAMILY_BLOCK_CELLS = 2 ** 15

# the largest tube store a test, demo or desk experiment builds has 248,832
# cells (exp_furstenberg, s = 0.8 and t = 1.4 at resolution 2^-8)
MAX_TUBE_CELLS = 2 ** 21
# build_slicing's tables are angle columns x F-cells (294,912 entries for
# exp_slicing at 2^-8) and angle columns x E-cells.  s < t on windows of the
# same size mostly makes E the smaller, but the generator's rounding can
# make it the larger (64 against 48 cells at s = 1, t = 1.0183 and 2^-7),
# so both are checked.
MAX_SLICING_TABLE = 2 ** 21


def _direction_cantor(counts, seed, keys):
    """Dyadic s-dimensional subsets of [1/4, 3/4), one per cell (ix, iy) of
    `keys`: row j holds the interval center angles of the set of keys[j].

    Binary subdivision keeping the per-level child counts `counts` (from
    `_child_count_sequence(s, steps, 2)`, products in [2/3, 2) * 2^(j*s)); the
    surviving level-`steps` intervals have width 2^-(steps+1).  A level that
    keeps one child of two picks it with one fair bit per interval.  Each
    cell draws all of its set's bits in one call to its own generator,
    seeded [seed, ix, iy], which gives the stream that one call per level
    would give; the levels then run on all sets at once.
    """
    picks = sum(math.prod(counts[:j]) for j, mj in enumerate(counts)
                if mj == 1)
    draws = np.array([np.random.default_rng([seed, ix, iy])
                      .integers(0, 2, size=picks) for ix, iy in keys])
    lows = np.full((len(keys), 1), 0.25)
    width = 0.5
    used = 0
    for mj in counts:
        width *= 0.5
        if mj == 2:
            lows = np.concatenate([lows, lows + width], axis=1)
        else:
            k = lows.shape[1]
            lows = lows + draws[:, used:used + k] * width
            used += k
    return lows + 0.5 * width


@dataclass
class FurstenbergConfig:
    mu: object
    tube_cells: CellFamilies  # family k: the tube cells through mu-cell k
    s: float
    t: float
    delta: float
    seed: int

    def union_cells(self):
        return PointSet(LINESPACE, self.delta, self.tube_cells.ix,
                        self.tube_cells.iy)


def build_furstenberg(s, t, delta, seed):
    """Fractal measure plus, for each support cell, a seeded direction-set
    tube family through that cell.

    Each support cell p draws an s-dimensional set of directions in
    [1/4, 3/4] (independently seeded per cell) and contributes, per
    direction theta, the line-parameter cell containing (theta, p . e_theta).
    Verifies per-family non-concentration at build time.
    """
    if not (1.0 < t <= 2.0):
        raise ValueError("t must lie in (1, 2]")
    if not (2.0 - t < s <= 1.0):
        raise ValueError("s must lie in (2 - t, 1]")
    level = level_for_resolution(LINESPACE, delta)
    mu = generate_cantor_measure(t, delta, seed)
    # direction intervals of width delta inside [1/4, 3/4)
    counts = _child_count_sequence(s, level - 1, 2)
    cells = len(mu) * math.prod(counts)
    if cells > MAX_TUBE_CELLS:  # checked before any tube array exists
        raise ValueError(f"the tube families would have {cells} cells, "
                         f"above MAX_TUBE_CELLS = {MAX_TUBE_CELLS}")

    pts = mu.centers()
    keys = list(zip(mu.ix.tolist(), mu.iy.tolist()))
    per_block = max(1, FAMILY_BLOCK_CELLS // math.prod(counts))
    blocks = []
    for a in range(0, len(mu), per_block):
        block = slice(a, a + per_block)
        thetas = _direction_cantor(counts, seed, keys[block])
        fams = _tube_families(pts[block], thetas, delta)
        _check_families(fams, pts[block], keys[block], s, delta)
        blocks.append(fams)
    return FurstenbergConfig(mu, CellFamilies.concatenate(blocks),
                             s, t, delta, seed)


# tube row k of the line-parameter box holds the offsets from
# R_LOW + k delta up to R_LOW + (k + 1) delta
R_LOW = -2.0


def _row(r, delta):
    """The tube row holding offset r."""
    return np.floor((r - R_LOW) / delta).astype(np.int64)


def _tube_families(pts, thetas, delta):
    """Store of the line-parameter cells (theta, pts[j] . e_theta), family j
    over the angles of row j of the (families, angles) array thetas."""
    family = np.repeat(np.arange(len(thetas)), thetas.shape[1])
    theta = thetas.ravel()
    r = project(pts[family], theta)
    return CellFamilies(LINESPACE, delta,
                        np.floor(theta / delta).astype(np.int64),
                        _row(r, delta), family)


def _check_families(fams, pts, keys, s, delta):
    """Raise for the first family that is too concentrated at exponent s or
    strays off the projection graph of its point; family k belongs to the
    point pts[k] of the cell keys[k], and concentration is reported first."""
    dense = smallest_delta_s_constant(fams, s) > 16.0
    # parameter cells sit on the projection graph of the cell center
    c = fams.centers()
    p = pts[fams.family_numbers()]
    stray = np.maximum.reduceat(np.abs(c[:, 1] - project(p, c[:, 0])),
                                fams.starts) > 2.0 * delta
    bad = np.flatnonzero(dense | stray)
    if bad.size:
        key = keys[bad[0]]
        if dense[bad[0]]:
            raise AssertionError(
                f"tube family at cell {key} too concentrated for exponent {s}")
        raise AssertionError(f"tube family at cell {key} strays off its graph")


def furstenberg_content(cfg, sigma):
    """Dyadic content, at exponent sigma + 1, of the union tube-parameter set."""
    if not (0.0 <= sigma < cfg.s):
        raise ValueError("sigma must lie in [0, s)")
    return dyadic_content(cfg.union_cells(), sigma + 1.0).value


# ---------------------------------------------------------------------------
# slicing configurations

@dataclass
class SlicingConfig:
    nu: object              # measure on E (dimension s)
    mu: object              # measure on F (dimension t)
    tubes: CellFamilies     # family k: the tube cells through nu-cell k
    f_lo: np.ndarray        # projection range of each F-cell center over
    f_hi: np.ndarray        # each angle column, shape (n_columns, len(mu))
    C: float                # 1 / (minimal tube-union mass)
    s: float
    t: float
    tau: float
    delta: float
    seed: int


def build_slicing(s, t, tau, delta, seed):
    """Separated fractal pair joined by all tubes from E toward F.

    E carries an s-dimensional set (window around (-0.75, 0)), F a
    t-dimensional measure (window around (0.75, 0)); the supports are 1.25
    apart.  For each E-cell x the family holds every line-parameter cell
    whose tube meets B(x, 2 delta) and can meet F's window; the reciprocal
    of the minimal union mass is recorded as the constant C.
    """
    if not (0.0 < s <= 1.0 and 1.0 < t <= 2.0):
        raise ValueError("need s in (0, 1] and t in (1, 2]")
    if s + t <= 2.0:
        raise ValueError("need s + t > 2")
    if not (1.0 < tau < t):
        raise ValueError("tau must lie in (1, t)")
    nu = generate_cantor_measure(s, delta, [seed, 0], window=E_WINDOW)
    mu = generate_cantor_measure(t, delta, [seed, 1], window=F_WINDOW)

    ncol, ny = grid_shape(LINESPACE, level_for_resolution(LINESPACE, delta))
    for what, size in (("F-cell range table", ncol * len(mu)),
                       ("E-cell row interval table", ncol * len(nu))):
        if size > MAX_SLICING_TABLE:  # checked before any table exists
            raise ValueError(f"the {what} would have {size} entries, above "
                             f"MAX_SLICING_TABLE = {MAX_SLICING_TABLE}")
    # projection ranges over each angle column, shape (ncol, points)
    theta = np.arange(ncol)[:, None] * delta
    corners = np.array([[F_WINDOW[0], F_WINDOW[2]], [F_WINDOW[0], F_WINDOW[3]],
                        [F_WINDOW[1], F_WINDOW[2]], [F_WINDOW[1], F_WINDOW[3]]])
    corner_lo, corner_hi = projection_range(corners, theta, theta + delta)
    f_lo, f_hi = projection_range(mu.centers(), theta, theta + delta)
    e_lo, e_hi = projection_range(nu.centers(), theta, theta + delta)

    # in column c, E-cell k's tube rows are [a[c, k], b[c, k]] (none when
    # a > b): rows within 2 delta of the cell's range whose tube can meet
    # F's window, r0 <= window hi and r0 + delta >= window lo
    r0 = R_LOW + np.arange(ny) * delta
    first = np.searchsorted(r0 + delta, corner_lo.min(axis=1), side="left")
    last = np.searchsorted(r0, corner_hi.max(axis=1), side="right") - 1
    a = np.maximum(_row(e_lo - 2.0 * delta, delta), first[:, None])
    b = np.minimum(_row(e_hi + 2.0 * delta, delta), last[:, None])
    y_lo, y_hi = _row(f_lo, delta), _row(f_hi, delta)
    masses = []
    for k in range(len(nu)):
        # an F-cell is covered when, in some column, its row range
        # [y_lo, y_hi] meets the tube rows
        cols = np.flatnonzero(a[:, k] <= b[:, k])
        hits = (np.maximum(a[cols, k, None], y_lo[cols])
                <= np.minimum(b[cols, k, None], y_hi[cols]))
        masses.append(float(mu.weights[hits.any(axis=0)].sum()))
        if masses[-1] <= 0.0:
            raise ValueError("mass condition unachievable at E-cell "
                             f"{(int(nu.ix[k]), int(nu.iy[k]))}")

    # one run of rows per (column, E-cell); a cell's row is its run's
    # first row plus its position in the run
    lengths = np.maximum(b - a + 1, 0).ravel()
    run = np.repeat(np.arange(lengths.size), lengths)
    col, family = np.divmod(run, len(nu))
    iy = (np.repeat(a.ravel(), lengths) + np.arange(run.size)
          - np.searchsorted(run, run))
    tubes = CellFamilies(LINESPACE, delta, col, iy, family)

    return SlicingConfig(nu, mu, tubes, f_lo, f_hi, 1.0 / min(masses),
                         s, t, tau, delta, seed)


def tube_cell_members(cfg, cols, rows):
    """Hit mask of the tube cells (cols[i], rows[i]) against the F-cells:
    entry (i, j) says whether F-cell j meets the tube of cell i, with 2 delta
    halfwidth slack."""
    slack = 2.0 * cfg.delta
    r_lo = R_LOW + rows * cfg.delta - slack
    r_hi = R_LOW + (rows + 1) * cfg.delta + slack
    return ((cfg.f_lo[cols] <= r_hi[:, None])
            & (cfg.f_hi[cols] >= r_lo[:, None]))


def slicing_tube_content(cfg):
    """Max over (E-cell, tube) of the content of the tube's F-slice.

    Contents are evaluated at exponent tau - 1 on the F-cells met by each
    tube (with 2 delta halfwidth slack), a tube meeting none counting 0;
    returns (maximum, E-cell, tube cell) with the witness the first pair
    reaching it in (E-cell, tube cell) order, cells as (ix, iy).
    """
    fams = cfg.tubes
    cells, inv = np.unique(_cell_codes(LINESPACE, fams.level, fams.ix, fams.iy),
                           return_inverse=True)
    hits = tube_cell_members(cfg, *_cell_index(LINESPACE, fams.level, cells))
    met = hits.any(axis=1)
    # one store of the non-empty slices, slice k the k-th tube cell met
    slice_no, member = np.nonzero(hits[met])
    slices = CellFamilies(PLANE, cfg.delta, cfg.mu.ix[member],
                          cfg.mu.iy[member], slice_no)
    values = np.zeros(cells.size)
    values[met] = dyadic_content(slices, cfg.tau - 1.0)
    values = values[inv]
    best = int(np.argmax(values))  # the first maximum
    k = fams.family_numbers()[best]
    return (float(values[best]), (int(cfg.nu.ix[k]), int(cfg.nu.iy[k])),
            (int(fams.ix[best]), int(fams.iy[best])))


# ---------------------------------------------------------------------------
# radial projections

TUBE_DIRECTIONS = 64  # slab directions over a half-turn in _tube_concentration


def _tube_concentration(P, delta):
    """Largest fraction of P inside one 2-delta projection slab.

    A set of dimension above one keeps this fraction small; a set lying
    along a single line concentrates a full projection bin in the
    perpendicular direction.
    """
    pts = P.centers()
    worst = 0.0
    for k in range(TUBE_DIRECTIONS):
        proj = project(pts, k / (2 * TUBE_DIRECTIONS))  # angle pi k / 64
        bins = np.floor(proj / (2.0 * delta)).astype(np.int64)
        _, counts = np.unique(bins, return_counts=True)
        worst = max(worst, counts.max() / len(P))
    return worst


RADIAL_VIEWPOINTS = 256  # sampled F-cell centers q
RADIAL_SUBSETS = 8  # seeded half-subsets of E checked from each q


def radial_check(E, F, sigma, delta, s, t, seed=0):
    """Radial covering-number check from sampled viewpoints.

    For each of RADIAL_VIEWPOINTS sampled F-cell centers q, counts the
    occupied direction intervals of E and of RADIAL_SUBSETS seeded
    half-subsets of E.  Returns (rows, summary): per q, `covering_full` and
    `covering_min` (the least over E and every subset); the summary's
    `best_q` is the first q with the largest `covering_min`, and `pass`
    says whether that reaches the `threshold` delta^-sigma.  Preconditions
    (separation, declared dimensions of E and F) are verified and raise by
    name.
    """
    if not (t > 1.0):
        raise ValueError("declared dimension t must exceed 1")
    if not (s > sigma):
        raise ValueError("declared dimension s must exceed sigma")
    if len(E) == 0 or len(F) == 0:
        raise ValueError("empty set")

    ec = E.centers()
    fc = F.centers()
    d2min = np.inf
    for a in range(0, len(fc), 256):
        blk = fc[a:a + 256]
        dx = blk[:, 0:1] - ec[None, :, 0]
        dy = blk[:, 1:2] - ec[None, :, 1]
        d2min = min(d2min, float((dx * dx + dy * dy).min()))
    if math.sqrt(d2min) < 0.25:
        raise ValueError("separation violated")

    if len(E) < delta ** (-s) / 32.0:
        raise ValueError("E too small for declared dimension s")
    if len(F) < delta ** (-t) / 32.0:
        raise ValueError("F too small for declared dimension t")
    if smallest_delta_s_constant(E, s) > 64.0:
        raise ValueError("E too concentrated for declared dimension s")
    if smallest_delta_s_constant(F, t) > 64.0:
        raise ValueError("F too concentrated for declared dimension t")
    if _tube_concentration(F, delta) > 0.5:
        raise ValueError(
            "F concentrated near a single line (violates dimension t > 1)")

    rng = np.random.default_rng([seed, 101])
    qi = np.sort(rng.choice(len(F), size=min(RADIAL_VIEWPOINTS, len(F)),
                            replace=False))

    subsets = []
    for j in range(RADIAL_SUBSETS):
        sub_rng = np.random.default_rng([seed, 202, j])
        pick = np.sort(sub_rng.choice(len(E), size=len(E) // 2, replace=False))
        subsets.append(PointSet(E.root, E.resolution, E.ix[pick], E.iy[pick]))

    threshold = delta ** (-sigma)
    qs = fc[qi]
    full = radial_projection_covering(qs, E)
    worst = np.min([full] + [radial_projection_covering(qs, sub)
                             for sub in subsets], axis=0)
    # tolist gives Python floats and ints, which the JSON summary needs
    rows = [{"q_x": x, "q_y": y, "covering_full": f, "covering_min": w}
            for (x, y), f, w in zip(qs.tolist(), full.tolist(),
                                    worst.tolist())]
    best = max(rows, key=lambda r: r["covering_min"])  # the first maximum
    hits = sum(r["covering_min"] >= threshold for r in rows)
    return rows, {"threshold": threshold,
                  "best_covering": best["covering_min"],
                  "best_q": (best["q_x"], best["q_y"]),
                  "fraction": hits / len(rows),
                  "pass": bool(best["covering_min"] >= threshold)}
