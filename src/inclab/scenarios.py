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


MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier
# as its high and low 64-bit words
HASH_A, HASH_A_MULT = 0x43B0D7E5, 0x931E8875
HASH_B, HASH_B_MULT = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
PCG_MULT_HI, PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _seed_words(seed):
    """numpy's 32-bit entropy words of a seed: the little-endian words of a
    non-negative int (one zero word for 0), and the words of a sequence's
    entries in order."""
    if isinstance(seed, (int, np.integer)):
        n = int(seed)
        if n < 0:
            raise ValueError("expected non-negative integer")
        return [n >> k & MASK32 for k in range(0, max(n.bit_length(), 1), 32)]
    return [word for part in seed for word in _seed_words(part)]


def _hasher(h, mult):
    """SeedSequence's hash of 32-bit words in uint64 arrays: the word xor h,
    times the next h, xor its own high half; h advances by mult per call."""
    def hash32(value):
        nonlocal h
        value = value ^ h
        h = h * mult & MASK32
        value = value * h & MASK32
        return value ^ value >> 16
    return hash32


def _seed_state(entropy):
    """The four uint64 words SeedSequence(entropy).generate_state(4,
    np.uint64) gives, for every cell at once: entropy is a list of uint64
    arrays over the cells, one per 32-bit entropy word."""
    hashmix = _hasher(HASH_A, HASH_A_MULT)

    def mix(x, y):
        r = (MIX_L * x - MIX_R * y) & MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * entropy[0])
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = _hasher(HASH_B, HASH_B_MULT)
    words = [state(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step state * PCG_MULT + inc on 128-bit (hi, lo) words;
    the high word of lo * PCG_MULT_LO comes from 32-bit limbs."""
    a1, a0 = lo >> 32, lo & MASK32
    b1, b0 = PCG_MULT_LO >> 32, PCG_MULT_LO & MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * PCG_MULT_LO + inc_lo
    new_hi = (hi * PCG_MULT_LO + lo * PCG_MULT_HI + carry + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _cell_bits(seed, ix, iy, picks):
    """Bits (cells, picks): row j is default_rng(seed words + [ix[j],
    iy[j]]).integers(0, 2, size=picks), for all cells at once."""
    entropy = [np.full(ix.size, w, np.uint64) for w in _seed_words(seed)]
    s0, s1, s2, s3 = _seed_state(entropy + [ix, iy])
    # PCG64 seeding: inc = 2 initseq + 1, state = (inc + initstate) M + inc
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    bits = np.empty((ix.size, picks + picks % 2), np.uint64)
    for k in range(0, picks, 2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output
        out = x >> rot | x << (64 - rot & 63)
        bits[:, k], bits[:, k + 1] = out >> 31 & 1, out >> 63
    return bits[:, :picks]


def _direction_cantor(counts, seed, keys):
    """Dyadic s-dimensional subsets of [1/4, 3/4), one per cell (ix, iy) of
    `keys`: row j holds the interval center angles of the set of keys[j].

    Binary subdivision keeping the per-level child counts `counts` (from
    `_child_count_sequence(s, steps, 2)`, products in [2/3, 2) * 2^(j*s)); the
    surviving level-`steps` intervals have width 2^-(steps+1).  A level that
    keeps one child of two picks it with one fair bit per interval.

    Stream contract: a cell's bits, level by level, are those of
    np.random.default_rng([seed, ix, iy]).integers(0, 2, size=picks), as
    one call per level would draw them too.  They are computed for every
    cell at once: SeedSequence's pool and generate_state, PCG64's seeding
    and XSL-RR output, and the bounded draw for range 2, which is bit 31
    of each 32-bit half of an output, low half first.  That draw never
    rejects: its threshold (2^32 - 2) mod 2 is 0.  A grid cell's indices
    lie in [0, 2^32), so each is one entropy word, as numpy makes it.
    """
    picks = sum(math.prod(counts[:j]) for j, mj in enumerate(counts)
                if mj == 1)
    ix, iy = np.asarray(keys, np.uint64).reshape(-1, 2).T
    draws = _cell_bits(seed, ix, iy, picks)
    lows = np.full((ix.size, 1), 0.25)
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
