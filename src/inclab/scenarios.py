"""Configuration generators and measurement harnesses for the Furstenberg
tube-family bound, the tube-slicing experiment, and radial projections.

Generators build seeded deterministic fixtures: a planar fractal measure
together with per-point families of dyadic tubes (non-concentrated in the
line-parameter space), or a separated pair of fractal sets with the tube
bundle joining them.  Harnesses then measure dyadic contents and covering
numbers whose non-decay across scales is the quantity of interest.
"""

import math
from dataclasses import dataclass

import numpy as np

from .content import dyadic_content, smallest_delta_s_constant
from .geometry import (LINESPACE, PLANE, _cell_codes, _cell_index, grid_shape,
                       level_for_resolution, projection_range)
from .measures import (PointSet, generate_cantor_measure,
                       radial_projection_covering)

E_WINDOW = (-0.875, -0.625, -0.125, 0.125)
F_WINDOW = (0.625, 0.875, -0.125, 0.125)


def _direction_cantor(s, steps, rng):
    """Dyadic s-dimensional subset of [1/4, 3/4): interval center angles.

    Binary subdivision keeping per-level child counts whose products track
    2^(j*s); the surviving level-`steps` intervals have width 2^-(steps+1).
    """
    lows = np.array([0.25])
    width = 0.5
    c = 1
    for j in range(1, steps + 1):
        target = math.ceil(2.0 ** (j * s))
        mj = min(2, max(1, int(math.floor(target / c + 0.5))))
        c *= mj
        width *= 0.5
        if mj == 2:
            lows = np.concatenate([lows, lows + width])
        else:
            pick = rng.integers(0, 2, size=lows.size)
            lows = lows + pick * width
    return lows + 0.5 * width


@dataclass
class FurstenbergConfig:
    mu: object
    tube_cells: dict        # (ix, iy) of a mu-cell -> (theta_idx, r_idx) arrays
    s: float
    t: float
    delta: float
    seed: int

    def union_cells(self):
        ix = np.concatenate([v[0] for v in self.tube_cells.values()])
        iy = np.concatenate([v[1] for v in self.tube_cells.values()])
        return PointSet(LINESPACE, self.delta, ix, iy)

    def family(self, key):
        ix, iy = self.tube_cells[key]
        return PointSet(LINESPACE, self.delta, ix, iy)


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
    steps = level - 1  # direction intervals of width delta inside [1/4, 3/4)

    pts = mu.centers()
    tube_cells = {}
    for k in range(len(mu)):
        key = (int(mu.ix[k]), int(mu.iy[k]))
        rng = np.random.default_rng([seed, key[0], key[1]])
        thetas = _direction_cantor(s, steps, rng)
        rs = pts[k, 0] * np.cos(2.0 * math.pi * thetas) \
            + pts[k, 1] * np.sin(2.0 * math.pi * thetas)
        tix = np.floor(thetas / delta).astype(np.int64)
        tiy = np.floor((rs + 2.0) / delta).astype(np.int64)
        code = np.unique(_cell_codes(LINESPACE, level, tix, tiy))
        tube_cells[key] = _cell_index(LINESPACE, level, code)

    cfg = FurstenbergConfig(mu, tube_cells, s, t, delta, seed)
    _verify_furstenberg(cfg)
    return cfg


def _verify_furstenberg(cfg):
    pts = cfg.mu.centers()
    keys = list(cfg.tube_cells)
    for k, key in enumerate(keys):
        fam = cfg.family(key)
        if smallest_delta_s_constant(fam, cfg.s) > 16.0:
            raise AssertionError(
                f"tube family at cell {key} too concentrated for exponent {cfg.s}")
        # parameter cells sit on the projection graph of the cell center
        c = fam.centers()
        graph = pts[k, 0] * np.cos(2.0 * math.pi * c[:, 0]) \
            + pts[k, 1] * np.sin(2.0 * math.pi * c[:, 0])
        if np.abs(c[:, 1] - graph).max() > 2.0 * cfg.delta:
            raise AssertionError(f"tube family at cell {key} strays off its graph")


def furstenberg_content(cfg, sigma):
    """Dyadic content, at exponent sigma + 1, of the union tube-parameter set."""
    if not (0.0 <= sigma < cfg.s):
        raise ValueError("sigma must lie in [0, s)")
    if not cfg.tube_cells:
        return 0.0
    return dyadic_content(cfg.union_cells(), sigma + 1.0).value


# ---------------------------------------------------------------------------
# slicing configurations

@dataclass
class SlicingConfig:
    nu: object              # measure on E (dimension s)
    mu: object              # measure on F (dimension t)
    tubes: dict             # E-cell (ix, iy) -> (theta_idx, r_idx) arrays
    C: float                # 1 / (minimal tube-union mass)
    s: float
    t: float
    tau: float
    delta: float
    seed: int


def _column_ranges(pts, level):
    """Projection ranges of points over every angle column at a level.

    Returns (lo, hi) arrays of shape (n_columns, n_points).
    """
    cols = np.arange(2 ** level)[:, None]
    delta = 2.0 ** (-level)
    return projection_range(pts, cols * delta, (cols + 1) * delta)


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

    level = level_for_resolution(LINESPACE, delta)
    ncol, ny = grid_shape(LINESPACE, level)

    fpts = mu.centers()
    corners = np.array([[F_WINDOW[0], F_WINDOW[2]], [F_WINDOW[0], F_WINDOW[3]],
                        [F_WINDOW[1], F_WINDOW[2]], [F_WINDOW[1], F_WINDOW[3]]])
    corner_lo, corner_hi = _column_ranges(corners, level)
    win_lo = corner_lo.min(axis=1)
    win_hi = corner_hi.max(axis=1)

    f_lo, f_hi = _column_ranges(fpts, level)

    epts = nu.centers()
    tubes = {}
    masses = []
    for k in range(len(nu)):
        key = (int(nu.ix[k]), int(nu.iy[k]))
        x_lo, x_hi = projection_range(epts[k], np.arange(ncol) * delta,
                                      (np.arange(ncol) + 1) * delta)
        cix, ciy = [], []
        col_cells = {}
        for c in range(ncol):
            k_lo = math.floor((x_lo[c] - 2.0 * delta + 2.0) / delta)
            k_hi = math.floor((x_hi[c] + 2.0 * delta + 2.0) / delta)
            k_lo = max(k_lo, 0)
            k_hi = min(k_hi, ny - 1)
            if k_hi < k_lo:
                continue
            ks = np.arange(k_lo, k_hi + 1)
            r0 = ks * delta - 2.0
            meets_f = (r0 <= win_hi[c]) & (r0 + delta >= win_lo[c])
            ks = ks[meets_f]
            if ks.size:
                col_cells[c] = ks
                cix.append(np.full(ks.size, c, dtype=np.int64))
                ciy.append(ks.astype(np.int64))
        if not cix:
            raise ValueError(f"mass condition unachievable at E-cell {key}")
        tubes[key] = (np.concatenate(cix), np.concatenate(ciy))

        covered = np.zeros(len(mu), dtype=bool)
        for c, ks in col_cells.items():
            y_klo = np.floor((f_lo[c] + 2.0) / delta).astype(np.int64)
            y_khi = np.floor((f_hi[c] + 2.0) / delta).astype(np.int64)
            pos_lo = np.searchsorted(ks, y_klo, side="left")
            pos_hi = np.searchsorted(ks, y_khi, side="right")
            covered |= pos_hi > pos_lo
        mass = float(mu.weights[covered].sum())
        if mass <= 0.0:
            raise ValueError(f"mass condition unachievable at E-cell {key}")
        masses.append(mass)

    return SlicingConfig(nu, mu, tubes, 1.0 / min(masses), s, t, tau, delta, seed)


@dataclass
class SlicingContentResult:
    value: float
    x_cell: tuple
    tube_cell: tuple


def tube_cell_members(cfg, tube_cell, slack=None):
    """F-cells met by the tube of one parameter cell (2 delta halfwidth slack)."""
    delta = cfg.delta
    if slack is None:
        slack = 2.0 * delta
    c, kcell = tube_cell
    fpts = cfg.mu.centers()
    lo, hi = projection_range(fpts, c * delta, (c + 1) * delta)
    r_lo = kcell * delta - 2.0 - slack
    r_hi = (kcell + 1) * delta - 2.0 + slack
    hit = (lo <= r_hi) & (hi >= r_lo)
    return PointSet(PLANE, delta, cfg.mu.ix[hit], cfg.mu.iy[hit])


def slicing_tube_content(cfg):
    """Max over (E-cell, tube) of the content of the tube's F-slice.

    Contents are evaluated at exponent tau - 1 on the F-cells met by each
    tube (with 2 delta halfwidth slack); returns the maximum and its witness.
    """
    best = SlicingContentResult(0.0, None, None)
    exponent = cfg.tau - 1.0
    seen = {}
    for key in sorted(cfg.tubes):
        tix, tiy = cfg.tubes[key]
        for c, kcell in zip(tix, tiy):
            tc = (int(c), int(kcell))
            if tc in seen:
                val = seen[tc]
            else:
                members = tube_cell_members(cfg, tc)
                val = dyadic_content(members, exponent).value if len(members) else 0.0
                seen[tc] = val
            if val > best.value:
                best = SlicingContentResult(val, key, tc)
    return best


# ---------------------------------------------------------------------------
# radial projections

def config_to_record(cfg):
    """Audit record of a configuration: seed, parameters, and atom lists."""
    from .measures import measure_to_record

    if isinstance(cfg, FurstenbergConfig):
        return {
            "kind": "furstenberg",
            "seed": cfg.seed,
            "params": {"s": cfg.s, "t": cfg.t, "delta": cfg.delta},
            "mu": measure_to_record(cfg.mu),
            "tubes": {f"{k[0]},{k[1]}": np.column_stack(v).tolist()
                      for k, v in sorted(cfg.tube_cells.items())},
        }
    if isinstance(cfg, SlicingConfig):
        return {
            "kind": "slicing",
            "seed": cfg.seed,
            "params": {"s": cfg.s, "t": cfg.t, "tau": cfg.tau,
                       "delta": cfg.delta, "C": cfg.C},
            "nu": measure_to_record(cfg.nu),
            "mu": measure_to_record(cfg.mu),
            "tubes": {f"{k[0]},{k[1]}": np.column_stack(v).tolist()
                      for k, v in sorted(cfg.tubes.items())},
        }
    raise TypeError("expected a FurstenbergConfig or SlicingConfig")


def _tube_concentration(P, delta, n_directions=64):
    """Largest fraction of P inside one 2-delta projection slab.

    A set of dimension above one keeps this fraction small; a set lying
    along a single line concentrates a full projection bin in the
    perpendicular direction.
    """
    pts = P.centers()
    worst = 0.0
    for k in range(n_directions):
        a = math.pi * k / n_directions
        proj = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a)
        bins = np.floor(proj / (2.0 * delta)).astype(np.int64)
        _, counts = np.unique(bins, return_counts=True)
        worst = max(worst, counts.max() / len(P))
    return worst


@dataclass
class RadialReport:
    threshold: float
    rows: list              # (q point, covering_full, min over subsets)
    best_q: tuple
    best_covering: int
    fraction: float
    passed: bool


def radial_check(E, F, sigma, delta, s, t, seed=0, sample_size=256,
                 n_subsets=8):
    """Radial covering-number check from sampled viewpoints.

    For each sampled F-cell center q, counts the occupied direction
    intervals of E and of seeded half-subsets of E; reports the best q,
    the fraction of sampled q reaching delta^-sigma on the full set and
    every subset, and whether any q passes.  Preconditions (separation,
    declared dimensions of E and F) are verified and raise by name.
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
    qi = rng.choice(len(F), size=min(sample_size, len(F)), replace=False)
    qi.sort()

    subsets = []
    for j in range(n_subsets):
        sub_rng = np.random.default_rng([seed, 202, j])
        pick = np.sort(sub_rng.choice(len(E), size=len(E) // 2, replace=False))
        subsets.append(PointSet(E.root, E.resolution, E.ix[pick], E.iy[pick]))

    threshold = delta ** (-sigma)
    rows = []
    best_q, best_cov = None, -1
    hits = 0
    for i in qi:
        q = (float(fc[i, 0]), float(fc[i, 1]))
        full = radial_projection_covering(q, E)
        worst = full
        for sub in subsets:
            worst = min(worst, radial_projection_covering(q, sub))
        rows.append((q, full, worst))
        if worst > best_cov:
            best_q, best_cov = q, worst
        if worst >= threshold:
            hits += 1
    fraction = hits / len(qi)
    return RadialReport(threshold, rows, best_q, best_cov, fraction,
                        best_cov >= threshold)
