"""Dyadic Hausdorff content by exact tree DP, non-concentration constants,
greedy Katz-Tao extraction, and the multiscale cover decomposition.

Content here is the infimum of sum(side^s) over covers of a cell set by
dyadic squares of side between the set's resolution and the root side.  Over
dyadic covers the infimum is attained and computed exactly by a bottom-up
dynamic program; the comparison with ball covers is an absolute constant and
never enters any ratio computed elsewhere.  The DP and the non-concentration
constant also take a CellFamilies store and give one value per family.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (DyadicSquare, _cell_codes, _cell_index, grid_shape,
                       side_at_level)
from .measures import CellFamilies, PointSet, _dyadic_levels


class CoverError(Exception):
    pass


@dataclass
class ContentResult:
    value: float
    cover: list
    exponent: float


@dataclass
class MultiscaleCover:
    exponent: float
    families: dict  # level -> list of DyadicSquare
    value: float

    def scales(self):
        return sorted(self.families)


def _level_arrays(P, top_level):
    """Bottom-up occupied-square codes with parent index maps.

    Returns a list from the leaf level up to `top_level`; each entry is
    (level, codes, parent_inverse) where parent_inverse maps this level's
    squares to positions in the next (coarser) entry.  A store's code
    family * nx * ny + ix * ny + iy is the code of the cell
    (family * nx + ix, iy), and nx halves per level up, so the same shift
    finds the parent of a square of any family.
    """
    out = []
    for level, codes, _ in _dyadic_levels(P):
        if out:
            child = out[-1][1]
            up = _cell_codes(P.root, level + 1,
                             *_cell_index(P.root, level + 1, child), 1)
            out[-1] = (level + 1, child, np.searchsorted(codes, up))
        out.append((level, codes, None))
        if level <= top_level:
            break
    return out


def dyadic_content(P, s, max_levels_up=None):
    """Optimal dyadic-cover content of a cell set at exponent s.

    Bottom-up DP: cost(Q) = min(side(Q)^s, sum of children costs) over
    occupied squares; ties prefer the coarser square.  `max_levels_up` caps
    cover squares at that many levels above the cells (used by oracle
    comparisons); by default covers may reach the root.  The value is the
    `math.fsum` of side^s over the cover squares.

    Given a CellFamilies store, returns an array with one value per family,
    each the same float as a call on that family alone.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(P) == 0:
        return ContentResult(0.0, [], s)

    top = 0 if max_levels_up is None else max(0, P.level - max_levels_up)
    levels = _level_arrays(P, top)
    owns = [side_at_level(P.root, level) ** s for level, _, _ in levels]

    costs = []
    takes = []
    for depth, (level, codes, _) in enumerate(levels):
        if depth == 0:
            cost = np.full(codes.size, owns[0])
            take = np.ones(codes.size, dtype=bool)
        else:
            _, _, inv = levels[depth - 1]
            child_sum = np.bincount(inv, weights=costs[-1],
                                    minlength=codes.size)
            take = owns[depth] <= child_sum
            cost = np.where(take, owns[depth], child_sum)
        costs.append(cost)
        takes.append(take)

    # walk down: a square is in the cover iff it is taken and no taken
    # ancestor exists above it; `chosen` runs from the top level down
    chosen = [takes[-1]]
    pending = ~takes[-1]
    for depth in range(len(levels) - 2, -1, -1):
        reach = pending[levels[depth][2]]
        chosen.append(reach & takes[depth])
        pending = reach & ~takes[depth]
    if pending.any():
        raise CoverError("internal DP error: uncovered cells remain")

    # per family, the number of its cover squares at each level
    counts = np.array([
        np.bincount(codes[mask] // math.prod(grid_shape(P.root, level)),
                    minlength=P.starts.size)
        for (level, codes, _), mask in zip(levels, chosen[::-1])])
    values = [math.fsum(np.repeat(owns, n).tolist()) for n in counts.T]
    if isinstance(P, CellFamilies):
        return np.array(values)

    cover = []
    for (level, codes, _), mask in zip(levels[::-1], chosen):
        ix, iy = _cell_index(P.root, level, codes[mask])
        cover.extend(DyadicSquare(P.root, level, a, b)
                     for a, b in zip(ix.tolist(), iy.tolist()))
    return ContentResult(values[0], cover, s)


def smallest_katz_tao_constant(P, s):
    """max over dyadic squares Q of |P cap Q| / (side(Q)/resolution)^s."""
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(P) == 0:
        return 0.0
    return max(counts.max() / 2.0 ** ((P.level - level) * s)
               for level, _, counts in _dyadic_levels(P))


def smallest_delta_s_constant(P, s):
    """max over dyadic squares Q of |P cap Q| / (side(Q)^s * |P|).

    Given a CellFamilies store, returns an array with one constant per
    family, each the same float as a call on that family alone.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(P) == 0:
        return 0.0
    sizes = P.sizes()
    best = np.zeros(sizes.size)
    for level, codes, counts in _dyadic_levels(P):
        nx, ny = grid_shape(P.root, level)
        # each family's squares begin at its first code at or above
        # family * (squares per level)
        first = np.searchsorted(codes, np.arange(sizes.size) * (nx * ny))
        np.maximum(best, np.maximum.reduceat(counts, first)
                   / (side_at_level(P.root, level) ** s * sizes), out=best)
    return best if isinstance(P, CellFamilies) else best[0]


def _morton(ix, iy, bits):
    z = np.zeros(ix.shape, dtype=np.uint64)
    ix = ix.astype(np.uint64)
    iy = iy.astype(np.uint64)
    for b in range(bits):
        z |= ((ix >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
        z |= ((iy >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
    return z


def extract_katz_tao_subset(P, s):
    """Greedy Morton-order subset with certified Katz-Tao constant 1.

    A cell is admitted iff afterwards every dyadic ancestor Q holds at most
    (side(Q)/resolution)^s admitted cells.  The result has
    smallest_katz_tao_constant <= 1, and its cardinality is at least an
    absolute fraction of content / resolution^s (1/64 asserted in tests).
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(P) == 0:
        return P
    bits = P.level + 3
    order = np.argsort(_morton(P.ix, P.iy, bits), kind="stable")
    ix_all = P.ix[order]
    iy_all = P.iy[order]

    caps = [2.0 ** (k * s) for k in range(P.level + 1)]
    counts = [dict() for _ in range(P.level + 1)]  # per levels-up
    keep_ix, keep_iy = [], []
    for a, b in zip(ix_all, iy_all):
        ok = True
        for k in range(1, P.level + 1):
            key = (a >> k, b >> k)
            if counts[k].get(key, 0) + 1 > caps[k]:
                ok = False
                break
        if not ok:
            continue
        keep_ix.append(a)
        keep_iy.append(b)
        for k in range(1, P.level + 1):
            key = (a >> k, b >> k)
            counts[k][key] = counts[k].get(key, 0) + 1
    return PointSet(P.root, P.resolution, np.array(keep_ix, dtype=np.int64),
                    np.array(keep_iy, dtype=np.int64))


def multiscale_cover(P, s):
    """Optimal cover grouped by scale, with verified decomposition properties.

    Per dyadic scale the family of cover squares is returned; postconditions
    verified here: the per-scale costs sum exactly to the DP optimum, every
    input cell lies in exactly one cover square, and each scale family is a
    Katz-Tao set with constant at most 4 at exponent s.
    """
    res = dyadic_content(P, s)
    families = {}
    for sq in res.cover:
        families.setdefault(sq.level, []).append(sq)

    # fsum is correctly rounded, hence order independent: regrouping by
    # scale reproduces the optimum exactly
    total = math.fsum(sq.side ** s
                      for _, fam in sorted(families.items()) for sq in fam)
    if total != res.value:
        raise CoverError("scale grouping does not reproduce the DP optimum")

    # unique-cover: count cells under each cover square, compare with |P|
    covered = 0
    for lev, codes, counts in _dyadic_levels(P):
        fam = families.get(lev, [])
        fam_codes = _cell_codes(P.root, lev,
                                np.array([sq.ix for sq in fam], dtype=np.int64),
                                np.array([sq.iy for sq in fam], dtype=np.int64))
        lo = np.searchsorted(codes, fam_codes, side="left")
        hi = np.searchsorted(codes, fam_codes, side="right")
        covered += int(counts[lo[hi > lo]].sum())
    if covered != len(P):
        raise CoverError("cover is not a partition of the input cells")

    for lev, fam in families.items():
        fam_set = PointSet(P.root, side_at_level(P.root, lev),
                           np.array([sq.ix for sq in fam], dtype=np.int64),
                           np.array([sq.iy for sq in fam], dtype=np.int64))
        if smallest_katz_tao_constant(fam_set, s) > 4.0:
            raise CoverError("cover not Katz-Tao")

    return MultiscaleCover(s, families, res.value)
