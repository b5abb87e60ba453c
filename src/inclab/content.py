"""Dyadic Hausdorff content by exact tree DP, non-concentration constants,
greedy Katz-Tao extraction, and the multiscale cover decomposition.

Content here is the infimum of sum(side^s) over covers of a cell set by
dyadic squares of side between the set's resolution and the root side.  Over
dyadic covers the infimum is attained and computed exactly by a bottom-up
dynamic program; the comparison with ball covers is an absolute constant and
never enters any ratio computed elsewhere.  The DP and the non-concentration
constants all read the walk up the levels, `measures._dyadic_levels`; the DP
and the delta-s constant also take a CellFamilies store (one value a family).
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _cell_codes, _cell_index, side_at_level
from .measures import CellFamilies, PointSet, _dyadic_levels


class CoverError(Exception):
    pass


@dataclass
class ContentResult:
    value: float
    cover: dict  # level -> PointSet of the cover squares at that level
    exponent: float


def dyadic_content(P, s, max_levels_up=None):
    """Optimal dyadic-cover content of a cell set at exponent s.

    Bottom-up DP: cost(Q) = min(side(Q)^s, sum of children costs) over
    occupied squares; ties prefer the coarser square.  `max_levels_up` caps
    cover squares at that many levels above the cells (used by oracle
    comparisons); by default covers may reach the root.  The cover maps each
    level holding cover squares, coarsest first, to a PointSet of those
    squares; the value is the `math.fsum` of side^s over the cover squares.

    Given a CellFamilies store, returns an array with one value per family,
    each the same float as a call on that family alone.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    if len(P) == 0:
        return ContentResult(0.0, {}, s)

    top = 0 if max_levels_up is None else max(0, P.level - max_levels_up)
    levels, owns, costs, takes = [], [], [], []  # leaf level first
    for level, codes, _, starts, up in _dyadic_levels(P):
        own = side_at_level(P.root, level) ** s
        child_sum = (np.bincount(levels[-1][3], weights=costs[-1],
                                 minlength=codes.size)
                     if levels else np.full(codes.size, np.inf))
        take = own <= child_sum
        levels.append((level, codes, starts, up))
        owns.append(own)
        costs.append(np.where(take, own, child_sum))
        takes.append(take)
        if level <= top:
            break

    # walk down: a square is in the cover iff it is taken and no taken
    # ancestor exists above it; `chosen` runs from the top level down
    chosen = [takes[-1]]
    pending = ~takes[-1]
    for depth in range(len(levels) - 2, -1, -1):
        reach = pending[levels[depth][3]]
        chosen.append(reach & takes[depth])
        pending = reach & ~takes[depth]
    if pending.any():
        raise CoverError("internal DP error: uncovered cells remain")

    # per family, the number of its cover squares at each level
    counts = np.array([np.add.reduceat(mask, starts, dtype=np.int64)
                       for (_, _, starts, _), mask in zip(levels, chosen[::-1])])
    values = [math.fsum(np.repeat(owns, n).tolist()) for n in counts.T]
    if isinstance(P, CellFamilies):
        return np.array(values)

    cover = {level: PointSet(P.root, side_at_level(P.root, level),
                             *_cell_index(P.root, level, codes[mask]))
             for (level, codes, _, _), mask in zip(levels[::-1], chosen)
             if mask.any()}
    return ContentResult(values[0], cover, s)


def smallest_katz_tao_constant(P, s):
    """max over dyadic squares Q of |P cap Q| / (side(Q)/resolution)^s."""
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    return max((counts.max() / 2.0 ** ((P.level - level) * s)
                for level, _, counts, _, _ in _dyadic_levels(P)), default=0.0)


def smallest_delta_s_constant(P, s):
    """max over dyadic squares Q of |P cap Q| / (side(Q)^s * |P|).

    Given a CellFamilies store, returns an array with one constant per
    family, each the same float as a call on that family alone.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError("exponent s must lie in (0, 2]")
    sizes = P.sizes()
    best = np.zeros(sizes.size)
    for level, _, counts, starts, _ in _dyadic_levels(P):
        np.maximum(best, np.maximum.reduceat(counts, starts)
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
    # a dyadic square is one run of the Morton order and its cap binds the
    # runs inside it, so the greedy keeps a cell iff, level by level up, it
    # ranks within its square's cap among the cells that finer levels kept
    z = _morton(P.ix, P.iy, P.level + 3)
    order = np.argsort(z)
    z = z[order]
    for k in range(1, P.level + 1):
        square = z >> np.uint64(2 * k)
        rank = np.arange(z.size) - np.searchsorted(square, square)
        keep = rank + 1 <= 2.0 ** (k * s)  # the greedy's own comparison
        z, order = z[keep], order[keep]
    return PointSet(P.root, P.resolution, P.ix[order], P.iy[order])


def multiscale_cover(P, s):
    """The result of `dyadic_content(P, s)`, once its cover is checked.

    Raises CoverError unless the per-level costs sum exactly to the DP
    optimum, every cover square holds input cells and every input cell lies
    in exactly one of them, and each level's squares form a Katz-Tao set
    with constant at most 4 at exponent s.
    """
    res = dyadic_content(P, s)

    # fsum is correctly rounded, hence order independent: regrouping by
    # level reproduces the optimum exactly
    owns = [fam.resolution ** s for fam in res.cover.values()]
    sizes = [len(fam) for fam in res.cover.values()]
    if math.fsum(np.repeat(owns, sizes).tolist()) != res.value:
        raise CoverError("scale grouping does not reproduce the DP optimum")

    # unique-cover: every cover square holds input cells, and the cells
    # under the cover squares add up to |P|
    if max(res.cover, default=0) > P.level:
        raise CoverError("cover square holds no input cell")
    covered = 0
    for lev, codes, counts, _, _ in _dyadic_levels(P):
        if lev in res.cover:
            fam = res.cover[lev]
            fam_codes = _cell_codes(P.root, lev, fam.ix, fam.iy)
            lo = np.searchsorted(codes, fam_codes, side="left")
            if (np.searchsorted(codes, fam_codes, side="right") == lo).any():
                raise CoverError("cover square holds no input cell")
            covered += int(counts[lo].sum())
    if covered != len(P):
        raise CoverError("cover is not a partition of the input cells")

    if any(smallest_katz_tao_constant(fam, s) > 4.0
           for fam in res.cover.values()):
        raise CoverError("cover not Katz-Tao")
    return res
