"""Weighted point-tube incidences, the angular-average upper bound, and the
incidence-vs-energy inequality sweep.

The incidence count pairs a planar atom measure with a measure on line
parameters: a pair (p, q) is incident when the point p lies in the tube of
halfwidth delta around the line with parameters q, that is when
|geometry.project(p, theta_q) - r_q| <= delta.  Atoms are identified with
their cell centers; the delta >= resolution precondition makes the
center-versus-cell discrepancy a sub-delta perturbation.  There is one
counting path, and it is exact because rounding is monotone: for a fixed
offset r, the rounded difference fl(p - r) never decreases as the
projection p grows, so a line's hits are one run of its direction's sorted
projections.  Each direction's projections are sorted once, a binary search
finds each line's run at every delta, and one of two reductions turns the
run into the line's mass: the sum of its weights in atom order, or, when
mu's weights are all equal, its length, which fixes that same sum.
"""

import math

import numpy as np

from .geometry import project
from .measures import riesz_energy_direct

# Angle margin required of the line measure in the sweep.  A tube angle
# support [c, 1-c] admits delta <= c/7; with c = 1/4 this allows the
# coarsest dyadic scale 2^-5 used by the acceptance experiments.
SWEEP_DELTA_MAX = 0.25 / 7.0

SWEEP_SLOPE_MAX = 0.1  # largest log-log slope of the ratio against 1/delta
SWEEP_GROWTH_MAX = 4.0  # largest ratio, as a multiple of the coarsest one

# incidences sorts the atom projections of blocks of directions of about
# this many (direction, atom) entries, which bounds its temporaries
INCIDENCE_BLOCK = 2 ** 18

MAJORANT_SAMPLES = 257  # angles sampled across each 6 delta window
MAJORANT_BISECTIONS = 45  # bisection steps per sampled crossing
# lemma4_upper_bound samples its lines in blocks of about this many
# (line, point, angle) entries, and bisects its crossings in groups of about
# this many, which bounds its temporaries
MAJORANT_BLOCK = 2 ** 16


def incidences(mu, nu, delta):
    """Weighted incidence mass between mu-atoms and nu-tubes at width delta.

    A scalar delta gives a float, a sequence a list with one mass per entry.
    The brute test for atom p and line (theta, r) is abs(fl(p_theta - r))
    <= delta with p_theta = project(p, theta).  For fixed r, fl(p_theta - r)
    is non-decreasing in p_theta, so a line's hits are one run of its
    direction's sorted projections, ties included: from the first entry
    with fl(p_theta - r) >= -delta to the last with fl(p_theta - r) <=
    delta.  The lines are grouped by exact angle, each direction's
    projections are sorted once, and one binary search finds both ends of
    every line's run at every delta.  A line's mass is the np.sum of its
    run's weights in atom order; when mu's weights are all equal it depends
    only on the run's length, so each length's sum is taken once.  The
    lines' masses are added with math.fsum, so the result equals testing
    every pair, bit for bit.  Every delta must be finite and at least both
    resolutions; all are checked before any work.  The sort need not be
    stable: tied atoms are all in a run or all outside it.
    """
    deltas = [float(d) for d in np.atleast_1d(delta)]
    if not deltas:
        raise ValueError("no delta given")
    if not all(math.isfinite(d) for d in deltas):
        raise ValueError("delta must be finite")
    if min(deltas) < max(mu.resolution, nu.resolution):
        raise ValueError("delta must be at least the atom resolutions")
    masses = ([0.0] * len(deltas) if len(mu) == 0 or len(nu) == 0
              else _incidence_masses(mu, nu, np.array(deltas)[:, None]))
    return masses[0] if np.ndim(delta) == 0 else masses


def _incidence_masses(mu, nu, deltas):
    """`incidences` of nonempty mu and nu, one per row of the (deltas, 1)
    array `deltas`."""
    pts = mu.centers()
    w = mu.weights
    uniform = bool(np.all(w == w[0]))
    thetas, rs = nu.centers().T
    angles, line_dir = np.unique(thetas, return_inverse=True)

    sums = np.empty((len(deltas), len(thetas)))  # run lengths if mu is uniform
    per_block = max(1, INCIDENCE_BLOCK // len(pts))
    for a in range(0, len(angles), per_block):
        lines = np.flatnonzero((line_dir >= a) & (line_dir < a + per_block))
        rows = line_dir[lines] - a
        proj = project(pts, angles[a:a + per_block, None])
        if uniform:
            proj.sort(axis=1)
            lo, hi = _hit_runs(proj, rows, rs[lines], deltas)
            sums[:, lines] = hi - lo
            continue
        rank = np.argsort(proj, axis=1)
        lo, hi = _hit_runs(np.take_along_axis(proj, rank, axis=1), rows,
                           rs[lines], deltas)
        for j, i in np.ndindex(lo.shape):
            run = rank[rows[i], lo[j, i]:hi[j, i]]
            sums[j, lines[i]] = np.sum(w[np.sort(run)])
    if uniform:
        # np.sum of c equal weights, as the weighted reduction would sum them
        counts, inverse = np.unique(sums, return_inverse=True)
        sums = np.array([np.sum(np.full(int(c), w[0]))
                         for c in counts])[inverse].reshape(sums.shape)
    return [math.fsum((nu.weights * row).tolist()) for row in sums]


def _hit_runs(proj, rows, rs, deltas):
    """(lo, hi) run ends, as (deltas, lines) arrays, of each line in its row
    of the sorted projections: lo counts the entries p of the row with
    fl(p - r) < -delta, hi those with fl(p - r) <= delta.  Both sets are
    prefixes of the row, so a branchless binary search finds their lengths:
    each step moves an end by the step while the entry before it is inside."""
    n = proj.shape[1]
    flat = proj.ravel()
    last = rows * n - 1  # entry k - 1 of a line's row is flat[last + k]
    lo = np.zeros((len(deltas), len(rs)), dtype=np.int64)
    hi = np.zeros_like(lo)
    step = 1 << (n.bit_length() - 1)
    while step:
        at_lo, at_hi = lo + step, hi + step
        p_lo = flat[last + np.minimum(at_lo, n)]
        p_hi = flat[last + np.minimum(at_hi, n)]
        lo = np.where((at_lo <= n) & (p_lo - rs < -deltas), at_lo, lo)
        hi = np.where((at_hi <= n) & (p_hi - rs <= deltas), at_hi, hi)
        step >>= 1
    return lo, hi


def _interval_measures(blocks):
    """Lebesgue measure of {theta : |(theta, proj_theta(p)) - (thetas[k], rs[k])| <= 3 delta}
    for each line k and each point p of each block (thetas, rs, pts, delta),
    yielded as one (lines, points) array per block, in block order, and
    resolved by dense sampling plus vectorized bisection.

    Each block's sampled windows are one (lines, points, angles) test, of
    which only the crossing brackets and each line's window ends are kept.
    Brackets wait until MAJORANT_BLOCK of them are pending, or the blocks
    run out; one bisection loop then runs on all of them, each crossing with
    its own point, line, offset and delta.  Each step is elementwise and
    each (line, point) adds its segments in angle order, so every row equals
    a one-line call bit for bit.  Roots are located to ~3 delta * 2^-45;
    inside-intervals narrower than the sampling step (6 delta / 256) arise
    only at tangencies of the 3 delta ball and can be missed, which only
    lowers the returned measure.
    """
    pending, size = [], 0
    for thetas, rs, pts, delta in blocks:
        ts = thetas[:, None] + 3.0 * delta * np.linspace(-1.0, 1.0, MAJORANT_SAMPLES)
        inside = _inside(ts[:, None, :], pts[:, None, :], thetas[:, None, None],
                         rs[:, None, None], delta)
        # crossings in (line, point, angle) order
        li, pi, ki = np.nonzero(inside[..., 1:] != inside[..., :-1])
        pending.append(((thetas, rs, pts, delta), ts[:, [0, -1]], li, pi,
                        ts[li, ki], ts[li, ki + 1]))
        size += li.size
        if size >= MAJORANT_BLOCK:
            yield from _bisected_measures(pending)
            pending, size = [], 0
    yield from _bisected_measures(pending)


def _bisected_measures(pending):
    """Bisect the crossings of the pending blocks in one loop, then yield
    each block's (lines, points) measures."""
    if not pending:
        return
    parts = [(lo, hi, pts[pi], thetas[li], rs[li], np.full(li.size, delta))
             for (thetas, rs, pts, delta), _, li, pi, lo, hi in pending]
    lo, hi, *crossing = map(np.concatenate, zip(*parts))
    lo_in = _inside(lo, *crossing)
    for _ in range(MAJORANT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = _inside(mid, *crossing) == lo_in
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    roots = np.split(0.5 * (lo + hi), np.cumsum([p[2].size for p in pending])[:-1])

    # each (line, point)'s segments run between its line's window ends and
    # its roots; add the lengths of those whose midpoint is inside, in angle
    # order
    for ((thetas, rs, pts, delta), ends, li, pi, _, _), r in zip(pending, roots):
        lines, n = len(thetas), pts.shape[0]
        counts = np.bincount(li * n + pi, minlength=lines * n)
        first = np.cumsum(counts) - counts
        left = np.insert(r, first, np.repeat(ends[:, 0], n))
        right = np.insert(r, first + counts, np.repeat(ends[:, 1], n))
        owner = np.repeat(np.arange(lines * n), counts + 1)
        line, point = np.divmod(owner, n)
        keep = _inside(0.5 * (left + right), pts[point], thetas[line],
                       rs[line], delta)
        yield np.bincount(owner[keep], weights=(right - left)[keep],
                          minlength=lines * n).reshape(lines, n)


def _inside(ts, pts, theta0, r0, delta):
    """Whether (t, proj_t(p)) lies in the 3 delta ball around (theta0, r0);
    ts, theta0, r0 and delta broadcast against the points pts of shape
    (..., 2).  The radius is squared as a product, which gives a delta
    array's entries the bits that each delta alone gets."""
    return (ts - theta0) ** 2 + (project(pts, ts) - r0) ** 2 <= 9.0 * (delta * delta)


def lemma4_upper_bound(fixtures):
    """Angular-average majorants of the incidence counts of a sequence of
    (mu, nu, delta) fixtures, one bound per fixture.

    For each atom pair, measures the set of angles theta at which the point
    (theta, proj_theta(p)) falls in the 3*delta ball around the line
    parameter q, and aggregates delta^-1 * sum w_p v_q * measure.  This
    dominates the incidence count.  Each fixture's lines go to
    `_interval_measures` in blocks of about MAJORANT_BLOCK samples (a whole
    fixture of the acceptance experiment is one block), and one bisection
    serves the crossings of many blocks and fixtures; each line's np.dot
    and its fixture's running total keep line order, so each bound is that
    of a loop over the fixture's single lines.  Every delta must be finite
    and positive, and tube angles must keep a delta margin from the seam;
    every fixture is checked before any is measured.
    """
    fixtures = list(fixtures)
    blocks = []  # (fixture, its lines in the block, the block), in line order
    for f, (mu, nu, delta) in enumerate(fixtures):
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError("delta must be finite and positive")
        thetas, rs = nu.centers().T
        if len(nu) and (thetas.min() < delta or thetas.max() > 1.0 - delta):
            raise ValueError("theta margin violated: tube angles within delta of the seam")
        pts = mu.centers()
        per_block = max(1, MAJORANT_BLOCK // (MAJORANT_SAMPLES * max(len(pts), 1)))
        for a in range(0, len(thetas), per_block):
            b = slice(a, a + per_block)
            blocks.append((f, b, (thetas[b], rs[b], pts, delta)))
    totals = [0.0] * len(fixtures)
    measures = _interval_measures(block for _, _, block in blocks)
    for (f, b, _), meas in zip(blocks, measures):
        mu, nu, _ = fixtures[f]
        for v, m in zip(nu.weights[b], meas):
            totals[f] += float(v) * float(np.dot(mu.weights, m))
    return [total / delta for total, (_, _, delta) in zip(totals, fixtures)]


def fit_slope(inv_deltas, values):
    """OLS slope of log(values) against log(inv_deltas); zero rows dropped."""
    xs = [math.log(a) for a, v in zip(inv_deltas, values) if v > 0]
    ys = [math.log(v) for v in values if v > 0]
    if len(xs) < 2:
        return 0.0
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den if den else 0.0


def inequality_sweep(mu, nu, t, deltas):
    """Incidence-to-energy ratio across scales.

    For each delta computes the incidence mass, the (3-t)-energy of mu and
    t-energy of nu (kernels truncated at that delta; `riesz_energy_direct`
    takes the whole delta sequence as `trunc`, so each measure's pair
    kernel is built once for all deltas), and the ratio
    incidence / (delta * sqrt(energy_mu * energy_nu)); fits the log-log
    slope of the ratio against 1/delta.  The source abstract pairs the
    energies the other way, I_t(mu) * I_{3-t}(nu); the sweep keeps its own
    pairing so the ratios criterion 5 reports stay put, and the tests check
    the abstract's pairing on the quick fixtures.  Returns (rows, summary),
    the summary from `sweep_summary`.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("exponent t must lie in (1, 2)")
    deltas = sorted(deltas, reverse=True)   # coarse to fine
    if not deltas:
        raise ValueError("deltas must not be empty")
    if not all(0.0 < d <= SWEEP_DELTA_MAX + 1e-12 for d in deltas):
        raise ValueError(f"deltas must lie in (0, {SWEEP_DELTA_MAX}]")
    pts = mu.centers()
    if len(mu) == 0 or np.hypot(pts[:, 0], pts[:, 1]).max() > 1.0:
        raise ValueError("mu must be supported in the unit ball")
    th, rr = nu.centers().T
    if len(nu) == 0 or th.min() < 0.25 or th.max() > 0.75:
        raise ValueError("nu angle support must lie in [1/4, 3/4]")
    if np.abs(rr).max() > 1.0:
        raise ValueError("nu offset support must lie in [-1, 1]")

    emus = riesz_energy_direct(mu, 3.0 - t, trunc=deltas)
    enus = riesz_energy_direct(nu, t, trunc=deltas)
    rows = []
    for d, inc, emu, enu in zip(deltas, incidences(mu, nu, deltas), emus, enus):
        denom = d * math.sqrt(emu * enu)
        rows.append({
            "delta": d,
            "incidence": inc,
            "energy_mu": emu,
            "energy_nu": enu,
            "ratio": inc / denom if denom > 0 else 0.0,
        })
    return rows, sweep_summary(t, rows)


def sweep_summary(t, rows):
    """The slope and growth rules on sweep rows (each with its delta and
    ratio, coarsest delta first), with the fitted slope and the ratios they
    read."""
    ratios = [r["ratio"] for r in rows]
    slope = fit_slope([1.0 / r["delta"] for r in rows], ratios)
    coarsest = ratios[0]
    max_ratio = max(ratios)
    growth_ok = coarsest <= 0 or max_ratio <= SWEEP_GROWTH_MAX * coarsest
    return {
        "t": t,
        "slope": slope,
        "max_ratio": max_ratio,
        "coarsest_ratio": coarsest,
        "pass_slope": bool(slope <= SWEEP_SLOPE_MAX),
        "pass_growth": bool(growth_ok),
        "pass": bool(slope <= SWEEP_SLOPE_MAX and growth_ok),
    }
