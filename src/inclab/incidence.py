"""Weighted point-tube incidences, the angular-average upper bound, and the
incidence-vs-energy inequality sweep.

The incidence count pairs a planar atom measure with a measure on line
parameters: a pair (p, q) is incident when the point p lies in the tube of
halfwidth delta around the line with parameters q, that is when
|geometry.project(p, theta_q) - r_q| <= delta.  Atoms are identified with
their cell centers; the delta >= resolution precondition makes the
center-versus-cell discrepancy a sub-delta perturbation.  There is one
counting path: angle bands prune the candidate atoms of each line, one hit
test marks the candidates in the line's tube, and one of two reductions
turns the hits into the line's mass: the sum of their weights in atom
order, or, when mu's weights are all equal, their count, which fixes that
same sum.
"""

import math

import numpy as np

from .geometry import direction, project
from .measures import riesz_energy_direct

# Angle margin required of the line measure in the sweep.  A tube angle
# support [c, 1-c] admits delta <= c/7; with c = 1/4 this allows the
# coarsest dyadic scale 2^-5 used by the acceptance experiments.
SWEEP_DELTA_MAX = 0.25 / 7.0

SWEEP_SLOPE_MAX = 0.1  # largest log-log slope of the ratio against 1/delta
SWEEP_GROWTH_MAX = 4.0  # largest ratio, as a multiple of the coarsest one

MAJORANT_SAMPLES = 257  # angles sampled across each 6 delta window
MAJORANT_BISECTIONS = 45  # bisection steps per sampled crossing
# lemma4_upper_bound samples its lines in blocks of about this many
# (line, point, angle) entries, and bisects its crossings in groups of about
# this many, which bounds its temporaries
MAJORANT_BLOCK = 2 ** 16


def incidences(mu, nu, delta):
    """Weighted incidence mass between mu-atoms and nu-tubes at width delta.

    Lines are bucketed into angle bands of width delta; within a band the
    atoms are sorted by their projection at the band center, and each line
    takes as candidates the atoms whose projection there lies within delta
    plus the band's angular slack of its offset.  One hit test per line
    marks the candidates in its tube; the line's mass is the np.sum, in
    atom order, of their weights.  When mu's weights are all equal that sum
    depends only on the number of hits, so the hits are counted and each
    count's sum is taken once.  The result equals testing every pair, bit
    for bit.  Requires a finite delta >= both resolutions.

    The band sort need not be stable: the searchsorted bounds depend only
    on the sorted projections, atoms with tied projections sit together, so
    they are all inside a line's candidate range or all outside it, the hit
    test is elementwise, and the weighted sum takes its hits in atom order.
    """
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta < max(mu.resolution, nu.resolution):
        raise ValueError("delta must be at least the atom resolutions")
    if len(mu) == 0 or len(nu) == 0:
        return 0.0

    pts = mu.centers()
    w = mu.weights
    uniform = bool(np.all(w == w[0]))
    thetas, rs = nu.centers().T
    v = nu.weights

    sums = np.empty(len(thetas))  # hit counts when mu is uniform
    maxnorm = float(np.abs(pts).max()) * math.sqrt(2.0) + 1e-12
    bands = np.floor(thetas / delta).astype(np.int64)
    order = np.argsort(bands, kind="stable")
    slack = 2.0 * math.pi * maxnorm * delta
    for b in np.unique(bands[order]):
        proj0 = project(pts, (b + 0.5) * delta)
        rank = np.argsort(proj0)
        sorted_proj = proj0[rank]
        sx, sy = pts[rank, 0], pts[rank, 1]
        lines = order[bands[order] == b]
        los = np.searchsorted(sorted_proj, rs[lines] - delta - slack)
        his = np.searchsorted(sorted_proj, rs[lines] + delta + slack)
        for k, lo, hi, c, s in zip(lines, los, his, *direction(thetas[lines])):
            hit = np.abs(sx[lo:hi] * c + sy[lo:hi] * s - rs[k]) <= delta
            sums[k] = (np.count_nonzero(hit) if uniform
                       else np.sum(w[np.sort(rank[lo:hi][hit])]))
    if uniform:
        # np.sum of c equal weights, as the weighted reduction would sum them
        counts, inverse = np.unique(sums, return_inverse=True)
        sums = np.array([np.sum(np.full(int(c), w[0])) for c in counts])[inverse]

    return math.fsum(float(v[k]) * float(sums[k]) for k in range(len(v)))


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
    for d, emu, enu in zip(deltas, emus, enus):
        inc = incidences(mu, nu, d)
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
