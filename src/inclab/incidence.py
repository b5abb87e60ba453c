"""Weighted point-tube incidences, the angular-average upper bound, and the
incidence-vs-energy inequality sweep.

The incidence count pairs a planar atom measure with a measure on line
parameters: a pair (p, q) is incident when the point p lies in the tube of
halfwidth delta around the line with parameters q.  Atoms are identified
with their cell centers; the delta >= resolution precondition makes the
center-versus-cell discrepancy a sub-delta perturbation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import riesz_energy_direct

# Angle margin required of the line measure in the sweep.  A tube angle
# support [c, 1-c] admits delta <= c/7; with c = 1/4 this allows the
# coarsest dyadic scale 2^-5 used by the acceptance experiments.
SWEEP_DELTA_MAX = 0.25 / 7.0


@dataclass
class IncidenceResult:
    delta: float
    value: float
    method: str


def _per_line_sums(pts, w, thetas, rs, delta, candidates=None):
    """Incident-mass sum for each line; candidate index lists may prune.

    The per-line sum is always np.sum over the incident weights taken in
    ascending atom order, so pruned and unpruned evaluations are bitwise
    identical.
    """
    sums = np.empty(len(thetas))
    for k in range(len(thetas)):
        a = 2.0 * math.pi * thetas[k]
        idx = candidates[k] if candidates is not None else None
        if idx is None:
            proj = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a)
            hit = np.flatnonzero(np.abs(proj - rs[k]) <= delta)
        else:
            proj = pts[idx, 0] * math.cos(a) + pts[idx, 1] * math.sin(a)
            hit = idx[np.abs(proj - rs[k]) <= delta]
        sums[k] = np.sum(w[hit])
    return sums


def incidences(mu, nu, delta, method="bucketed"):
    """Weighted incidence mass between mu-atoms and nu-tubes at width delta.

    BRUTE tests every pair; BUCKETED pre-sorts atoms by projection within
    angle bands and prunes candidates, reproducing BRUTE bit-for-bit.
    Requires delta >= both resolutions.
    """
    if delta < max(mu.resolution, nu.resolution):
        raise ValueError("delta must be at least the atom resolutions")
    if len(mu) == 0 or len(nu) == 0:
        return IncidenceResult(delta, 0.0, method.upper())

    pts = mu.centers()
    w = mu.weights
    thetas, rs = nu.line_params()
    v = nu.weights

    if method.lower() == "brute":
        sums = _per_line_sums(pts, w, thetas, rs, delta)
    elif method.lower() == "bucketed":
        sums = np.empty(len(thetas))
        maxnorm = float(np.abs(pts).max()) * math.sqrt(2.0) + 1e-12
        band_width = delta
        bands = np.floor(thetas / band_width).astype(np.int64)
        order = np.argsort(bands, kind="stable")
        slack = 2.0 * math.pi * maxnorm * band_width
        for b in np.unique(bands[order]):
            members = order[bands[order] == b]
            theta0 = (b + 0.5) * band_width
            a = 2.0 * math.pi * theta0
            proj0 = pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a)
            rank = np.argsort(proj0, kind="stable")
            sorted_proj = proj0[rank]
            for k in members:
                lo = np.searchsorted(sorted_proj, rs[k] - delta - slack)
                hi = np.searchsorted(sorted_proj, rs[k] + delta + slack)
                idx = np.sort(rank[lo:hi])
                sums[k] = _per_line_sums(pts, w, thetas[k:k + 1],
                                         rs[k:k + 1], delta, [idx])[0]
    else:
        raise ValueError(f"unknown method {method!r}")

    total = math.fsum(float(v[k]) * float(sums[k]) for k in range(len(v)))
    return IncidenceResult(delta, total, method.upper())


def _interval_measure(theta0, r0, pts, delta, grid=257, iters=45):
    """Lebesgue measure of {theta : |(theta, proj_theta(p)) - (theta0, r0)| <= 3 delta}
    for each point p, resolved by dense sampling plus vectorized bisection.

    Roots are located to ~3 delta * 2^-45; inside-intervals narrower than
    the sampling step (6 delta / grid) arise only at tangencies of the
    3 delta ball and can be missed, which only lowers the returned measure.
    """
    n = pts.shape[0]
    ts = theta0 + 3.0 * delta * np.linspace(-1.0, 1.0, grid)
    ang = 2.0 * math.pi * ts
    proj = pts[:, 0:1] * np.cos(ang)[None, :] + pts[:, 1:2] * np.sin(ang)[None, :]
    inside = (ts[None, :] - theta0) ** 2 + (proj - r0) ** 2 <= 9.0 * delta ** 2

    flips = inside[:, 1:] != inside[:, :-1]
    pi_idx, ki = np.nonzero(flips)
    if pi_idx.size:
        lo = ts[ki].copy()
        hi = ts[ki + 1].copy()
        px = pts[pi_idx, 0]
        py = pts[pi_idx, 1]
        lo_in = _inside(lo, px, py, theta0, r0, delta)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            same = _inside(mid, px, py, theta0, r0, delta) == lo_in
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
        roots = 0.5 * (lo + hi)
    else:
        roots = np.empty(0)

    # assemble the inside-intervals per point from the refined crossings
    out = np.zeros(n)
    root_lists = [[] for _ in range(n)]
    for m in range(pi_idx.size):
        root_lists[pi_idx[m]].append(float(roots[m]))
    for p in range(n):
        marks = [ts[0]] + sorted(root_lists[p]) + [ts[-1]]
        acc = 0.0
        for seg in range(len(marks) - 1):
            mid = 0.5 * (marks[seg] + marks[seg + 1])
            if _inside(np.array([mid]), pts[p, 0], pts[p, 1],
                       theta0, r0, delta)[0]:
                acc += marks[seg + 1] - marks[seg]
        out[p] = acc
    return out


def _inside(ts, px, py, theta0, r0, delta):
    ang = 2.0 * math.pi * np.asarray(ts)
    proj = px * np.cos(ang) + py * np.sin(ang)
    return (np.asarray(ts) - theta0) ** 2 + (proj - r0) ** 2 <= 9.0 * delta ** 2


def lemma4_upper_bound(mu, nu, delta):
    """Angular-average majorant of the incidence count.

    For each atom pair, measures the set of angles theta at which the point
    (theta, proj_theta(p)) falls in the 3*delta ball around the line
    parameter q, and aggregates delta^-1 * sum w_p v_q * measure.  This
    dominates the incidence count; tube angles must keep a delta margin
    from the seam.
    """
    thetas, rs = nu.line_params()
    if thetas.min() < delta or thetas.max() > 1.0 - delta:
        raise ValueError("theta margin violated: tube angles within delta of the seam")
    pts = mu.centers()
    w = mu.weights
    total = 0.0
    for k in range(len(thetas)):
        meas = _interval_measure(float(thetas[k]), float(rs[k]), pts, delta)
        total += float(nu.weights[k]) * float(np.dot(w, meas))
    return total / delta


@dataclass
class RatioTable:
    t: float
    rows: list  # dicts: delta, incidence, energy_mu, energy_nu, ratio
    slope: float

    def csv_text(self):
        lines = ["delta,t,incidence,energy_mu,energy_nu,ratio"]
        for r in self.rows:
            lines.append(f"{r['delta']!r},{self.t!r},{r['incidence']!r},"
                         f"{r['energy_mu']!r},{r['energy_nu']!r},{r['ratio']!r}")
        return "\n".join(lines) + "\n"

    def summary(self, slope_max=0.1, growth_max=4.0):
        ratios = [r["ratio"] for r in self.rows]
        coarsest = ratios[0] if ratios else 0.0
        max_ratio = max(ratios) if ratios else 0.0
        growth_ok = (max_ratio <= growth_max * coarsest) if coarsest > 0 else True
        return {
            "t": self.t,
            "slope": self.slope,
            "max_ratio": max_ratio,
            "coarsest_ratio": coarsest,
            "pass_slope": bool(self.slope <= slope_max),
            "pass_growth": bool(growth_ok),
            "pass": bool(self.slope <= slope_max and growth_ok),
        }


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
    t-energy of nu (kernels truncated at that delta), and the ratio
    incidence / (delta * sqrt(energy_mu * energy_nu)); fits the log-log
    slope of the ratio against 1/delta.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("exponent t must lie in (1, 2)")
    pts = mu.centers()
    if len(mu) == 0 or np.hypot(pts[:, 0], pts[:, 1]).max() > 1.0:
        raise ValueError("mu must be supported in the unit ball")
    th, rr = nu.line_params()
    if len(nu) == 0 or th.min() < 0.25 or th.max() > 0.75:
        raise ValueError("nu angle support must lie in [1/4, 3/4]")
    if np.abs(rr).max() > 1.0:
        raise ValueError("nu offset support must lie in [-1, 1]")
    deltas = sorted(deltas, reverse=True)   # coarse to fine
    if deltas[0] > SWEEP_DELTA_MAX + 1e-12:
        raise ValueError(f"deltas must be at most {SWEEP_DELTA_MAX}")

    rows = []
    for d in deltas:
        inc = incidences(mu, nu, d).value
        emu = riesz_energy_direct(mu, 3.0 - t, trunc=d)
        enu = riesz_energy_direct(nu, t, trunc=d)
        denom = d * math.sqrt(emu * enu)
        rows.append({
            "delta": d,
            "incidence": inc,
            "energy_mu": emu,
            "energy_nu": enu,
            "ratio": inc / denom if denom > 0 else 0.0,
        })
    slope = fit_slope([1.0 / r["delta"] for r in rows],
                      [r["ratio"] for r in rows])
    return RatioTable(t, rows, slope)
