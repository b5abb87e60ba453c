"""Desk-scale experiment harnesses behind the command-line front end and the
acceptance suite.

Each experiment returns (rows, summary): rows are flat dicts destined for
CSV, the summary carries the measured quantities and per-rule pass booleans.
All randomness flows from the seed arguments through named child streams, so
identical calls produce identical artifacts.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import content as ct
from . import incidence as inc
from . import measures as ms
from . import scenarios as sc
from . import spectral as sp
from .geometry import (LINESPACE, PLANE, _cell_codes, grid_shape,
                       level_for_resolution, side_at_level)

DESK_DELTAS = [2.0 ** -k for k in range(5, 10)]

# Acceptance rules of the experiments.
SMOOTHING_BAND = 50.0  # largest max/min smoothing ratio over the bumps, per s
LEMMA4_SAFETY = 1.01  # slack on the majorant against the incidence count
SLOPE_MIN = -0.1  # "no decay": least log-log slope of a content across scales
FURSTENBERG_FLOOR = 0.01  # least content, as a fraction of the mu mass
SLICING_FLOOR = 0.005  # least max tube-slice content at every scale


def _gaussian_bump(n, centers, widths, amps):
    def f(X, Y):
        out = np.zeros_like(X)
        for (cx, cy), w, a in zip(centers, widths, amps):
            out += a * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * w * w))
        return out
    return sp.PlanarGrid.from_function(n, f)


def _compact_bump(n, center, width):
    """C-infinity bump supported exactly in the disc of the given radius."""
    cx, cy = center

    def f(X, Y):
        q = ((X - cx) ** 2 + (Y - cy) ** 2) / (width * width)
        out = np.zeros_like(X)
        core = q < 1.0
        out[core] = np.exp(-1.0 / (1.0 - q[core]))
        return out

    return sp.PlanarGrid.from_function(n, f)


def _random_plane_function(rng, n):
    k = 3
    centers = rng.uniform(-0.6, 0.6, (k, 2))
    ws = rng.uniform(0.08, 0.16, k)
    amps = rng.uniform(0.5, 1.5, k)
    return _gaussian_bump(n, centers, ws, amps)


def _random_cylinder_function(rng, n):
    T, R = np.meshgrid(np.arange(n) / n, sp._cell_centers(n), indexing="ij")
    vals = np.zeros_like(T)
    for k in range(3):
        c = rng.uniform(-0.2, 0.2)
        w = rng.uniform(0.18, 0.3)
        trig = rng.uniform(0.2, 1.0)
        mode = rng.integers(0, 5)
        phase = rng.uniform(0, 2 * math.pi)
        vals += trig * np.cos(2 * math.pi * mode * T + phase) \
            * np.exp(-((R - c) ** 2) / (2 * w * w))
    return sp.CylinderGrid(vals)


# ---------------------------------------------------------------------------

def _mass_error(g, Rg):
    masses = Rg.values.sum(axis=1) * Rg.dr
    true_mass = float(g.values.sum()) * g.h ** 2
    return float(np.abs(masses / true_mass - 1.0).max())


def exp_xray_check(seed=0, n=512, duality_n=256, duality_each=10):
    """Slice identity, adjoint duality, and per-angle weight conservation."""
    gauss = sp.PlanarGrid.from_function(
        n, lambda X, Y: np.exp(-math.pi * (X ** 2 + Y ** 2)))
    gauss_half = sp.PlanarGrid.from_function(
        n // 2, lambda X, Y: np.exp(-math.pi * (X ** 2 + Y ** 2)))
    rng = np.random.default_rng([seed, 1])
    gs = [_random_plane_function(rng, duality_n) for _ in range(duality_each)]
    fs = [_random_cylinder_function(rng, duality_n) for _ in range(duality_each)]
    # weight conservation on a compactly supported smooth bump (a Gaussian
    # leaves an n-independent tail outside the integration window)
    rng_m = np.random.default_rng([seed, 11])
    c = rng_m.uniform(-0.5, 0.5, 2)
    w = rng_m.uniform(0.5, 0.7)
    bump = _compact_bump(n, c, w)
    bump_half = _compact_bump(n // 2, c, w)
    # np.interp releases the interpreter lock, so a helper thread backprojects
    # beside one `_xray` call (grids of a side share each angle's geometry)
    with ThreadPoolExecutor(max_workers=1) as helper:
        backprojected = helper.submit(lambda: [sp.adjoint_xray(f) for f in fs])
        r_gauss, r_gauss_half, r_bump, r_bump_half, *rgs = sp._xray(
            [gauss, gauss_half, bump, bump_half] + gs)
        rstars = backprojected.result()

    res_full = sp.slice_identity_residual(gauss, r_gauss, seed=seed)
    res_half = sp.slice_identity_residual(gauss_half, r_gauss_half, seed=seed)
    gaps = []
    for f, rf in zip(fs, rstars):
        for g, rg in zip(gs, rgs):
            lhs = sp.plane_inner(rf, g)
            rhs = sp.cylinder_inner(f, rg)
            gaps.append(abs(lhs - rhs) / (f.norm_l2() * g.norm_l2()))
    max_gap = max(gaps)
    mass_err = _mass_error(bump, r_bump)
    mass_err_half = _mass_error(bump_half, r_bump_half)

    rows = [{"check": "slice_residual", "n": n, "value": res_full},
            {"check": "slice_residual", "n": n // 2, "value": res_half},
            {"check": "duality_gap", "n": duality_n, "value": max_gap},
            {"check": "mass_error", "n": n, "value": mass_err},
            {"check": "mass_error", "n": n // 2, "value": mass_err_half}]
    mass_tol = 1e-6 if n >= 512 else 3e-5
    summary = {
        "slice_residual": res_full,
        "slice_residual_half": res_half,
        "duality_gap": max_gap,
        "duality_pairs": duality_each ** 2,
        "mass_error": mass_err,
        "pass_slice": bool(res_full <= 1e-3 and res_full <= res_half),
        "pass_duality": bool(max_gap <= 1e-6),
        "pass_mass": bool(mass_err <= mass_tol and mass_err <= mass_err_half),
    }
    summary["pass"] = bool(summary["pass_slice"] and summary["pass_duality"]
                           and summary["pass_mass"])
    return rows, summary


def exp_smoothing(seed=0, n=256, n_bumps=40,
                  s_values=(-0.5, -0.25, 0.0, 0.25, 0.5)):
    """Norm-gain ratios of the transform over a random bump suite."""
    rng = np.random.default_rng([seed, 2])
    chi = sp.canonical_cutoff(n)
    bumps = []
    for _ in range(n_bumps):
        ang = rng.uniform(0, 2 * math.pi)
        rad = math.sqrt(rng.uniform(0, 1.0))
        c = (rad * math.cos(ang), rad * math.sin(ang))
        w = rng.uniform(0.05, 0.3)
        bumps.append(_gaussian_bump(n, [c], [w], [1.0]))

    by_bump = [sp.smoothing_ratio(g, s_values, chi) for g in bumps]
    rows = []
    per_s = {}
    for k, s in enumerate(s_values):
        ratios = [r[k] for r in by_bump]
        rows.extend({"s": s, "bump": b, "ratio": ratio}
                    for b, ratio in enumerate(ratios))
        per_s[s] = (min(ratios), max(ratios))
    summary = {
        "band": {str(s): {"min": per_s[s][0], "max": per_s[s][1],
                          "spread": per_s[s][1] / per_s[s][0]}
                 for s in s_values},
        "max_spread": max(per_s[s][1] / per_s[s][0] for s in s_values),
    }
    summary["pass"] = bool(summary["max_spread"] <= SMOOTHING_BAND)
    return rows, summary


def exp_energy(seed=0, s_values=(0.5, 1.0, 1.5),
               deltas=(2.0 ** -6, 2.0 ** -7, 2.0 ** -8)):
    """Fourier-side versus direct-sum Riesz energies across generated measures.

    The suite pairs each exponent s with measures of dimension s and a bit
    above (where the s-energy is genuinely finite), on both roots of the
    generator family.
    """
    rows = []
    ratios = []
    for s in s_values:
        dims = sorted({s, min(s + 0.4, 2.0)})
        for dim in dims:
            for k, delta in enumerate(deltas):
                m = ms.generate_cantor_measure(dim, delta, seed=[seed, 3, k])
                direct = ms.riesz_energy_direct(m, s)
                fourier = sp.riesz_energy_fourier(m, s)
                ratio = fourier / direct
                ratios.append(ratio)
                rows.append({"s": s, "dim": dim, "delta": delta,
                             "direct": direct, "fourier": fourier,
                             "ratio": ratio})
    summary = {"min_ratio": min(ratios), "max_ratio": max(ratios),
               "pass": bool(min(ratios) >= 0.25 and max(ratios) <= 4.0)}
    return rows, summary


def exp_lemma4(seed=0, n_fixtures=1000):
    """Random fixtures: the angular-average bound must dominate incidences."""
    rng = np.random.default_rng([seed, 4])
    fixtures = []
    for _ in range(n_fixtures):
        delta = float(2.0 ** -rng.integers(4, 8))
        n_mu = int(rng.integers(4, 14))
        n_nu = int(rng.integers(4, 14))
        nx, _ = grid_shape(PLANE, level_for_resolution(PLANE, delta))
        # atoms within the unit-ball window
        span = nx // 4
        mu = ms.PlanarAtomMeasure(
            delta, rng.integers(nx // 2 - span // 2, nx // 2 + span // 2, n_mu),
            rng.integers(nx // 2 - span // 2, nx // 2 + span // 2, n_mu),
            rng.uniform(0.1, 1.0, n_mu))
        ncol, nrow = grid_shape(LINESPACE, level_for_resolution(LINESPACE, delta))
        nu = ms.LineParamMeasure(
            delta, rng.integers(ncol // 4, 3 * ncol // 4, n_nu),
            rng.integers(nrow // 4, 3 * nrow // 4, n_nu),
            rng.uniform(0.1, 1.0, n_nu))
        fixtures.append((mu, nu, delta))
    rows = []
    violations = 0
    worst = math.inf
    bounds = inc.lemma4_upper_bound(fixtures)
    for k, ((mu, nu, delta), bound) in enumerate(zip(fixtures, bounds)):
        value = inc.incidences(mu, nu, delta)
        ok = bound * LEMMA4_SAFETY >= value
        if value > 0:
            worst = min(worst, bound / value)
        violations += 0 if ok else 1
        if k < 50:
            rows.append({"fixture": k, "delta": delta, "bound": bound,
                         "incidence": value, "ok": ok})
    summary = {"fixtures": n_fixtures, "violations": violations,
               "worst_margin": None if worst is math.inf else worst,
               "pass": bool(violations == 0)}
    return rows, summary


ATOM_CAP = 13000  # desk-scale bound on atoms per generated measure


def _window_count(dim, steps):
    return 4 * int(np.prod(ms._child_count_sequence(dim, steps, 4)))


def _auto_window(root, dim, delta):
    """Largest 2x2 dyadic block keeping the atom count under ATOM_CAP.

    Returns (x0, x1, y0, y1).  PLANE blocks are centered at the origin,
    with squares of side 1/2 and finer; LINESPACE blocks sit in
    [1/4, 3/4) x [-1, 1), with squares of side 1/4 and finer.  Four
    equal-mass window squares of side L need L^dim >= 1/64 for the
    generator's Frostman contract, so the window cannot shrink arbitrarily.
    """
    level = level_for_resolution(root, delta)
    for w_level in range(3 if root == PLANE else 2, level):
        side = side_at_level(root, w_level)
        if 0.25 / side ** dim > 14.0:
            break
        if _window_count(dim, level - w_level) <= ATOM_CAP:
            x0 = -side if root == PLANE else 0.25
            return (x0, x0 + 2 * side, -side, side)
    raise ValueError("no feasible window under the atom cap")


def exp_incidence_sweep(seed=0, t_values=(1.1, 1.3, 1.5, 1.7, 1.9),
                        n_seeds=3, deltas=None):
    """Incidence-to-energy ratios across the (t, seed) fixture grid.

    Both fixture measures carry dimension t (window sizes scaled so atom
    counts respect the desk limit).
    """
    if not all(1.0 < t < 2.0 for t in t_values):
        raise ValueError("exponent t must lie in (1, 2)")
    deltas = deltas or DESK_DELTAS
    resolution = min(deltas)
    rows = []
    fixture_summaries = []
    for t in t_values:
        for j in range(n_seeds):
            mu = ms.generate_cantor_measure(
                t, resolution, seed=[seed, 5, j],
                window=_auto_window(PLANE, t, resolution))
            nu = ms.generate_line_measure(
                t, resolution, seed=[seed, 6, j],
                window=_auto_window(LINESPACE, t, resolution))
            sweep_rows, summ = inc.inequality_sweep(mu, nu, t, deltas)
            summ["seed_index"] = j
            fixture_summaries.append(summ)
            for r in sweep_rows:
                rows.append({"t": t, "seed_index": j, **r})
    summary = {
        "fixtures": fixture_summaries,
        "max_slope": max(f["slope"] for f in fixture_summaries),
        "pass": bool(all(f["pass"] for f in fixture_summaries)),
    }
    return rows, summary


# ---------------------------------------------------------------------------
# content oracles

ORACLE_LEVELS_UP = 4  # cover squares reach at most this many levels up
ENUM_CAP = 200000  # cover combinations enumerate_cover_min may build


def content_cover_lp(P, s):
    """Covering LP relaxation solved exactly; integral for laminar families.

    Leaf-ancestor incidence matrices have the consecutive-ones property in
    Morton order, so the LP optimum equals the best antichain cover and is
    an independent check of the tree DP.
    """
    from scipy import optimize
    if len(P) == 0:
        return 0.0
    A, costs = _cover_lp_system(P, s)
    res = optimize.linprog(costs, A_ub=-A, b_ub=-np.ones(len(P)),
                           bounds=(0, 1), method="highs")
    if not res.success:
        raise RuntimeError(f"cover LP failed: {res.message}")
    return float(res.fun)


def _cover_lp_system(P, s):
    """The cover LP's (leaves x nodes) leaf-ancestor matrix and node costs.

    Row i marks the ancestors of leaf i from its own level up to
    ORACLE_LEVELS_UP levels above it, or to level 0.  Nodes are numbered in
    order of first appearance, leaf by leaf and finest level first, and a
    node at level lev costs side_at_level(P.root, lev) ** s.
    """
    from scipy import sparse
    ups = min(P.level, ORACLE_LEVELS_UP) + 1  # levels, the leaves' own first
    # one code per (leaf, level): the ancestor's cell code, kept apart from
    # the other levels' codes by its level
    codes = np.column_stack([_cell_codes(P.root, P.level, P.ix, P.iy, up) * ups + up
                             for up in range(ups)])
    _, first, inverse = np.unique(codes.ravel(), return_index=True,
                                  return_inverse=True)
    node = np.empty(first.size, dtype=np.int64)
    node[np.argsort(first)] = np.arange(first.size)
    level_costs = np.array([side_at_level(P.root, P.level - up) ** s
                            for up in range(ups)])
    costs = np.empty(first.size)
    costs[node] = level_costs[first % ups]
    A = sparse.csr_matrix((np.ones(codes.size),
                           (np.repeat(np.arange(len(P)), ups), node[inverse])),
                          shape=(len(P), first.size))
    return A, costs


def enumerate_cover_min(P, s):
    """Exhaustive minimum over antichain covers (small sparse sets only)."""
    if len(P) == 0:
        return 0.0
    top = max(0, P.level - ORACLE_LEVELS_UP)
    children = {}
    roots = set()
    for a, b in zip(P.ix.tolist(), P.iy.tolist()):
        node = (P.level, a, b)
        for lev in range(P.level, top, -1):
            shift = P.level - lev
            cur = (lev, a >> shift, b >> shift)
            par = (lev - 1, a >> (shift + 1), b >> (shift + 1))
            children.setdefault(par, set()).add(cur)
        roots.add((top, a >> (P.level - top), b >> (P.level - top)))

    count = [0]

    def covers(node):
        own = side_at_level(P.root, node[0]) ** s
        if node not in children:
            return [own]
        options = [own]
        combos = [0.0]
        for ch in sorted(children[node]):
            sub = covers(ch)
            # check before building the product, which can be far over cap
            count[0] += len(combos) * len(sub)
            if count[0] > ENUM_CAP:
                raise RuntimeError("enumeration cap exceeded")
            combos = [c + v for c in combos for v in sub]
        options.extend(combos)
        return options

    return math.fsum(min(covers(r)) for r in sorted(roots))


def _random_point_set(rng, level, n_cells, spread):
    nx, ny = grid_shape(PLANE, level)
    cx = int(rng.integers(spread, nx - spread))
    cy = int(rng.integers(spread, ny - spread))
    ix = rng.integers(cx - spread, cx + spread, n_cells)
    iy = rng.integers(cy - spread, cy + spread, n_cells)
    return ms.PointSet(PLANE, side_at_level(PLANE, level), ix, iy)


def exp_content(seed=0, n_enum=60, n_lp=40):
    """Tree-DP optimality against enumeration and LP oracles, plus the
    multiscale-cover and extraction contracts on the same fixtures."""
    rng = np.random.default_rng([seed, 7])
    rows = []
    agree = 0
    total = 0
    extraction_ok = True
    multiscale_ok = True
    while total < n_enum + n_lp:
        use_enum = total < n_enum
        if use_enum:
            level = int(rng.integers(6, 9))
            P = _random_point_set(rng, level, int(rng.integers(3, 40)), 8)
        else:
            level = int(rng.integers(8, 11))
            P = _random_point_set(rng, level, int(rng.integers(100, 4096)), 48)
        s = float(rng.uniform(0.4, 2.0))
        dp = ct.dyadic_content(P, s, max_levels_up=ORACLE_LEVELS_UP)
        if use_enum:
            try:
                oracle = enumerate_cover_min(P, s)
            except RuntimeError:
                continue
            kind = "enum"
        else:
            oracle = content_cover_lp(P, s)
            kind = "lp"
        ok = abs(dp.value - oracle) <= 1e-6 * max(1.0, dp.value)
        agree += int(ok)
        total += 1
        rows.append({"fixture": total, "oracle": kind, "cells": len(P),
                     "s": s, "dp": dp.value, "oracle_value": oracle,
                     "agree": ok})

        try:
            content = ct.multiscale_cover(P, s).value
        except ct.CoverError:
            multiscale_ok = False
            continue  # no checked content to hold the extraction against
        sub = ct.extract_katz_tao_subset(P, s)
        if len(sub) * P.resolution ** s < content / 64.0:
            extraction_ok = False
        if ct.smallest_katz_tao_constant(sub, s) > 1.0 + 1e-9:
            extraction_ok = False

    summary = {"fixtures": total, "oracle_agreement": agree,
               "extraction_ok": extraction_ok,
               "multiscale_ok": multiscale_ok,
               "pass": bool(agree == total and extraction_ok and multiscale_ok)}
    return rows, summary


def exp_furstenberg(seed=0, fixtures=((0.5, 1.6), (0.8, 1.4), (1.0, 1.2)),
                    deltas=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8)):
    """Union tube-family content across scales: no decay, uniform floor."""
    rows = []
    fixture_summaries = []
    for (s, t) in fixtures:
        sigma = s - 0.1
        values = []
        totals = []
        for d in deltas:
            cfg = sc.build_furstenberg(s, t, d, seed=[seed, 8])
            v = sc.furstenberg_content(cfg, sigma)
            values.append(v)
            totals.append(cfg.mu.total)
            rows.append({"s": s, "t": t, "sigma": sigma, "delta": d,
                         "content": v, "mu_total": cfg.mu.total})
        slope = inc.fit_slope([1.0 / d for d in deltas], values)
        floor_ok = all(v >= FURSTENBERG_FLOOR * tot
                       for v, tot in zip(values, totals))
        fixture_summaries.append({"s": s, "t": t, "slope": slope,
                                  "min_content": min(values),
                                  "pass": bool(slope >= SLOPE_MIN and floor_ok)})
    summary = {"fixtures": fixture_summaries,
               "pass": bool(all(f["pass"] for f in fixture_summaries))}
    return rows, summary


def exp_slicing(seed=0, s=0.6, t=1.6, tau=1.3,
                deltas=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8)):
    """Max tube-slice content across scales: no decay, absolute floor."""
    rows = []
    values = []
    for d in deltas:
        cfg = sc.build_slicing(s, t, tau, d, seed=[seed, 9])
        value, x_cell, tube_cell = sc.slicing_tube_content(cfg)
        values.append(value)
        rows.append({"s": s, "t": t, "tau": tau, "delta": d,
                     "C": cfg.C, "max_content": value,
                     "witness_x": str(x_cell), "witness_tube": str(tube_cell)})
    slope = inc.fit_slope([1.0 / d for d in deltas], values)
    summary = {"slope": slope, "min_value": min(values),
               "pass": bool(slope >= SLOPE_MIN
                            and min(values) >= SLICING_FLOOR)}
    return rows, summary


RADIAL_E_WINDOW = (-0.75, 0.5, -0.5, 0.5)
RADIAL_F_WINDOW = (0.75, 1.0, -0.125, 0.125)


def exp_radial(seed=0, s=0.8, t=1.5, sigma=0.6, delta=2.0 ** -8):
    """Radial covering check on the separated generator pair."""
    E = ms.generate_cantor_measure(s, delta, seed=[seed, 10, 0],
                                   window=RADIAL_E_WINDOW).support()
    F = ms.generate_cantor_measure(t, delta, seed=[seed, 10, 1],
                                   window=RADIAL_F_WINDOW).support()
    return sc.radial_check(E, F, sigma, delta, s=s, t=t, seed=seed)


# ---------------------------------------------------------------------------

VERIFY_PLAN = [
    ("fourier-slice", exp_xray_check, {"desk": {}, "quick": {"n": 256, "duality_each": 4}}),
    ("smoothing", exp_smoothing, {"desk": {}, "quick": {"n": 128, "n_bumps": 8}}),
    ("energy-equivalence", exp_energy, {"desk": {}, "quick": {"deltas": (2.0 ** -6,)}}),
    ("tube-average-bound", exp_lemma4, {"desk": {}, "quick": {"n_fixtures": 100}}),
    ("incidence-inequality", exp_incidence_sweep,
     {"desk": {}, "quick": {"t_values": (1.3, 1.7), "n_seeds": 1,
                            "deltas": (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)}}),
    ("content-dp", exp_content, {"desk": {}, "quick": {"n_enum": 15, "n_lp": 10}}),
    ("furstenberg", exp_furstenberg,
     {"desk": {}, "quick": {"fixtures": ((0.8, 1.4),),
                            "deltas": (2.0 ** -5, 2.0 ** -6)}}),
    ("slicing", exp_slicing,
     {"desk": {}, "quick": {"deltas": (2.0 ** -5, 2.0 ** -6)}}),
    ("radial", exp_radial, {"desk": {}, "quick": {"delta": 2.0 ** -7}}),
]
