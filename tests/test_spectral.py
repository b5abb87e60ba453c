import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.integrate import quad

from inclab import experiments, spectral
from inclab.measures import PlanarAtomMeasure, generate_cantor_measure
from inclab.spectral import (_MARCH_MAX, CylinderGrid, PlanarGrid, _xray, adjoint_xray,
                             canonical_cutoff, cylinder_inner, mixed_fourier,
                             nonuniform_plane_fourier, plane_inner, riesz_energy_fourier, riesz_gamma,
                             slice_identity_residual, smoothing_ratio,
                             sobolev_norm_cylinder, sobolev_norm_plane, xray)


def gaussian_grid(n):
    return PlanarGrid.from_function(n, lambda X, Y: np.exp(-np.pi * (X ** 2 + Y ** 2)))


def random_smooth_pair(rng, n):
    k = 3
    centers = rng.uniform(-0.6, 0.6, (k, 2))
    ws = rng.uniform(0.08, 0.16, k)
    amps = rng.uniform(0.5, 1.5, k)

    def fg(X, Y):
        out = np.zeros_like(X)
        for (cx, cy), w, a in zip(centers, ws, amps):
            out += a * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * w * w))
        return out

    g = PlanarGrid.from_function(n, fg)
    th = np.arange(n) / n
    r = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    T, R = np.meshgrid(th, r, indexing="ij")
    vals = np.zeros_like(T)
    for _ in range(3):
        c = rng.uniform(-0.2, 0.2)
        w = rng.uniform(0.18, 0.3)
        mode = rng.integers(0, 5)
        vals += rng.uniform(0.2, 1.0) * np.cos(2 * math.pi * mode * T
                                               + rng.uniform(0, 2 * math.pi)) \
            * np.exp(-((R - c) ** 2) / (2 * w * w))
    return CylinderGrid(vals), g


def xray_oracle(g):
    """The transform by ndimage.map_coordinates, one angle at a time."""
    n, h = g.n, g.h
    rs = -2.0 + (np.arange(n) + 0.5) * h
    m = int(math.ceil(2.0 * _MARCH_MAX / h))
    u = (np.arange(m) - 0.5 * (m - 1)) * h
    active = np.abs(rs) <= _MARCH_MAX
    ra = rs[active]
    out = np.zeros((n, n))
    for i in range(n):
        a = 2.0 * math.pi * (i / n)
        c, s = math.cos(a), math.sin(a)
        ci = (ra[:, None] * c + u[None, :] * s + 2.0) / h - 0.5
        cj = (ra[:, None] * s - u[None, :] * c + 2.0) / h - 0.5
        line = ndimage.map_coordinates(g.values, [ci.ravel(), cj.ravel()],
                                       order=1, mode="constant", cval=0.0)
        out[i, active] = line.reshape(ra.size, m).sum(axis=1) * h
    return out


def adjoint_oracle(f):
    """The backprojection with the projection built from two meshgrids."""
    n = f.n_r
    rs = f.rs()
    X, Y = np.meshgrid(rs, rs, indexing="ij")
    acc = np.zeros((n, n))
    for i in range(f.n_theta):
        a = 2.0 * math.pi * (i / f.n_theta)
        proj = X * math.cos(a) + Y * math.sin(a)
        acc += np.interp(proj.ravel(), rs, f.values[i]).reshape(n, n)
    return acc / f.n_theta


def nonuniform_oracle(g, points):
    """The planar Fourier sum with the real grid in each point's product."""
    x = g.axis()
    out = np.empty(len(points), dtype=complex)
    for k, (xi1, xi2) in enumerate(points):
        vx = np.exp(-2j * math.pi * xi1 * x)
        vy = np.exp(-2j * math.pi * xi2 * x)
        out[k] = g.h ** 2 * (vx @ g.values @ vy)
    return out


def random_bumps(rng, n):
    """Three Gaussian bumps with signed amplitudes, inside B(1.5)."""
    def f(X, Y):
        out = np.zeros_like(X)
        for _ in range(3):
            cx, cy = rng.uniform(-0.5, 0.5, 2)
            w = rng.uniform(0.05, 0.15)
            amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
            out += amp * np.exp(
                -((X - cx) ** 2 + (Y - cy) ** 2) / (2 * w * w))
        return out
    return PlanarGrid.from_function(n, f)


def assert_bits_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_xray_matches_map_coordinates_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        g = random_bumps(rng, n)
        assert_bits_equal(xray(g).values[:n // 2], xray_oracle(g)[:n // 2])


def test_xray_blocks_match_map_coordinates_oracle(monkeypatch):
    # rows marched in blocks of about 1,000 samples (one n = 64 angle has
    # 3,136), as n = 256 and n = 512 are by default
    monkeypatch.setattr(spectral, "_BLOCK_SAMPLES", 1000)
    n = 64
    g = random_bumps(np.random.default_rng(11), n)
    assert_bits_equal(xray(g).values[:n // 2], xray_oracle(g)[:n // 2])


def test_batched_xray_equals_per_grid_xray():
    rng = np.random.default_rng(12)
    grids = [random_bumps(rng, n) for n in (16, 32, 64, 128) for _ in range(2)]
    order = rng.permutation(len(grids))
    batched = _xray([grids[k] for k in order])
    for k, Rg in zip(order, batched):
        assert_bits_equal(Rg.values, xray(grids[k]).values)


def test_xray_half_turn_mirror_is_exact():
    n = 64
    R = xray(random_bumps(np.random.default_rng(9), n)).values
    assert_bits_equal(R[n // 2:], R[:n // 2, ::-1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.floats(-10.0, 10.0, allow_subnormal=False),
       st.floats(-10.0, 10.0, allow_subnormal=False))
def test_xray_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    g1, g2 = random_bumps(rng, 32), random_bumps(rng, 32)
    R1, R2 = xray(g1).values, xray(g2).values
    combo = xray(PlanarGrid(a * g1.values + b * g2.values)).values
    scale = np.abs(a * R1).max() + np.abs(b * R2).max()
    assert np.abs(combo - (a * R1 + b * R2)).max() <= 1e-12 * scale


def test_xray_ball_chord():
    n = 512
    g = PlanarGrid.from_function(n, lambda X, Y: (X ** 2 + Y ** 2 <= 1.0).astype(float))
    Rg = xray(g)
    r = Rg.rs()
    j = int(np.argmin(np.abs(r - 0.6)))
    chord = 2.0 * math.sqrt(1.0 - r[j] ** 2)
    for i in (0, 100, 333):
        assert abs(Rg.values[i, j] - chord) <= 6.0 / n


def test_xray_gaussian_marginal():
    n = 512
    Rg = xray(gaussian_grid(n))
    r = Rg.rs()
    expect = np.exp(-np.pi * r ** 2)
    assert np.abs(Rg.values[::37] - expect[None, :]).max() <= 1e-3


def test_xray_mass_conservation():
    # compactly supported smooth bump: per-angle masses match the plane sum
    def bump(X, Y):
        q = (X ** 2 + Y ** 2) / (1.2 ** 2)
        out = np.zeros_like(X)
        core = q < 1.0
        out[core] = np.exp(-1.0 / (1.0 - q[core]))
        return out

    errs = []
    for n in (256, 512):
        g = PlanarGrid.from_function(n, bump)
        Rg = xray(g)
        masses = Rg.values.sum(axis=1) * Rg.dr
        true = float(g.values.sum()) * g.h ** 2
        errs.append(np.abs(masses / true - 1.0).max())
    assert errs[1] <= 1e-6
    assert errs[1] <= errs[0]


def test_xray_support_check():
    n = 64
    wide = PlanarGrid.from_function(n, lambda X, Y: np.exp(-(X ** 2 + Y ** 2) / 2.0))
    with pytest.raises(ValueError, match="support too large"):
        xray(wide)


def test_adjoint_constants():
    n = 64
    f = CylinderGrid(np.ones((n, n)))
    out = adjoint_xray(f)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-12)


def test_adjoint_theta_independent():
    n = 128
    r = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    phi = np.exp(-r ** 2)
    f = CylinderGrid(np.tile(phi, (n, 1)))
    out = adjoint_xray(f)
    center = out.values[n // 2, n // 2]
    # the nearest sample to the origin sits at (h/2, h/2), so projections
    # stay within h/sqrt(2) of zero and the average is phi(0) + O(h^2)
    assert center == pytest.approx(np.interp(0.0, r, phi), abs=5e-4)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(0)
def test_adjoint_duality_random_pairs(seed):
    # n = 256: at n = 128 some pairs already leave a gap above 1e-6
    f, g = random_smooth_pair(np.random.default_rng(seed), 256)
    lhs = plane_inner(adjoint_xray(f), g)
    rhs = cylinder_inner(f, xray(g))
    assert abs(lhs - rhs) <= 1e-6 * f.norm_l2() * g.norm_l2()


@pytest.mark.parametrize("n_theta, n_r", [(16, 16), (64, 64), (24, 32),
                                          (100, 16), (7, 128)])
def test_adjoint_matches_meshgrid_oracle(n_theta, n_r):
    rng = np.random.default_rng(n_theta * n_r)
    f = CylinderGrid(rng.standard_normal((n_theta, n_r)))
    assert_bits_equal(adjoint_xray(f).values, adjoint_oracle(f))


def test_adjoint_rejects_bad_side_before_any_angle(monkeypatch):
    def no_interp(*args, **kwargs):
        raise AssertionError("angle loop ran before the side was checked")

    monkeypatch.setattr(np, "interp", no_interp)
    for n_r in (8, 24, 100):
        with pytest.raises(ValueError, match="power of two"):
            adjoint_xray(CylinderGrid(np.ones((64, n_r))))


def test_xray_check_helper_thread_raises_and_joins(monkeypatch):
    def broken(f):
        raise RuntimeError("backprojection failed")

    monkeypatch.setattr(spectral, "adjoint_xray", broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="backprojection failed"):
        experiments.exp_xray_check(n=32, duality_n=32, duality_each=2)
    assert threading.active_count() == before


def test_nonuniform_fourier_matches_per_point_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-8.0, 8.0, (40, 2))
    for n in (16, 64):
        g = random_bumps(rng, n)
        assert_bits_equal(nonuniform_plane_fourier(g, pts).view(float),
                          nonuniform_oracle(g, pts).view(float))


def test_nonuniform_fourier_gaussian_closed_form():
    # exp(-pi |x|^2) is its own Fourier transform; the box cuts off
    # about 1e-6 of its mass
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, -0.7], [1.2, 0.4]])
    got = nonuniform_plane_fourier(gaussian_grid(128), pts)
    want = np.exp(-math.pi * np.sum(pts ** 2, axis=1))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_nonuniform_fourier_rejects_points_not_m_by_2():
    g = gaussian_grid(16)
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((2, 2, 2)), [[0.5]]):
        with pytest.raises(ValueError, match="shape"):
            nonuniform_plane_fourier(g, bad)


def test_mixed_fourier_pure_mode():
    n = 128
    th = np.arange(n) / n
    r = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    T, R = np.meshgrid(th, r, indexing="ij")
    f = CylinderGrid(np.exp(2j * math.pi * 3 * T) * np.exp(-R ** 2))
    spec, modes, _ = mixed_fourier(f)
    power = np.abs(spec) ** 2
    row3 = int(np.where(modes == 3)[0][0])
    others = power.sum() - power[row3].sum()
    assert others <= 1e-20 * power.sum()


def test_mixed_fourier_hermitian():
    rng = np.random.default_rng(1)
    n = 64
    f = CylinderGrid(rng.standard_normal((n, n)))
    spec, _, _ = mixed_fourier(f)
    # F(-n, -rho) = conj(F(n, rho)) away from the unpaired Nyquist lines
    for ni in (1, 5, 20):
        for ki in (2, 9, 30):
            a = spec[-ni, -ki]
            b = spec[ni, ki]
            assert abs(a - np.conj(b)) <= 1e-12 * (abs(a) + 1.0)


def test_mixed_fourier_parseval():
    rng = np.random.default_rng(2)
    f = CylinderGrid(rng.standard_normal((128, 128)))
    spec, _, rhos = mixed_fourier(f)
    lhs = float((np.abs(spec) ** 2).sum()) * (rhos[1] - rhos[0])
    rhs = float((f.values ** 2).sum()) * (1.0 / 128) * (4.0 / 128)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_sobolev_cylinder_s0_is_l2():
    rng = np.random.default_rng(3)
    f = CylinderGrid(rng.standard_normal((64, 64)))
    assert sobolev_norm_cylinder(f, 0.0) == pytest.approx(f.norm_l2(), rel=1e-10)


def test_sobolev_cylinder_pure_mode_weight():
    n = 256
    th = np.arange(n) / n
    r = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    T, R = np.meshgrid(th, r, indexing="ij")
    rho0 = 3.0
    f = CylinderGrid(np.exp(2j * math.pi * 3 * T)
                     * np.exp(2j * math.pi * rho0 * R)
                     * np.exp(-R ** 2 / (2 * 0.15 ** 2)))
    l2sq = float((np.abs(f.values) ** 2).sum()) * (1.0 / n) * (4.0 / n)
    for s in (0.5, -0.25):
        norm = sobolev_norm_cylinder(f, s)
        pred = (3 ** 2 + rho0 ** 2) ** s * l2sq
        assert norm ** 2 == pytest.approx(pred, rel=0.05)


def test_sobolev_scaling():
    rng = np.random.default_rng(4)
    f = CylinderGrid(rng.standard_normal((64, 64)))
    c = 3.7
    a = sobolev_norm_cylinder(CylinderGrid(c * f.values), 0.5)
    b = sobolev_norm_cylinder(f, 0.5)
    assert a == pytest.approx(c * b, rel=1e-12)


def test_sobolev_cylinder_endpoint_exclusion_warns():
    rng = np.random.default_rng(5)
    f = CylinderGrid(rng.standard_normal((32, 32)))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        sobolev_norm_cylinder(f, -0.5)
    assert any("zero-frequency bin excluded" in str(x.message) for x in w)


def test_sobolev_sequences_match_scalar_calls():
    rng = np.random.default_rng(13)
    g = random_bumps(rng, 64)
    f = CylinderGrid(rng.standard_normal((32, 32)))
    plane_s = (0.5, -0.75, 0.0, -0.25, 1.0, 0.5)
    cyl_s = (0.25, -1.0, 0.0, 1.0, -0.5, -0.3)
    assert_bits_equal(np.array(sobolev_norm_plane(g, plane_s)),
                      np.array([sobolev_norm_plane(g, s) for s in plane_s]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_bits_equal(np.array(sobolev_norm_cylinder(f, cyl_s)),
                          np.array([sobolev_norm_cylinder(f, s) for s in cyl_s]))
    assert isinstance(sobolev_norm_plane(g, 0.5), float)
    assert sobolev_norm_plane(g, [0.5]) == [sobolev_norm_plane(g, 0.5)]
    assert sobolev_norm_plane(g, []) == sobolev_norm_cylinder(f, []) == []


def test_sobolev_cylinder_sequence_warns_once():
    f = CylinderGrid(np.random.default_rng(14).standard_normal((32, 32)))
    for exps, count in (((0.5, -0.5, -1.0, 0.0), 1), ((0.5, 0.0), 0)):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            sobolev_norm_cylinder(f, exps)
        assert sum("zero-frequency bin excluded" in str(x.message)
                   for x in w) == count


def test_sobolev_bad_exponent_raises_before_any_fft(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("spectrum computed before the exponents were checked")

    monkeypatch.setattr(spectral, "plane_fourier", no_fft)
    monkeypatch.setattr(spectral, "mixed_fourier", no_fft)
    g = PlanarGrid(np.zeros((16, 16)))
    f = CylinderGrid(np.zeros((16, 16)))
    for exps in ((0.0, 0.5, -1.0), (1.5, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="exponent"):
            sobolev_norm_plane(g, exps)
    for exps in ((0.0, 0.5, -1.5), (0.0, 1.01), (math.nan,)):
        with pytest.raises(ValueError, match="exponent"):
            sobolev_norm_cylinder(f, exps)


def test_cylinder_grid_rejects_non_finite_values_and_empty_axes():
    with pytest.raises(ValueError, match="finite"):
        sobolev_norm_cylinder(CylinderGrid(np.full((16, 16), np.nan)), 0.0)
    with pytest.raises(ValueError, match="finite"):
        CylinderGrid(np.where(np.eye(8) > 0, np.inf, 1.0))
    with pytest.raises(ValueError, match="empty"):
        adjoint_xray(CylinderGrid(np.zeros((0, 16))))
    with pytest.raises(ValueError, match="empty"):
        CylinderGrid(np.zeros((16, 0)))


def test_sobolev_plane_gaussian():
    g = gaussian_grid(512)
    assert sobolev_norm_plane(g, 0.0) ** 2 == pytest.approx(0.5, abs=1e-4)
    oracle_half = 2 * math.pi * quad(
        lambda t: t ** 2 * math.exp(-2 * math.pi * t ** 2), 0, 10)[0]
    assert sobolev_norm_plane(g, 0.5) ** 2 == pytest.approx(oracle_half, abs=1e-3)
    oracle_neg = 2 * math.pi * quad(
        lambda t: math.exp(-2 * math.pi * t ** 2), 0, 10)[0]
    assert sobolev_norm_plane(g, -0.5) ** 2 == pytest.approx(oracle_neg, rel=0.01)


@pytest.mark.parametrize("s", [-0.25, -0.4])
def test_sobolev_cylinder_radial_gaussian(s):
    # exp(-pi r^2) on every angle has only the n = 0 modes, exp(-pi rho^2),
    # so the squared norm is the integral of exp(-2 pi rho^2) |rho|^(2s):
    # gamma(s + 1/2) / (2 pi)^(s + 1/2).  At negative s the origin bin
    # carries a visible share of it (2.29 at s = -0.25 against 2.02 with the
    # square bin's mean there)
    r = -2.0 + (np.arange(256) + 0.5) * (4.0 / 256)
    f = CylinderGrid(np.tile(np.exp(-np.pi * r ** 2), (16, 1)))
    expect = math.gamma(s + 0.5) / (2 * math.pi) ** (s + 0.5)
    assert sobolev_norm_cylinder(f, s) ** 2 == pytest.approx(expect, rel=0.01)


def test_riesz_fourier_single_atom_closed_form():
    # exact constants of the truncated spectral integral for a point mass:
    # gamma(s) * 2 pi * R^s / s at R = 1/(2 delta), against delta^-s
    delta = 2.0 ** -8
    m = PlanarAtomMeasure(delta, [512], [512], [1.0])
    for s in (0.5, 1.0, 1.5):
        expect = riesz_gamma(s) * 2 * math.pi / (s * 2.0 ** s)
        ratio = riesz_energy_fourier(m, s) / delta ** -s
        assert ratio == pytest.approx(expect, rel=0.01)


def test_riesz_fourier_vs_direct_band():
    from inclab.measures import riesz_energy_direct
    for s in (0.5, 1.0, 1.5):
        for dim in (max(s, 0.6), min(s + 0.4, 2.0)):
            m = generate_cantor_measure(dim, 2.0 ** -7, seed=11)
            ratio = riesz_energy_fourier(m, s) / riesz_energy_direct(m, s)
            assert 0.25 <= ratio <= 4.0


@st.composite
def sparse_plane_measures(draw):
    """A planar measure on a grid of side 4 to 128 whose atoms fill 1 to 9
    rows (at most every row), 1 to 4 atoms per row, with random weights."""
    n = 2 ** draw(st.integers(2, 7))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1,
                         max_size=min(n, 9), unique=True))
    ix, iy = [], []
    for r in rows:
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                             unique=True))
        ix += [r] * len(cols)
        iy += cols
    w = draw(st.lists(st.floats(0.01, 10.0), min_size=len(ix),
                      max_size=len(ix)))
    return PlanarAtomMeasure(4.0 / n, ix, iy, w)


@settings(max_examples=150, deadline=None)
@given(sparse_plane_measures())
@example(PlanarAtomMeasure(0.25, [3], [5], [1.0]))
@example(PlanarAtomMeasure(0.125, [0, 7, 31], [2, 2, 30], [0.5, 1.5, 3.0]))
@example(PlanarAtomMeasure(0.25, range(16), range(16), np.arange(1.0, 17.0)))
def test_power_spectrum_of_occupied_rows_equals_fft2(m):
    # odd and even row counts, up to every row: only the occupied rows are
    # transformed, and |.|^2 must keep fft2's bits
    n = round(4.0 / m.resolution)
    grid = np.zeros((n, n))
    grid[m.ix, m.iy] = m.weights
    expect = np.abs(np.fft.fft2(grid)) ** 2
    assert spectral._power_spectrum(m, n).tobytes() == expect.tobytes()


def test_riesz_fourier_weight_scaling():
    m = generate_cantor_measure(1.2, 2.0 ** -6, seed=12)
    a = riesz_energy_fourier(m.scaled(2.5), 1.0)
    b = riesz_energy_fourier(m, 1.0)
    assert a == pytest.approx(2.5 ** 2 * b, rel=1e-10)


def test_slice_identity_gaussian():
    g512, g256 = gaussian_grid(512), gaussian_grid(256)
    res512 = slice_identity_residual(g512, xray(g512), seed=0)
    res256 = slice_identity_residual(g256, xray(g256), seed=0)
    assert res512 <= 1e-3
    assert res512 <= res256


def test_slice_identity_zero():
    g = PlanarGrid(np.zeros((64, 64)))
    assert slice_identity_residual(g, xray(g), seed=0) == 0.0


def test_slice_identity_ball_indicator():
    n = 512
    g = PlanarGrid.from_function(n, lambda X, Y: (X ** 2 + Y ** 2 <= 1.0).astype(float))
    assert slice_identity_residual(g, xray(g), 256, seed=0) <= 1e-2


def test_slice_identity_rejects_bad_inputs():
    g = PlanarGrid(np.zeros((32, 32)))
    Rg = xray(g)
    for bad in (CylinderGrid(np.zeros((32, 16))), xray(PlanarGrid(np.zeros((16, 16))))):
        with pytest.raises(ValueError, match="transform shape"):
            slice_identity_residual(g, bad)
    for size in (0, -3):
        with pytest.raises(ValueError, match="sample size"):
            slice_identity_residual(g, Rg, sample_size=size)
    assert slice_identity_residual(g, Rg, sample_size=1) == 0.0


def test_cutoff_shape():
    chi = canonical_cutoff(256)
    X, Y = chi.meshes()
    rad = np.hypot(X, Y)
    assert np.all(chi.values[rad <= 0.99] == 1.0)
    assert np.all(chi.values[rad >= 1.51] == 0.0)
    inside = (rad > 1.05) & (rad < 1.45)
    assert np.all((chi.values[inside] > 0) & (chi.values[inside] < 1))


def test_smoothing_ratio_endpoint_and_sweep():
    n = 256
    chi = canonical_cutoff(n)
    g = gaussian_grid(n)
    [base] = smoothing_ratio(g, (-0.5,), chi)
    assert 0.0 < base < math.inf

    rng = np.random.default_rng(6)
    for s in (-0.5, 0.0, 0.5):
        ratios = []
        for _ in range(8):
            ang = rng.uniform(0, 2 * math.pi)
            rad = math.sqrt(rng.uniform(0, 1.0))
            c = (rad * math.cos(ang), rad * math.sin(ang))
            w = rng.uniform(0.05, 0.3)
            g = PlanarGrid.from_function(
                n, lambda X, Y: np.exp(-((X - c[0]) ** 2 + (Y - c[1]) ** 2)
                                       / (2 * w * w)))
            ratios.extend(smoothing_ratio(g, (s,), chi))
        assert max(ratios) / min(ratios) <= 50.0


def test_smoothing_ratio_rescaled_band():
    n = 256
    chi = canonical_cutoff(n)
    ratios = []
    for lam in (1.0, 2.0, 4.0):
        g = PlanarGrid.from_function(
            n, lambda X, Y: np.exp(-np.pi * lam ** 2 * (X ** 2 + Y ** 2)))
        ratios.extend(smoothing_ratio(g, (0.25,), chi))
    assert max(ratios) / min(ratios) <= 8.0


def test_smoothing_zero_denominator():
    n = 64
    chi = canonical_cutoff(n)
    with pytest.raises(ValueError, match="zero denominator"):
        smoothing_ratio(PlanarGrid(np.zeros((n, n))), (0.0,), chi)


def test_smoothing_ratio_shares_one_transform_across_s():
    n = 64
    chi = canonical_cutoff(n)
    g = random_bumps(np.random.default_rng(8), n)
    s_values = (-0.5, -0.25, 0.0, 0.25, 0.5)
    transform = xray(PlanarGrid(g.values * chi.values))
    expect = [sobolev_norm_cylinder(transform, s + 0.5) / sobolev_norm_plane(g, s)
              for s in s_values]
    assert_bits_equal(np.array(smoothing_ratio(g, s_values, chi)),
                      np.array(expect))
