import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.integrate import quad

from inclab.measures import PlanarAtomMeasure, generate_cantor_measure
from inclab.spectral import (_MARCH_MAX, CylinderGrid, PlanarGrid, adjoint_xray,
                             canonical_cutoff, cylinder_inner, mixed_fourier,
                             plane_inner, riesz_energy_fourier, riesz_gamma,
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


def test_adjoint_duality_random_pairs():
    rng = np.random.default_rng(0)
    n = 256
    for _ in range(8):
        f, g = random_smooth_pair(rng, n)
        lhs = plane_inner(adjoint_xray(f), g)
        rhs = cylinder_inner(f, xray(g))
        assert abs(lhs - rhs) <= 1e-6 * f.norm_l2() * g.norm_l2()


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


def test_sobolev_plane_gaussian():
    g = gaussian_grid(512)
    assert sobolev_norm_plane(g, 0.0) ** 2 == pytest.approx(0.5, abs=1e-4)
    oracle_half = 2 * math.pi * quad(
        lambda t: t ** 2 * math.exp(-2 * math.pi * t ** 2), 0, 10)[0]
    assert sobolev_norm_plane(g, 0.5) ** 2 == pytest.approx(oracle_half, abs=1e-3)
    oracle_neg = 2 * math.pi * quad(
        lambda t: math.exp(-2 * math.pi * t ** 2), 0, 10)[0]
    assert sobolev_norm_plane(g, -0.5) ** 2 == pytest.approx(oracle_neg, rel=0.01)


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


def test_riesz_fourier_weight_scaling():
    m = generate_cantor_measure(1.2, 2.0 ** -6, seed=12)
    a = riesz_energy_fourier(m.scaled(2.5), 1.0)
    b = riesz_energy_fourier(m, 1.0)
    assert a == pytest.approx(2.5 ** 2 * b, rel=1e-10)


def test_slice_identity_gaussian():
    res512 = slice_identity_residual(gaussian_grid(512), seed=0)
    res256 = slice_identity_residual(gaussian_grid(256), seed=0)
    assert res512 <= 1e-3
    assert res512 <= res256


def test_slice_identity_zero():
    g = PlanarGrid(np.zeros((64, 64)))
    assert slice_identity_residual(g, seed=0) == 0.0


def test_slice_identity_ball_indicator():
    n = 512
    g = PlanarGrid.from_function(n, lambda X, Y: (X ** 2 + Y ** 2 <= 1.0).astype(float))
    assert slice_identity_residual(g, 256, seed=0) <= 1e-2


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
