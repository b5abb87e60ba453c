"""Grid-sampled X-ray transform, its adjoint, mixed Fourier analysis on the
cylinder, homogeneous Sobolev norms, and the Fourier-side Riesz energy.

Planar functions are sampled cell-centered on [-2,2)^2; functions on the
line-parameter cylinder on [0,1) x [-2,2) (periodic in the angle).  The
r-domain truncation is harmless because all planar inputs are required to be
supported in B(1.5), which makes their line integrals vanish for |r| > 1.5.

Line integrals use bilinear interpolation with step equal to the grid
spacing.  Matching first-order interpolation on both the transform and the
adjoint makes their quadrature biases cancel in the duality pairing (the
observed gap decays like h^3), which is what the tight adjoint tolerance
relies on; higher-order schemes break the cancellation and do worse.

`xray` maps an n x n grid to n angles x n offsets, gathering the corners
bit for bit as `scipy.ndimage.map_coordinates` would; it marches only the
angles in [0, 1/2), the rest being Rg(theta + 1/2, r) = Rg(theta, -r).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PLANE, grid_shape
from .measures import _check_energy_grid


def _cell_centers(n):
    """Centers of the n equal cells tiling [-2, 2)."""
    return -2.0 + (np.arange(n) + 0.5) * (4.0 / n)


def _check_side(n):
    if n < 16 or n & (n - 1):
        raise ValueError("grid side must be a power of two, at least 16")


@dataclass
class PlanarGrid:
    """n x n cell-centered samples on [-2,2)^2 (n a power of two, >= 16)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("planar grid must be square")
        _check_side(v.shape[0])
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        self.values = v

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def h(self):
        return 4.0 / self.n

    def axis(self):
        return _cell_centers(self.n)

    def meshes(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    @classmethod
    def from_function(cls, n, func):
        x = _cell_centers(n)
        return cls(func(*np.meshgrid(x, x, indexing="ij")))

    def norm_l2(self):
        return math.sqrt(np.sum(np.abs(self.values) ** 2) * self.h ** 2)


@dataclass
class CylinderGrid:
    """n_theta x n_r samples: theta_i = i/n_theta, r cell-centered on [-2,2)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("cylinder grid must be 2d")
        if 0 in v.shape:
            raise ValueError("cylinder grid axes must not be empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        self.values = v

    @property
    def n_theta(self):
        return self.values.shape[0]

    @property
    def n_r(self):
        return self.values.shape[1]

    @property
    def dr(self):
        return 4.0 / self.n_r

    def thetas(self):
        return np.arange(self.n_theta) / self.n_theta

    def rs(self):
        return _cell_centers(self.n_r)

    def norm_l2(self):
        return math.sqrt(np.sum(np.abs(self.values) ** 2)
                         * (1.0 / self.n_theta) * self.dr)


SUPPORT_RADIUS = 1.5
_MARCH_MAX = 1.75  # integration reach along lines; covers B(1.5) supports
_PAD = 4  # zero padding of the spectra behind the Sobolev norms


def _check_support(g):
    X, Y = g.meshes()
    outside = X ** 2 + Y ** 2 > SUPPORT_RADIUS ** 2
    peak = np.abs(g.values).max()
    if peak > 0 and np.abs(g.values[outside]).max() > 1e-3 * peak:
        raise ValueError("support too large")


_BLOCK_SAMPLES = 1 << 14  # samples per block of one angle's rows in `_xray`


def _xray(grids):
    """`xray` of each grid in a list, sharing the sample geometry.

    Grids of one side n share each angle's sample points, corner indices
    and bilinear weights: they are built once per angle and gathered from
    every grid of that side.  Each angle's rows are marched in blocks of at
    most about `_BLOCK_SAMPLES` samples (one block up to n = 128, four at
    n = 256, thirteen at n = 512), so the per-angle temporaries stay small
    whatever n is; every row's sum is the same, block or not.
    """
    for g in grids:
        if np.iscomplexobj(g.values):
            raise ValueError("xray input must be real")
        _check_support(g)
    out = [None] * len(grids)
    sides = {}
    for k, g in enumerate(grids):
        sides.setdefault(g.n, []).append(k)
    for n, ks in sides.items():
        h = 4.0 / n
        rs = _cell_centers(n)
        m = int(math.ceil(2.0 * _MARCH_MAX / h))
        u = (np.arange(m) - 0.5 * (m - 1)) * h
        active = np.flatnonzero(np.abs(rs) <= _MARCH_MAX)
        blocks = np.array_split(active, -(-active.size * m // _BLOCK_SAMPLES))
        # rows n, n + 1 and column n are zero; a point off the grid reads the
        # 2 x 2 zero block at (n, 0), since a zero weight on a negative value
        # would leave -0.0 where the reference has 0.0
        stride = n + 1
        flats, vals = [], []
        for k in ks:
            padded = np.zeros((n + 2, stride))
            padded[:n, :n] = grids[k].values
            flats.append(padded.ravel())
            vals.append(np.zeros((n, n)))
        half = n // 2
        for i in range(half):
            a = 2.0 * math.pi * (i / n)
            c, s = math.cos(a), math.sin(a)
            for rows in blocks:
                ra = rs[rows]
                ci = (ra[:, None] * c + u[None, :] * s + 2.0) / h - 0.5
                cj = (ra[:, None] * s - u[None, :] * c + 2.0) / h - 0.5
                fi = np.floor(ci)
                fj = np.floor(cj)
                wx0 = 1.0 - (ci - fi)
                wx1 = 1.0 - wx0
                wy0 = 1.0 - (cj - fj)
                wy1 = 1.0 - wy0
                k00 = fi.astype(np.intp) * stride + fj.astype(np.intp)
                k00[(ci < 0) | (ci > n - 1) | (cj < 0) | (cj > n - 1)] = n * stride
                k01, k10, k11 = k00 + 1, k00 + stride, k00 + stride + 1
                for flat, v in zip(flats, vals):
                    line = (((flat[k00] * wx0) * wy0) + ((flat[k01] * wx0) * wy1)
                            + ((flat[k10] * wx1) * wy0)
                            + ((flat[k11] * wx1) * wy1))
                    v[i, rows] = line.sum(axis=1) * h
        for k, v in zip(ks, vals):
            v[half:] = v[:half, ::-1]
            out[k] = CylinderGrid(v)
    return out


def xray(g):
    """Line-integral transform: Rg(theta, r) = integral of g over the line.

    Samples n angles i/n and the n cell-centered offsets of the grid.
    Marches along each line with step equal to the grid spacing, reading g
    by bilinear interpolation (zero outside the box); exact in total weight
    for constants.  Requires g real with support inside B(1.5).

    The interpolation gathers the four corner cells of every sample point
    from a zero-padded copy of the grid, with the arithmetic of
    `scipy.ndimage.map_coordinates(order=1, mode="constant")`, so the
    marched rows equal that reference bit for bit.  Only the angles in
    [0, 1/2) are marched (n is even); row i + n/2 is row i reversed, since
    Rg(theta + 1/2, r) = Rg(theta, -r) and the r grid is symmetric about 0.
    """
    return _xray([g])[0]


def adjoint_xray(f):
    """Backprojection: R*f(z) = average over angles of f(theta, pi_theta(z)),
    on the n_r x n_r planar grid, with linear interpolation in r (clamped at
    the r-range ends, so constants map to constants exactly).
    """
    n = f.n_r
    _check_side(n)
    rs = f.rs()
    acc = np.zeros((n, n))
    for i in range(f.n_theta):
        a = 2.0 * math.pi * (i / f.n_theta)
        acc += np.interp(rs[:, None] * math.cos(a) + rs[None, :] * math.sin(a),
                         rs, f.values[i])
    return PlanarGrid(acc / f.n_theta)


def plane_inner(g1, g2):
    return float(np.sum(g1.values * g2.values) * g1.h ** 2)


def cylinder_inner(f1, f2):
    return float(np.sum(f1.values * f2.values) * (1.0 / f1.n_theta) * f1.dr)


# ---------------------------------------------------------------------------
# Fourier side

def _fourier_axis(n, step):
    """fft frequencies of n samples `step` apart from the first cell center
    of [-2, 2), and the phase that makes their fft a Fourier transform."""
    freqs = np.fft.fftfreq(n, d=step)
    return freqs, np.exp(-2j * math.pi * freqs * (-2.0 + 0.5 * step))


def _r_fourier(values, dr, pad):
    """(coefficients, frequencies) of each row's Fourier transform in r,
    zero-padded pad-fold: exact, with frequency step 1/(4 pad)."""
    n = pad * values.shape[1]
    rhos, phase = _fourier_axis(n, dr)
    return np.fft.fft(values, n=n, axis=1) * dr * phase, rhos


def mixed_fourier(f):
    """Fourier series in the angle, Fourier transform in r, zero-padded
    `_PAD`-fold in r (bin step 1/16).

    Returns (coefficients, modes, rhos): complex (n_theta, 4 n_r) in fft
    layout, the integer angular mode of each row and the r-frequency of
    each column.  Coefficients approximate integral over [0,1] x R of
    exp(-2 pi i (n theta + rho r)) f; Parseval holds exactly for the
    discrete sums.
    """
    spec, rhos = _r_fourier(np.fft.fft(f.values, axis=0) / f.n_theta, f.dr,
                            _PAD)
    modes = np.rint(np.fft.fftfreq(f.n_theta, d=1.0 / f.n_theta)).astype(int)
    return spec, modes, rhos


def _cusp_weight(rows, cols, e):
    """|xi|^(2e) on the fft-layout frequency grid rows x cols, with each bin
    within 3 steps of the origin carrying the weight averaged over 16
    sub-samples per continuous axis, and the origin bin its mean weight.

    An integer row axis (angular modes) is discrete: only its zero index
    meets the cusp, and the origin bin's mean is over its r-interval, finite
    for e > -1/2 and weighed 0 (excluded) below; over a square bin it is
    finite for e > -1.  The averaging removes the dominant quadrature error
    once the spectrum varies slowly per bin.
    """
    q = rows[:, None] ** 2 + cols[None, :] ** 2
    if e == 0:
        return np.ones_like(q)
    with np.errstate(divide="ignore"):
        w = q ** e
    sub = (np.arange(16) + 0.5) / 16.0 - 0.5
    # per axis: indices near the origin, sub-sample offsets and bin step
    (near_i, a, da), (near_j, b, step) = [
        ([0], np.zeros(1), 1.0) if axis.dtype.kind == "i"
        else (range(-3, 4), sub, abs(axis[1] - axis[0]))
        for axis in (rows, cols)]
    A, B = np.meshgrid(a, b, indexing="ij")
    for i in near_i:
        for j in near_j:
            if (i, j) != (0, 0):
                w[i, j] = np.mean((((i + A) * da) ** 2
                                   + ((j + B) * step) ** 2) ** e)
    half = 0.5 * step
    if rows.dtype.kind == "i":
        w[0, 0] = half ** (2 * e) / (2 * e + 1) if e > -0.5 else 0.0
    else:
        from scipy.integrate import quad
        val, _ = quad(lambda t: math.cos(t) ** (-(2 * e + 2)), 0.0,
                      math.pi / 4.0)
        w[0, 0] = (8.0 * half ** (2 * e + 2) / (2 * e + 2)) * val / step ** 2
    return w


def _sobolev_norm(fourier, f, s, interval):
    """Square roots of the `_cusp_weight`-weighted sums of the spectrum
    `fourier(f)` times the bin area, for exponents s in `interval` ("[-1, 1]"
    or "(-1, 1]"): a float for a scalar s, else a list from one spectrum."""
    exps = [float(x) for x in np.atleast_1d(s)]
    closed = interval.startswith("[")
    if not all(-1.0 <= x <= 1.0 and (closed or x > -1.0) for x in exps):
        raise ValueError(f"exponent s must lie in {interval}")
    spec, *axes = fourier(f)
    rows, cols = axes[0], axes[-1]  # the plane's one axis serves both
    step = cols[1] - cols[0]
    power = np.abs(spec) ** 2
    del spec
    norms = []
    for e in exps:
        total = np.sum(power * _cusp_weight(rows, cols, e)) * step
        norms.append(math.sqrt(float(
            total if rows.dtype.kind == "i" else total * step)))
    return norms[0] if np.ndim(s) == 0 else norms


def sobolev_norm_cylinder(f, s):
    """Homogeneous Sobolev norm on the cylinder: weight |(n, rho)|^(2s).

    Returns the norm (square root of the weighted spectral sum).  For
    s in (-1/2, 0) the (0, 0) bin uses the bin-averaged weight; for
    s <= -1/2 that bin diverges, is excluded, and a warning reports it.
    A sequence of exponents gives a list of norms, one per entry, from one
    spectrum.
    """
    norms = _sobolev_norm(mixed_fourier, f, s, "[-1, 1]")
    if np.any(np.asarray(s) <= -0.5):
        warnings.warn("zero-frequency bin excluded for s <= -1/2",
                      stacklevel=2)
    return norms


def plane_fourier(g):
    """2d Fourier coefficients of a planar grid, zero-padded `_PAD`-fold:
    exact for functions supported inside the box, frequency step 1/16."""
    n, h = g.n, g.h
    N = _PAD * n
    spec = np.fft.fft2(g.values, s=(N, N)) * h * h
    xi, phase = _fourier_axis(N, h)
    spec *= phase[:, None] * phase[None, :]
    return spec, xi


def sobolev_norm_plane(g, s):
    """Homogeneous Sobolev norm on the plane: weight |xi|^(2s).

    The zero-frequency bin uses the square-bin averaged weight for s < 0
    (finite for s > -1).  A sequence of exponents gives a list of norms,
    one per entry, from one spectrum.
    """
    return _sobolev_norm(plane_fourier, g, s, "(-1, 1]")


def riesz_gamma(s):
    """Constant relating the s-energy to the |xi|^(s-2)-weighted spectrum."""
    return math.pi ** (s - 1) * math.gamma((2 - s) / 2) / math.gamma(s / 2)


def _power_spectrum(m, n):
    """|fft2|^2 of the measure's weights on its n x n grid, bit for bit.

    fft2 transforms the rows first, and a row without atoms transforms to
    zeros, so only the occupied rows are transformed before the full column
    pass; the spectrum can differ from fft2's only in the signs of zeros,
    which |.|^2 drops, as it drops the phases.
    """
    rows, row = np.unique(m.ix, return_inverse=True)
    part = np.zeros((rows.size, n))
    part[row, m.iy] = m.weights
    spec = np.zeros((n, n), dtype=complex)
    spec[rows] = np.fft.fft(part, axis=1)
    return np.abs(np.fft.fft(spec, axis=0)) ** 2


def riesz_energy_fourier(m, s):
    """Riesz s-energy from the Fourier side.

    Rasterizes the measure onto its own resolution grid (mass preserving),
    then evaluates gamma * sum |mu_hat|^2 |xi|^(s-2) over frequencies
    |xi| <= 1/(2 delta), with the zero bin averaged over its square.
    """
    if not (0.0 < s < 2.0):
        raise ValueError("exponent s must lie in (0, 2)")
    if len(m) == 0:
        raise ValueError("empty measure")
    if m.root != PLANE:
        raise ValueError("fourier energy needs a planar measure")
    delta = m.resolution
    n, _ = grid_shape(PLANE, m.level)
    _check_energy_grid(n, n)
    power = _power_spectrum(m, n)
    xi = np.fft.fftfreq(n, d=delta)
    dxi = xi[1] - xi[0]  # 1/4
    w = _cusp_weight(xi, xi, (s - 2) / 2)
    q = xi[:, None] ** 2 + xi[None, :] ** 2
    w[q > (1.0 / (2.0 * delta)) ** 2] = 0.0  # truncate at |xi| <= 1/(2 delta)
    total = np.sum(power * w) * dxi * dxi
    return riesz_gamma(s) * float(total)


# ---------------------------------------------------------------------------
# checks built from the transforms

def nonuniform_plane_fourier(g, points):
    """Exact evaluation of the planar Fourier sum at arbitrary frequencies.

    points: (M, 2) frequency pairs.  Uses the separable factorization of the
    exponential over the tensor grid, so the cost is M * n^2 without any
    spectrum interpolation error.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (M, 2)")
    x = g.axis()
    out = np.empty(len(points), dtype=complex)
    vals = g.values.astype(complex)  # `@` would cast it once per point
    h2 = g.h ** 2
    for k, (xi1, xi2) in enumerate(points):
        vx = np.exp(-2j * math.pi * xi1 * x)
        vy = np.exp(-2j * math.pi * xi2 * x)
        out[k] = h2 * (vx @ vals @ vy)
    return out


def slice_identity_residual(g, Rg, sample_size=512, seed=0):
    """Max gap between the r-transform of Rg = xray(g) and the planar spectrum.

    Compares (Rg)~(theta, rho) against g_hat(rho e_theta) on a seeded sample
    of (theta, rho) pairs with |rho| <= n/8; the planar side is evaluated by
    exact nonuniform summation, so the residual isolates the transform
    discretization error.
    """
    if Rg.values.shape != (g.n, g.n):
        raise ValueError("transform shape must be (n, n) for an n x n grid")
    if sample_size < 1:
        raise ValueError("sample size must be at least 1")
    spec, rhos = _r_fourier(Rg.values, Rg.dr, 1)
    thetas = Rg.thetas()

    n = g.n
    keep = np.flatnonzero(np.abs(rhos) <= n / 8.0)
    rng = np.random.default_rng(seed)
    total = Rg.n_theta * keep.size
    count = min(sample_size, total)
    flat = rng.choice(total, size=count, replace=False)
    ti = flat // keep.size
    rj = keep[flat % keep.size]

    ang = 2.0 * math.pi * thetas[ti]
    pts = np.column_stack([rhos[rj] * np.cos(ang), rhos[rj] * np.sin(ang)])
    ghat = nonuniform_plane_fourier(g, pts)
    lhs = spec[ti, rj]
    return float(np.abs(lhs - ghat).max())


def canonical_cutoff(n):
    """The fixed smooth cutoff: 1 on B(1), 0 outside B(1.5), C-infinity.

    Built from the standard exp(-1/t) transition profile.
    """
    def profile(X, Y):
        rad = np.sqrt(X ** 2 + Y ** 2)
        t_out = np.clip((1.5 - rad) / 0.5, 0.0, 1.0)
        t_in = np.clip((rad - 1.0) / 0.5, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            a = np.where(t_out > 0, np.exp(-1.0 / np.maximum(t_out, 1e-300)), 0.0)
            b = np.where(t_in > 0, np.exp(-1.0 / np.maximum(t_in, 1e-300)), 0.0)
        return a / (a + b)

    return PlanarGrid.from_function(n, profile)


def smoothing_ratio(g, s_values, chi):
    """Sobolev norm gains of the transform, one per s in s_values:
    |R(g chi)|_{s+1/2} / |g|_s.

    chi must be the smooth cutoff (1 on B(1), supported in B(1.5)); the
    ratios are of norms, not squared norms.  R(g chi) and both spectra do
    not depend on s, so each is computed once for all of them.
    """
    if not all(-0.5 <= s <= 0.5 for s in s_values):
        raise ValueError("exponent s must lie in [-1/2, 1/2]")
    if g.n != chi.n:
        raise ValueError("cutoff grid size must match the input")
    dens = sobolev_norm_plane(g, list(s_values))
    if 0.0 in dens:
        raise ValueError("zero denominator: input has vanishing Sobolev norm")
    transform = xray(PlanarGrid(g.values * chi.values))
    nums = sobolev_norm_cylinder(transform, [s + 0.5 for s in s_values])
    return [num / den for num, den in zip(nums, dens)]
