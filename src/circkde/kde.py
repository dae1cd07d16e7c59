"""Von Mises-kernel circular density estimation and the ISE functional.

This module owns the estimator's evaluations. ``_kernel_blocks`` gives
the direct kernel sums of the density grid and of LCV's guard rows, about
``_CHUNK_CELLS`` cells at a time. The spectral form uses the estimator's
Fourier coefficients phi_m rho_m(nu), with phi_m = mean(exp(-i m Theta))
and rho_m(nu) = I_m(nu) / I_0(nu) the kernel's characteristic function
(Mardia & Jupp 2000, Directional Statistics, sec. 3.5). Every harmonic
cos/sin(m Theta), m < K, comes from two small tables (``_trig_table``):
cos/sin(j Theta) for j < B = ceil(sqrt(K)) and cos/sin(g B Theta) for
g < Q = ceil(K / B), combined by angle addition for m = g B + j. That is
2 (B + Q) n trigonometric evaluations instead of 2 K n, with the same
accuracy: both are limited by rounding m Theta, about pi m 1e-16.
``_trig_moments`` gets phi_m as one real matrix product of the tables,
blocked over observations; ``_harmonic_blocks`` gives cos and sin(m Theta)
in blocks of orders. From them ``kde_grid`` gets the density grid by one
inverse FFT (``_folded_spectrum`` folds the coefficients onto the grid's
DFT bins), ``oracle_mise_curve`` the oracle's ISE curve, and
``selectors.lcv`` the estimator at its own sample points (a K x n table,
not an n x n kernel matrix). All keep the K orders ``bessel._order_count``
retains; rho_m and its truncation belong to ``bessel``. ``kde_evaluate``
and the grid cells the spectrum cannot resolve to 1e-12 relative stay
with the direct kernel sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .bessel import KAPPA_CAP, _kernel_coefficients, _order_count
from .models import TWO_PI, _as_sample, wrap_angle

# Large enough for 1e-8 quadrature agreement on every density in the study.
DEFAULT_GRIDSIZE = 1024

# Cells one block of a blocked evaluation holds: 512 KiB of float64.
_CHUNK_CELLS = 1 << 16

# kde_grid sums kernels directly when K * _SPECTRAL_ORDERS > G. With the
# moments from two trigonometric tables, the spectral grid's median time
# over M16/M20 samples, n 50 to 20,000 and G 64 to 4096 was 0.71 of the
# direct grid's at K / G = 1/2 and 0.89 at K / G = 1, where it lost at
# n <= 250 (1.04-1.61 median).
_SPECTRAL_ORDERS = 2

# Spectral grid cells below this fraction of a kernel's peak, 1 / (2 pi
# i0e(nu)), are summed directly: the inverse FFT's error is a few 1e-16 of
# that peak, so cells above it keep 1e-12 relative accuracy.
_GUARD = 1e-3


@dataclass(frozen=True)
class KdeFit:
    """A sample plus the concentration (inverse-bandwidth) parameter nu."""

    sample: np.ndarray
    nu: float

    def __post_init__(self):
        arr = _as_sample(self.sample)
        if not 0.0 <= self.nu <= KAPPA_CAP:
            raise ValueError(f"nu must lie in [0, {KAPPA_CAP}], got {self.nu}")
        object.__setattr__(self, "sample", wrap_angle(arr))

    @property
    def n(self) -> int:
        return self.sample.size


@dataclass(frozen=True)
class DensityGrid:
    """Density values at the equispaced nodes theta_k = 2 pi k / gridsize."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        m = arr.size
        if m < 8 or m & (m - 1):
            raise ValueError(f"gridsize must be a power of two >= 8, got {m}")
        object.__setattr__(self, "values", arr)

    @property
    def gridsize(self) -> int:
        return self.values.size

    @property
    def thetas(self) -> np.ndarray:
        return grid_thetas(self.gridsize)

    def integral(self) -> float:
        """Periodic trapezoid integral over [0, 2 pi)."""
        return float(self.values.sum() * (TWO_PI / self.gridsize))


def grid_thetas(gridsize: int) -> np.ndarray:
    return np.arange(gridsize) * (TWO_PI / gridsize)


def density_grid_of(model, gridsize: int = DEFAULT_GRIDSIZE) -> DensityGrid:
    """Evaluate any model's density on the standard grid."""
    return DensityGrid(np.atleast_1d(model.density(grid_thetas(gridsize))))


def kde_evaluate(fit: KdeFit, theta):
    """The estimator at theta: mean of von Mises kernels centred on the sample.

    Computed in the overflow-safe form
    exp(-2 nu sin^2((theta - Theta_i) / 2)) / (2 pi exp(-nu) I_0(nu)).
    """
    arr = np.asarray(theta, dtype=float)
    scalar = arr.ndim == 0
    th = np.atleast_1d(arr)
    vals = _kernel_mean(th, fit.sample, fit.nu)
    return float(vals[0]) if scalar else vals


def kde_grid(fit: KdeFit, gridsize: int = DEFAULT_GRIDSIZE) -> DensityGrid:
    """The estimator evaluated at every grid node, within 1e-12 relative of the direct sums.

    With K = ``bessel._order_count(nu)`` orders and G = ``gridsize``, the
    grid is f(theta_j) = (1 / 2 pi) sum_m rho_|m|(nu) phi_m exp(i m theta_j),
    from the sample's moments phi_m (``_trig_moments``) and one inverse FFT
    of length G: O(K n + G log G) instead of G n kernel values. The FFT's
    error is absolute, a few 1e-16 of a kernel's peak, so every cell below
    ``_GUARD`` times that peak is recomputed by the direct ``_kernel_mean``;
    no cell is negative, and tails keep the direct sums' relative accuracy.
    When 2 K > G (nu above about 3,300 at G = 1024) the spectrum costs
    about as much as the G x n kernel values and the whole grid is summed
    directly.
    """
    if gridsize < 8:
        raise ValueError(f"gridsize must be >= 8, got {gridsize}")
    thetas = grid_thetas(gridsize)
    orders = _order_count(fit.nu)
    if _SPECTRAL_ORDERS * orders > gridsize:
        return DensityGrid(_kernel_mean(thetas, fit.sample, fit.nu))
    rho = _kernel_coefficients(np.array([fit.nu]), orders)
    spectrum = _folded_spectrum(rho, _trig_moments(fit.sample, orders), gridsize)[0]
    values = np.fft.irfft(spectrum, gridsize) * (gridsize / TWO_PI)
    low = np.flatnonzero(values < _GUARD / (TWO_PI * i0e(fit.nu)))
    values[low] = _kernel_mean(thetas[low], fit.sample, fit.nu)
    return DensityGrid(values)


def ise(a: DensityGrid, b: DensityGrid) -> float:
    """Integrated squared difference between two grids of equal size."""
    if a.gridsize != b.gridsize:
        raise ValueError(f"gridsize mismatch: {a.gridsize} != {b.gridsize}")
    diff = a.values - b.values
    return float(diff.dot(diff) * (TWO_PI / a.gridsize))


def _kernel_mean(thetas: np.ndarray, sample: np.ndarray, nu: float) -> np.ndarray:
    out = np.empty(thetas.size)
    for lo, hi, block in _kernel_blocks(thetas, sample, nu):
        out[lo:hi] = block.mean(axis=1)
    return out / (TWO_PI * i0e(nu))


def _kernel_blocks(points: np.ndarray, sample: np.ndarray, nu: float):
    """Yield (lo, hi, block), block[i, j] = exp(-2 nu sin^2((points[lo + i] - sample[j]) / 2)).

    cos d - 1 = -2 sin^2(d / 2), without the cancellation that costs
    nu * 1e-16 of absolute accuracy in the exponent at large nu. Halving
    before the subtraction keeps the passes over a block at five. They run
    in place on one buffer of about ``_CHUNK_CELLS`` cells (whole sample
    rows), small enough to stay in cache between passes, so each block is
    overwritten by the next.
    """
    half_points, half_sample = 0.5 * points, 0.5 * sample
    step = max(1, _CHUNK_CELLS // sample.size)
    buf = np.empty((min(step, points.size), sample.size))
    for lo in range(0, points.size, step):
        hi = min(lo + step, points.size)
        block = buf[: hi - lo]
        np.subtract(half_points[lo:hi, None], half_sample[None, :], out=block)
        np.sin(block, out=block)
        np.square(block, out=block)
        np.multiply(block, -2.0 * nu, out=block)
        np.exp(block, out=block)
        yield lo, hi, block


def _harmonic_blocks(theta: np.ndarray, orders: int):
    """Yield (lo, hi, cos(m theta), sin(m theta)) for m = lo..hi-1, ~``_CHUNK_CELLS`` cells each.

    Order m = g B + j comes from the two tables by angle addition:
    cos(m t) = cos(g B t) cos(j t) - sin(g B t) sin(j t) and
    sin(m t) = sin(g B t) cos(j t) + cos(g B t) sin(j t). The low table
    (2 B rows of n) is held whole; the high rows are made one g at a time.
    Each block is written into the same two buffers, so each is
    overwritten by the next.
    """
    base, _ = _order_split(orders)
    low = _trig_table(theta, np.arange(base))
    low_cos, low_sin = low[:base], low[base:]
    step = max(1, _CHUNK_CELLS // theta.size)
    cos_buf, sin_buf = (np.empty((min(step, orders), theta.size)) for _ in range(2))
    prod_buf = np.empty((min(step, base), theta.size))
    high_g = -1
    for lo in range(0, orders, step):
        hi = min(lo + step, orders)
        start = lo
        while start < hi:  # one run of orders per high row g
            g, j = divmod(start, base)
            if g != high_g:
                high_g, (high_cos, high_sin) = g, _trig_table(theta, [g * base])
            stop = min(hi, (g + 1) * base)
            rows, js = slice(start - lo, stop - lo), slice(j, j + stop - start)
            cos, sin, prod = cos_buf[rows], sin_buf[rows], prod_buf[: stop - start]
            np.multiply(low_cos[js], high_cos, out=cos)
            np.multiply(low_sin[js], high_sin, out=prod)
            cos -= prod
            np.multiply(low_cos[js], high_sin, out=sin)
            np.multiply(low_sin[js], high_cos, out=prod)
            sin += prod
            start = stop
        yield lo, hi, cos_buf[: hi - lo], sin_buf[: hi - lo]


def _order_split(orders: int) -> tuple[int, int]:
    """B = ceil(sqrt(K)) and Q = ceil(K / B): every order m < K is g B + j with g < Q, j < B."""
    base = math.isqrt(max(orders, 1) - 1) + 1
    return base, -(-orders // base)


def _trig_table(theta: np.ndarray, multiples) -> np.ndarray:
    """[cos; sin](k theta) for k in ``multiples``, shape (2 len(multiples), n).

    k theta is the same float as in the direct product m theta. The two
    tables are j < B (low) and g B for g < Q (high).
    """
    count = len(multiples)
    table = np.empty((2 * count, theta.size))
    angles = np.multiply(np.asarray(multiples)[:, None], theta[None, :], out=table[count:])
    np.cos(angles, out=table[:count])
    np.sin(angles, out=angles)
    return table


def oracle_mise_curve(samples, truth: DensityGrid, nus) -> np.ndarray:
    """ISE per (replicate, nu) for fixed samples; common random numbers across nu.

    Entry (i, j) equals ``ise(kde_grid(KdeFit(samples[i], nus[j]), G),
    truth)`` up to rounding, with G = ``truth.gridsize``. The G-point DFT
    of the estimator's grid is
    F_k = sum over m = k (mod G) of rho_|m| phi_m (phi_-m = conj phi_m),
    and by Parseval the grid ISE is (1/2 pi) sum_k w_k |F_k - gamma_k|^2
    over k = 0..G/2, with w = (1, 2, ..., 2, 1) and gamma the truth's
    scaled DFT. rho is computed once for all samples and each sample's
    moments once for all nu, so each nu costs O(G) instead of O(G n).
    """
    nus = np.asarray(nus, dtype=float)
    if nus.ndim != 1 or nus.size == 0:
        raise ValueError("nus must be a non-empty one-dimensional array")
    if not np.all((nus >= 0.0) & (nus <= KAPPA_CAP)):
        raise ValueError(f"nu must lie in [0, {KAPPA_CAP}]")
    g = truth.gridsize
    half = g // 2
    rho = _kernel_coefficients(nus)
    # Spectral bins the retained orders can reach; truth terms beyond them
    # enter the ISE as a constant tail.
    bins = min(rho.shape[1], half + 1)
    gamma = np.fft.rfft(truth.values) * (TWO_PI / g)
    weights = np.full(half + 1, 2.0)
    weights[[0, half]] = 1.0
    power = weights * np.abs(gamma) ** 2
    tail = power[bins:].sum()
    gamma, weights = gamma[:bins], weights[:bins]
    out = np.empty((len(samples), nus.size))
    for i, sample in enumerate(samples):
        diff = _folded_spectrum(rho, _trig_moments(sample, rho.shape[1]), g) - gamma
        out[i] = ((diff.real**2 + diff.imag**2) @ weights + tail) / TWO_PI
    return out


def _folded_spectrum(rho: np.ndarray, phi: np.ndarray, g: int) -> np.ndarray:
    """Bins 0..min(K, G/2 + 1) - 1 of the G-point DFT of the estimator's grid, per nu.

    F_k = sum over m = k (mod G) of rho_|m| phi_m, with phi_-m = conj phi_m;
    ``rho`` has shape (nus, K) and ``phi`` holds the K moments.
    """
    orders = rho.shape[1]
    bins = min(orders, g // 2 + 1)
    # Order m >= 0 lands on bin m mod G; order -m on bin (G - m mod G) mod G.
    mirror = (g - np.arange(bins)) % g
    mirrored = mirror < min(orders, g)
    folded = np.zeros((rho.shape[0], min(orders, g)), dtype=complex)
    for lo in range(0, orders, g):  # aliasing: orders m and m + G share a bin
        hi = min(lo + g, orders)
        folded[:, : hi - lo] += rho[:, lo:hi] * phi[lo:hi]
    spectrum = folded[:, :bins]
    spectrum[:, mirrored] += folded[:, mirror[mirrored]].conj()
    spectrum[:, 0] -= rho[:, 0] * phi[0]  # order 0 was counted twice
    return spectrum


def _trig_moments(sample, orders: int) -> np.ndarray:
    """phi_m = mean(exp(-i m Theta)) for m = 0..orders-1.

    The sample sums of products of two ``_trig_table`` rows are the real
    product [cos; sin](g B Theta) (2Q x n) times [cos; sin](j Theta)^T
    (n x 2B), and angle addition combines them into the sums of cos and
    sin(m Theta), m = g B + j. The product is accumulated over blocks of
    observations that keep both its tables within ``_CHUNK_CELLS`` cells
    and its 4 B Q n_block multiply-adds within 4 ``_CHUNK_CELLS`` = 2^18,
    the size below which OpenBLAS runs a product on one thread. Threaded,
    products with few observations and many orders took about 16 ms
    instead of 20 us on a 2-core machine; complex products are avoided for
    the same reason.
    """
    theta = wrap_angle(_as_sample(sample))
    base, groups = _order_split(orders)
    sums = np.zeros((2 * groups, 2 * base))
    step = max(1, _CHUNK_CELLS // max(base * groups, 2 * (base + groups)))
    for lo in range(0, theta.size, step):
        block = theta[lo : lo + step]
        sums += _trig_table(block, base * np.arange(groups)) @ _trig_table(block, np.arange(base)).T
    cc, cs = sums[:groups, :base], sums[:groups, base:]
    sc, ss = sums[groups:, :base], sums[groups:, base:]
    out = np.empty((groups, base), dtype=complex)
    out.real = cc - ss
    out.imag = -(sc + cs)
    return out.ravel()[:orders] / theta.size
