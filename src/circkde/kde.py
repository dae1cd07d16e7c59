"""Von Mises-kernel circular density estimation and the ISE functional.

Grids are evaluated by the direct kernel sum. Work that needs one sample
at many concentrations uses trigonometric moments instead: the
estimator's Fourier coefficients are phi_m rho_m(nu), with
phi_m = mean(exp(-i m Theta)) and rho_m(nu) = I_m(nu) / I_0(nu) the
kernel's characteristic function (Mardia & Jupp 2000, Directional
Statistics, sec. 3.5). ``oracle_mise_curve`` gives the simulation
oracle's ISE curve from them, and ``selectors.lcv`` the estimator at its
own sample points, from a K x n table in place of an n x n kernel
matrix. Both keep the K orders ``_order_count`` retains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e, ive

from .bessel import KAPPA_CAP
from .models import TWO_PI, _as_sample, wrap_angle

# Large enough for 1e-8 quadrature agreement on every density in the study.
DEFAULT_GRIDSIZE = 1024

# Cap on the kernel values one block of a grid evaluation holds at once.
_CHUNK_CELLS = 1 << 24

# Orders whose kernel coefficient rho_m(nu_max) is at most this are dropped.
# |phi_m| <= 1, so each dropped term is below double precision of the
# estimator's Fourier coefficients, whose order 0 term is 1.
_RHO_FLOOR = 1e-17


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
    """The estimator evaluated at every grid node."""
    if gridsize < 8:
        raise ValueError(f"gridsize must be >= 8, got {gridsize}")
    return DensityGrid(_kernel_mean(grid_thetas(gridsize), fit.sample, fit.nu))


def ise(a: DensityGrid, b: DensityGrid) -> float:
    """Integrated squared difference between two grids of equal size."""
    if a.gridsize != b.gridsize:
        raise ValueError(f"gridsize mismatch: {a.gridsize} != {b.gridsize}")
    diff = a.values - b.values
    return float(diff.dot(diff) * (TWO_PI / a.gridsize))


def _kernel_mean(thetas: np.ndarray, sample: np.ndarray, nu: float) -> np.ndarray:
    # cos d - 1 = -2 sin^2(d / 2), without the cancellation that costs
    # nu * 1e-16 of absolute accuracy in the exponent at large nu. Halving
    # before the subtraction keeps the G x n passes at five. One block
    # whenever thetas.size * sample.size <= _CHUNK_CELLS; a single
    # expression keeps at most two block-sized temporaries alive at once.
    half_thetas, half_sample = 0.5 * thetas, 0.5 * sample
    out = np.empty(thetas.size)
    step = max(1, _CHUNK_CELLS // sample.size)
    for lo in range(0, thetas.size, step):
        out[lo : lo + step] = np.exp(
            np.sin(half_thetas[lo : lo + step, None] - half_sample[None, :]) ** 2 * (-2.0 * nu)
        ).mean(axis=1)
    return out / (TWO_PI * i0e(nu))


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
    orders = rho.shape[1]
    # Spectral bins the retained orders can reach; truth terms beyond them
    # enter the ISE as a constant tail.
    bins = min(orders, half + 1)
    gamma = np.fft.rfft(truth.values) * (TWO_PI / g)
    weights = np.full(half + 1, 2.0)
    weights[[0, half]] = 1.0
    power = weights * np.abs(gamma) ** 2
    tail = power[bins:].sum()
    gamma, weights = gamma[:bins], weights[:bins]
    # Order m >= 0 lands on bin m mod G; order -m on bin (G - m mod G) mod G.
    mirror = (g - np.arange(bins)) % g
    mirrored = mirror < min(orders, g)
    out = np.empty((len(samples), nus.size))
    for i, sample in enumerate(samples):
        phi = _trig_moments(sample, orders, half)
        folded = np.zeros((nus.size, min(orders, g)), dtype=complex)
        for lo in range(0, orders, g):  # aliasing: orders m and m + G share a bin
            hi = min(lo + g, orders)
            folded[:, : hi - lo] += rho[:, lo:hi] * phi[lo:hi]
        spectrum = folded[:, :bins]
        spectrum[:, mirrored] += folded[:, mirror[mirrored]].conj()
        spectrum[:, 0] -= rho[:, 0] * phi[0]  # order 0 was counted twice
        diff = spectrum - gamma
        out[i] = ((diff.real**2 + diff.imag**2) @ weights + tail) / TWO_PI
    return out


def _order_count(nu_max: float) -> int:
    """The first order K with rho_K(nu_max) <= _RHO_FLOOR.

    rho_m(nu) falls with m and rises with nu, so no order from K on
    exceeds the floor at any nu <= nu_max.
    """
    size = 64
    while True:
        tail = ive(np.arange(size), nu_max) / i0e(nu_max)
        below = np.flatnonzero(tail <= _RHO_FLOOR)
        if below.size:
            return int(below[0])
        size *= 2


def _kernel_coefficients(nus: np.ndarray, orders: int | None = None) -> np.ndarray:
    """rho_m(nu) = I_m(nu) / I_0(nu), shape (nus.size, K), for m = 0..K-1.

    K is ``orders``, by default ``_order_count(max nu)``.
    """
    if orders is None:
        orders = _order_count(float(nus.max()))
    m = np.arange(orders)
    return ive(m[None, :], nus[:, None]) / i0e(nus)[:, None]


def _trig_moments(sample, orders: int, block: int) -> np.ndarray:
    """phi_m = mean(exp(-i m Theta)) for m = 0..orders-1, ``block`` orders at a time."""
    arr = wrap_angle(_as_sample(sample))
    out = np.empty(orders, dtype=complex)
    for lo in range(0, orders, block):
        angles = np.arange(lo, min(lo + block, orders))[:, None] * arr[None, :]
        out[lo : lo + block].real = np.cos(angles).mean(axis=1)
        out[lo : lo + block].imag = -np.sin(angles).mean(axis=1)
    return out
