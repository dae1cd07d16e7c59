"""Von Mises-kernel circular density estimation and the ISE functional.

Grids are evaluated by the direct kernel sum. The ORACLE curve, which
needs the ISE of one sample at many concentrations, is computed from
trigonometric moments instead (``_moment_ise``): the estimator's Fourier
coefficients are phi_m rho_m(nu), with phi_m = mean(exp(-i m Theta)) and
rho_m(nu) = I_m(nu) / I_0(nu) the kernel's characteristic function
(Mardia & Jupp 2000, Directional Statistics, sec. 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e, ive

from .bessel import KAPPA_CAP
from .models import TWO_PI, wrap_angle

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
        arr = np.atleast_1d(np.asarray(self.sample, dtype=float))
        if arr.size == 0:
            raise ValueError("sample must be non-empty")
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
    exp(nu (cos(theta - Theta_i) - 1)) / (2 pi exp(-nu) I_0(nu)).
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
    # One block whenever thetas.size * sample.size <= _CHUNK_CELLS. A single
    # expression keeps at most two block-sized temporaries alive at once.
    out = np.empty(thetas.size)
    step = max(1, _CHUNK_CELLS // sample.size)
    for lo in range(0, thetas.size, step):
        out[lo : lo + step] = np.exp(
            nu * (np.cos(thetas[lo : lo + step, None] - sample[None, :]) - 1.0)
        ).mean(axis=1)
    return out / (TWO_PI * i0e(nu))


def _moment_ise(samples, truth: DensityGrid, nus) -> np.ndarray:
    """``ise(kde_grid(KdeFit(s, nu), G), truth)`` for every sample s and nu.

    Returns an array of shape (len(samples), nus.size), equal to the grid
    ISE up to rounding. The G-point DFT of the estimator's grid is
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


def _kernel_coefficients(nus: np.ndarray) -> np.ndarray:
    """rho_m(nu) = I_m(nu) / I_0(nu), shape (nus.size, K), for m = 0..K-1.

    K is the first order with rho_K(max nu) <= _RHO_FLOOR. rho_m(nu)
    falls with m and rises with nu, so no dropped order exceeds the floor
    at any nu of the grid.
    """
    nu_max = float(nus.max())
    size = 64
    while True:
        tail = ive(np.arange(size), nu_max) / i0e(nu_max)
        below = np.flatnonzero(tail <= _RHO_FLOOR)
        if below.size:
            break
        size *= 2
    orders = np.arange(int(below[0]))
    return ive(orders[None, :], nus[:, None]) / i0e(nus)[:, None]


def _trig_moments(sample, orders: int, block: int) -> np.ndarray:
    """phi_m = mean(exp(-i m Theta)) for m = 0..orders-1, ``block`` orders at a time."""
    arr = wrap_angle(np.atleast_1d(np.asarray(sample, dtype=float)))
    if arr.size == 0:
        raise ValueError("sample must be non-empty")
    out = np.empty(orders, dtype=complex)
    for lo in range(0, orders, block):
        angles = np.arange(lo, min(lo + block, orders))[:, None] * arr[None, :]
        out[lo : lo + block].real = np.cos(angles).mean(axis=1)
        out[lo : lo + block].imag = -np.sin(angles).mean(axis=1)
    return out
