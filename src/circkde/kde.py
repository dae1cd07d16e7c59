"""Von Mises-kernel circular density estimation and the ISE functional.

This module owns the estimator's evaluations. ``_kernel_sums`` is the one
direct kernel sum: ``kde_evaluate``, the density grid's direct cells, LCV's
objective and its guard rows all take it, about ``_CHUNK_CELLS`` cells at a
time. The spectral form uses the estimator's Fourier coefficients
phi_m rho_m(nu), with phi_m = mean(exp(-i m Theta)) and
rho_m(nu) = I_m(nu) / I_0(nu) the kernel's characteristic function
(Mardia & Jupp 2000, Directional Statistics, sec. 3.5). Every harmonic
cos/sin(m Theta), m < K, comes from two small tables (``_trig_table``):
cos/sin(j Theta) for j < B = ceil(sqrt(K)) and cos/sin(g B Theta) for
g < Q = ceil(K / B), combined by angle addition for m = g B + j. Each
table is the powers of exp(i Theta) or exp(i B Theta), one complex product
per row, so both cost 4 n cos/sin calls and (B + Q) n complex products
instead of 2 K n trigonometric evaluations. The error still grows like
pi m 1e-16, now from rounding B Theta rather than m Theta, plus a few
1e-16 per power. ``_table_pieces`` cuts samples into cache-sized pieces
and builds their tables, short samples several per pass, for real matrix
products of a piece's two tables. ``_sample_moments`` sums them into
phi_m of one sample or of many, from which ``kde_grid`` gets the density
grid by one inverse FFT of rho phi and ``oracle_mise_curve`` the oracle's
ISE curve for a whole set of replicates, as two (replicates x K) by
(K x nus) products of a quadratic form in rho. Both need 2 K <= G, so that
no two orders share a bin of the G-point grid. Above it ``kde_grid`` sums
kernels directly and ``oracle_mise_curve`` raises; the study sizes its
truth grids so that it never does.
Samples are wrapped where they enter (``KdeFit``, ``oracle_mise_curve``,
``selectors.lcv``); the table functions take wrapped angles.
``_cosine_sums`` builds and keeps one sample's two whole tables for the
sums behind ``selectors.lcv``'s estimator at its own sample points: one
more real product of the low table per nu, over the same step-sized
column spans, in 2 (B + Q) n floats rather than a K x n table or an
n x n kernel matrix.
All keep the K orders ``bessel._order_count`` retains; rho_m and its
truncation belong to ``bessel``. ``kde_evaluate`` and the grid cells the
spectrum cannot resolve to 1e-12 relative stay with the direct kernel sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .bessel import _check_concentration, _grid_coefficients, _kernel_coefficients, _order_count
from .models import TWO_PI, _as_sample, wrap_angle

# Large enough for 1e-8 quadrature agreement on every density in the study.
DEFAULT_GRIDSIZE = 1024

# Cells one block of a blocked evaluation holds: 512 KiB of float64.
_CHUNK_CELLS = 1 << 16

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
        _check_concentration(self.nu, "nu")
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
        _check_gridsize(arr.size)
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


def _check_gridsize(gridsize) -> int:
    """``gridsize``, unchanged; ValueError unless it is an integer power of two >= 8."""
    if not isinstance(gridsize, (int, np.integer)) or gridsize < 8 or gridsize & (gridsize - 1):
        raise ValueError(f"gridsize must be a power of two >= 8, got {gridsize!r}")
    return gridsize


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
    vals = _kernel_mean(np.atleast_1d(arr), fit.sample, fit.nu)
    return float(vals[0]) if arr.ndim == 0 else vals


def kde_grid(fit: KdeFit, gridsize: int = DEFAULT_GRIDSIZE) -> DensityGrid:
    """The estimator evaluated at every grid node, within 1e-12 relative of the direct sums.

    With K = ``bessel._order_count(nu)`` orders and G = ``gridsize``, the
    grid is f(theta_j) = (1 / 2 pi) sum_m rho_|m|(nu) phi_m exp(i m theta_j),
    one inverse FFT of length G of rho_m phi_m, m < K (``_sample_moments``),
    unfolded since 2 K <= G puts no two orders on one bin: O(K n + G log G)
    instead of G n kernel values. The FFT's error is absolute, a few 1e-16
    of a kernel's peak, so every cell below ``_GUARD`` times that peak is
    recomputed by the direct ``_kernel_mean``; no cell is negative, and
    tails keep the direct sums' relative accuracy.
    When 2 K > G (nu above about 3,300 at G = 1024) the orders would alias,
    and the whole grid is summed directly.
    """
    _check_gridsize(gridsize)
    thetas = grid_thetas(gridsize)
    orders = _order_count(fit.nu)
    if 2 * orders > gridsize:
        return DensityGrid(_kernel_mean(thetas, fit.sample, fit.nu))
    rho = _kernel_coefficients(np.array([fit.nu]), orders)[0]
    values = np.fft.irfft(rho * _sample_moments([fit.sample], orders)[0], gridsize) * (gridsize / TWO_PI)
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
    return _kernel_sums(thetas, sample, nu) / sample.size / (TWO_PI * i0e(nu))


def _kernel_sums(points: np.ndarray, sample: np.ndarray, nu: float, self_rows=None) -> np.ndarray:
    """S_i = sum_j exp(-2 nu sin^2((points[i] - sample[j]) / 2)), without term (i, self_rows[i]).

    cos d - 1 = -2 sin^2(d / 2), without the cancellation that costs
    nu * 1e-16 of absolute accuracy in the exponent at large nu. Halving
    before the subtraction keeps the passes over a block at five. They run
    in place on one buffer of about ``_CHUNK_CELLS`` cells (whole sample
    rows), small enough to stay in cache between passes. A self-term is
    zeroed rather than subtracted afterwards: the subtraction would cancel
    any contribution below one ulp of 1.
    """
    half_points, half_sample = 0.5 * points, 0.5 * sample
    step = max(1, _CHUNK_CELLS // sample.size)
    buf = np.empty((min(step, points.size), sample.size))
    out = np.empty(points.size)
    for lo in range(0, points.size, step):
        hi = min(lo + step, points.size)
        block = buf[: hi - lo]
        np.subtract(half_points[lo:hi, None], half_sample[None, :], out=block)
        np.sin(block, out=block)
        np.square(block, out=block)
        np.multiply(block, -2.0 * nu, out=block)
        np.exp(block, out=block)
        if self_rows is not None:
            block[np.arange(hi - lo), self_rows[lo:hi]] = 0.0
        out[lo:hi] = block.sum(axis=1)
    return out


def _table_layout(orders: int) -> tuple[int, int, int]:
    """B, Q and the most observations one real product over the two tables takes.

    B = ceil(sqrt(K)) and Q = ceil(K / B): every order m < K is g B + j with
    g < Q, j < B. That many observations keep both tables within
    ``_CHUNK_CELLS`` cells and a product's 4 B Q n multiply-adds within
    2^18, below which OpenBLAS runs a product on one thread: threaded,
    products with few observations took about 16 ms instead of 20 us on
    2 cores. Products stay real for that reason too.
    """
    base = math.isqrt(max(orders, 1) - 1) + 1
    groups = -(-orders // base)
    return base, groups, max(1, _CHUNK_CELLS // max(base * groups, 2 * (base + groups)))


def _trig_table(theta: np.ndarray, count: int, step) -> np.ndarray:
    """[cos; sin](k step theta) for k < count, shape (2 count, n).

    Row k is z^k, z = exp(i step theta): one cos and one sin per
    observation, then one complex product per row, row k = row k-1 times z,
    in a scratch of one block of observations, at most ``_CHUNK_CELLS``
    complex cells. The low table is step 1, the high one step B.

    Row k is within k (pi step + 4) eps of exp(i k step theta), 0 <= theta
    < 2 pi, while the direct cos(m theta) is within about pi m eps: the
    angle is no longer the float m theta. Rounding step theta moves it by
    at most pi step eps (nothing at step 1), and the k-th power multiplies
    that by k. z is within sqrt(2) eps of exp(i fl(step theta)) if np.cos
    and np.sin are within an eps, and each of the k - 1 complex products
    adds at most sqrt(5) / 2 eps relative (Brent, Percival & Zimmermann
    2007, Math. Comp. 76) to a power whose modulus is 1 within that sum.
    """
    table = np.empty((2 * count, theta.size))
    cols = max(1, _CHUNK_CELLS // count)
    scratch = np.empty((count, min(cols, theta.size)), dtype=complex)
    scratch[0] = 1.0
    for lo in range(0, theta.size, cols):
        hi = min(lo + cols, theta.size)
        block = scratch[:, : hi - lo]
        if count > 1:
            angles = np.multiply(theta[lo:hi], step)
            z = block[1]
            np.cos(angles, out=z.real)
            np.sin(angles, out=z.imag)
            for k in range(2, count):
                np.multiply(block[k - 1], z, out=block[k])
        table[:count, lo:hi] = block.real
        table[count:, lo:hi] = block.imag
    return table


def oracle_mise_curve(samples, truth: DensityGrid, nus) -> np.ndarray:
    """ISE per (replicate, nu) for fixed samples; common random numbers across nu.

    Entry (i, j) equals ``ise(kde_grid(KdeFit(samples[i], nus[j]), G),
    truth)`` up to rounding, with G = ``truth.gridsize`` and K =
    ``bessel._order_count(max nu)``; it raises unless 2 K <= G, as in the
    study (``simulate._truth_gridsize``). The G-point DFT of the estimator's
    grid then holds order k < K alone in bin k, F_k = rho_k phi_k, as on
    ``kde_grid``'s spectral side, and by Parseval the grid ISE is
    (1/2 pi) sum_k w_k |F_k - gamma_k|^2 over k = 0..G/2, with
    w = (1, 2, ..., 2, 1) and gamma the truth's scaled DFT: a quadratic
    form in rho. rho, and with it K, is built once per process for each
    grid of nus and shared with LCV's probes
    (``bessel._grid_coefficients``, read-only), and the moments of all
    samples come from shared table passes (``_sample_moments``).
    Split around the truth, with e_k = phi_k - gamma_k, each term
    w_k |rho_k phi_k - gamma_k|^2 is
    w_k (rho_k^2 |e_k|^2 - 2 rho_k (1 - rho_k) Re(e_k conj gamma_k)
    + (1 - rho_k)^2 |gamma_k|^2). With V = w |e|^2 and C = w Re(e conj
    gamma), one row per replicate, the (replicate x nu) curve is
    V (rho^2)^T - 2 C (rho (1 - rho))^T plus the bias row
    (1 - rho)^2 w |gamma|^2 and the truth's tail beyond K: two products
    of (replicates x K) by (K x nus). Every piece is of the order of the
    ISE itself; expanded around 0 instead (w |phi|^2 and
    w Re(phi conj gamma)), terms of the size of the integral of f^2 cancel
    and cost up to 8e-13 relative on the study's cells. Order 0 adds
    exactly w_0 |1 - gamma_0|^2, since rho_0 = phi_0 = 1.
    """
    nus = np.asarray(nus, dtype=float)
    if nus.ndim != 1 or nus.size == 0:
        raise ValueError("nus must be a non-empty one-dimensional array")
    _check_concentration(nus, "nu")
    g = truth.gridsize
    rho = _grid_coefficients(nus)
    orders = rho.shape[1]
    if 2 * orders > g:
        raise ValueError(f"K = {orders} orders at nu = {nus.max():g} alias on a truth grid of G = {g} < 2 K points")
    arrays = [wrap_angle(_as_sample(s)) for s in samples]
    phi = _sample_moments(arrays, orders)
    gamma = np.fft.rfft(truth.values) * (TWO_PI / g)
    weights = np.full(g // 2 + 1, 2.0)
    weights[[0, g // 2]] = 1.0
    power = weights * np.abs(gamma) ** 2
    gam, err = gamma[:orders], phi - gamma[:orders]
    variance = (err.real**2 + err.imag**2) * weights[:orders]
    cross = (err.real * gam.real + err.imag * gam.imag) * weights[:orders]
    bias = (1.0 - rho) ** 2 @ power[:orders] + power[orders:].sum()
    return (variance @ (rho * rho).T - 2.0 * (cross @ (rho * (1.0 - rho)).T) + bias) / TWO_PI


def _sample_moments(arrays, orders: int) -> np.ndarray:
    """phi_m = mean(exp(-i m Theta)), m < orders, per wrapped sample: shape (len(arrays), orders).

    One real product high (2Q x n) times low^T (n x 2B) per piece
    (``_table_pieces``), summed per sample: a product over several samples'
    angles would pass the 2^18 multiply-adds at which OpenBLAS threads it.
    A sample's pieces, so its moments, do not depend on the samples beside it.
    """
    base, groups, _ = _table_layout(orders)
    products = np.zeros((len(arrays), 2 * groups, 2 * base))
    for i, high, low in _table_pieces(arrays, orders):
        products[i] += high @ low.T
    cos_sums, sin_sums = _angle_addition(products)
    out = np.empty((len(arrays), groups, base), dtype=complex)
    out.real = cos_sums
    np.negative(sin_sums, out=out.imag)
    out /= np.array([arr.size for arr in arrays])[:, None, None]
    return out.reshape(len(arrays), groups * base)[:, :orders]


def _table_pieces(arrays, orders: int):
    """Yield (i, high, low): the tables of a piece of sample i.

    The samples' angles, already wrapped, are concatenated and cut into
    pieces of at most ``_table_layout``'s step of one sample's
    observations. Consecutive pieces share a pass of ``_trig_table`` while
    they add up to at most a step, so short samples go through the tables
    several at a time, a long one piece by piece.
    """
    bounds = [0, *itertools.accumulate(arr.size for arr in arrays)]
    theta = np.concatenate(arrays) if arrays else np.empty(0)
    base, groups, step = _table_layout(orders)
    pieces = [
        (i, lo, min(lo + step, end))
        for i, (start, end) in enumerate(zip(bounds, bounds[1:]))
        for lo in range(start, end, step)
    ]
    first = 0
    while first < len(pieces):
        lo = pieces[first][1]
        last = first + 1
        while last < len(pieces) and pieces[last][2] - lo <= step:
            last += 1
        block = theta[lo : pieces[last - 1][2]]
        high, low = _trig_table(block, groups, base), _trig_table(block, base, 1)
        for i, a, b in pieces[first:last]:
            yield i, high[:, a - lo : b - lo], low[:, a - lo : b - lo]
        first = last


def _cosine_sums(arr: np.ndarray, orders: int):
    """The function coef -> S, S_i = sum_m coef_m sum_j cos(m (Theta_i - Theta_j)), m < orders.

    The inner sum is a_m cos(m Theta_i) + b_m sin(m Theta_i), with a_m, b_m
    the sample's sums of cos and sin(m Theta). With C = coef a, D = coef b
    as Q x B matrices (m = g B + j, zero from K on), angle addition gives
    S_i = sum_g cos(g B Theta_i) U_gi + sin(g B Theta_i) V_gi with
    [U; V] = [[C, D], [D, -C]] [cos; sin](j Theta). The sample's two tables
    are built once, one ``_trig_table`` call each, and kept in
    2 (B + Q) n floats; a_m, b_m and, per coef, S are real products over
    ``_table_layout``'s step-sized column spans of them (4 K n
    multiply-adds per coef). The sample ``arr`` is already wrapped.
    """
    base, groups, step = _table_layout(orders)
    high, low = _trig_table(arr, groups, base), _trig_table(arr, base, 1)
    spans = [slice(lo, lo + step) for lo in range(0, arr.size, step)]
    a, b = _angle_addition(sum(high[:, span] @ low[:, span].T for span in spans))
    # pattern[h, g, l, j] is [[a, b], [b, -a]], so pattern * coef is [[C, D], [D, -C]].
    pattern = np.stack([np.stack([a, b], axis=1), np.stack([b, -a], axis=1)])
    padded = np.zeros(groups * base)

    def sums(coef: np.ndarray) -> np.ndarray:
        padded[:orders] = coef
        w = (pattern * padded.reshape(groups, 1, base)).reshape(2 * groups, 2 * base)
        out = np.empty(arr.size)
        for span in spans:
            uv = w @ low[:, span]
            uv *= high[:, span]
            out[span] = uv.sum(axis=0)
        return out

    return sums


def _angle_addition(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of cos and sin(m Theta), m = g B + j, from the (..., 2Q, 2B) table products.

    cos(m t) = cos(g B t) cos(j t) - sin(g B t) sin(j t) and
    sin(m t) = sin(g B t) cos(j t) + cos(g B t) sin(j t), computed in
    place: the results are views of ``products``.
    """
    groups, base = products.shape[-2] // 2, products.shape[-1] // 2
    cc, cs = products[..., :groups, :base], products[..., :groups, base:]
    sc, ss = products[..., groups:, :base], products[..., groups:, base:]
    return np.subtract(cc, ss, out=cc), np.add(sc, cs, out=sc)
