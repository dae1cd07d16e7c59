"""Modified Bessel functions of the first kind and the ratios built from them.

Everything downstream (von Mises densities, the AMISE objective, the EM
M-step) needs I_r evaluated stably for concentrations up to ``KAPPA_CAP``.
Raw I_r(x) overflows near x = 700, so all ratio expressions are built from
the exponentially scaled form exp(-x) * I_r(x); the exponential factors
cancel algebraically and are never materialized.

This module owns the von Mises characteristic function
rho_m(kappa) = I_m(kappa) / I_0(kappa) (``_kernel_coefficients``), the
rule that truncates it (``_order_count``) and the range of kappa
(``_check_concentration``); ``kde``, ``selectors`` and ``models`` share
them. Backed by ``scipy.special``'s scaled ``ive``, ``i0e`` and ``i1e``:
each row rho_m(nu) is a downward recurrence for I_m / I_{m-1} that one
``ive`` pair seeds, and ``_order_count`` reads K off such rows. An
independent power-series oracle and mpmath references live in the test suite.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e, i1e, ive

# Concentrations above this are numerically indistinguishable from point
# masses; capping keeps every downstream formula finite.
KAPPA_CAP = 1e5

# exp(x) overflows a float64 just past x = 709.
OVERFLOW_THRESHOLD = 700.0

# A(KAPPA_CAP): resultant lengths at or above this saturate the inversion.
_A_AT_CAP = float(i1e(KAPPA_CAP) / i0e(KAPPA_CAP))

# Orders whose kernel coefficient rho_m(nu_max) is at most this are dropped.
# |phi_m| <= 1, so each dropped term is below double precision of the
# estimator's Fourier coefficients, whose order 0 term is 1.
_RHO_FLOOR = 1e-17

# _kernel_coefficients runs its recurrence as numpy operations over all nu
# from this many nu on, and in Python floats one nu at a time below it. The
# two cost the same at 6-8 nu for 74-130 orders (measured on 2 cores).
_BATCH_NUS = 8


def bessel_i(r: int, x: float) -> float:
    """I_r(x) for integer order r >= 0.

    Raises OverflowError when x exceeds ``OVERFLOW_THRESHOLD``; there only
    the scaled exp(-x) I_r(x) (``scipy.special.ive``) is finite.
    """
    _check_order(r)
    if not x >= 0:  # also catches NaN
        raise ValueError(f"x must be non-negative, got {x}")
    if x > OVERFLOW_THRESHOLD:
        raise OverflowError(
            f"I_{r}({x}) overflows a float64; use the scaled exp(-x) I_r(x)"
        )
    return float(ive(r, x) * np.exp(x))


def mean_resultant_ratio(kappa):
    """A(kappa) = I_1(kappa) / I_0(kappa), the von Mises mean resultant length.

    Accepts scalars or arrays; strictly increasing from 0 (kappa = 0)
    toward its limit A(inf) = 1, which infinite kappa returns.
    """
    k = np.asarray(kappa, dtype=float)
    if not (k >= 0).all():  # also catches NaN
        raise ValueError("kappa must be non-negative")
    # i1e and i0e both vanish at infinity; skip that 0 / 0.
    out = np.divide(i1e(k), i0e(k), out=np.ones_like(k), where=k < np.inf)
    return float(out) if np.isscalar(kappa) or k.ndim == 0 else out


def inverse_mean_resultant_ratio(rbar):
    """Concentration kappa solving A(kappa) = rbar.

    The start interpolates a table of h(r) = kappa (1 - r) / r, built at
    import on 1025 nodes. h is smooth on [0, 1): 2 + O(r^2) near 0 and
    about 1/2 near 1, so linear interpolation puts
    kappa_0 = r h(r) / (1 - r) within 1e-6 relative of the root, and
    kappa_0 = 2 rbar for tiny rbar. One Newton step
    (A'(kappa) = 1 - A/kappa - A^2) leaves each within 2.4e-14, whatever
    else the batch holds. Results are capped at ``KAPPA_CAP``; inputs at or
    above A(KAPPA_CAP) (in particular rbar >= 1) return the cap, which
    callers can detect with :func:`is_saturated`. When every entry of an
    array is interior, the whole input is the Newton batch that the masked
    path would build from it, so both give the same bits; a scalar takes
    the masked path.
    """
    r = np.asarray(rbar, dtype=float)
    lo = np.minimum.reduce(r, axis=None, initial=np.inf)
    if not lo >= 0:  # also catches NaN
        raise ValueError("rbar must be non-negative")
    if r.ndim and r.size and lo > 0 and np.maximum.reduce(r, axis=None) < _A_AT_CAP:
        # Every entry interior: no mask and no scatter.
        return _newton_inverse(r)
    r = np.atleast_1d(r)
    out = np.where(r > 0, KAPPA_CAP, 0.0)
    interior = (r > 0) & (r < _A_AT_CAP)
    if interior.any():
        out[interior] = _newton_inverse(r[interior])
    return float(out[0]) if np.ndim(rbar) == 0 else out


def is_saturated(kappa) -> bool:
    """True when a concentration sits at the representable cap."""
    return bool(np.all(np.asarray(kappa) >= KAPPA_CAP))


def _check_concentration(value, name: str) -> None:
    """ValueError unless every entry of ``value`` lies in [0, KAPPA_CAP]; NaN and inf fail."""
    k = np.asarray(value, dtype=float)
    if not ((k >= 0.0) & (k <= KAPPA_CAP)).all():  # NaN compares False
        raise ValueError(f"{name} must lie in [0, {KAPPA_CAP}], got {value}")


def _order_count(nu_max: float) -> int:
    """The first order K with rho_K(nu_max) <= _RHO_FLOOR.

    rho_m(nu) falls with m and rises with nu, so no order from K on
    exceeds the floor at any nu <= nu_max. K is read off the one-nu rows
    of ``_kernel_coefficients`` at S = 64, 128, ... orders, accurate below S
    since each starts from the exact pair I_S / I_{S-1}. nu_max must lie
    in [0, KAPPA_CAP]: at NaN or inf no order meets the floor.
    """
    _check_concentration(nu_max, "nu_max")
    size = 64
    while True:
        below = np.flatnonzero(_kernel_coefficients(np.array([nu_max]), size)[0] <= _RHO_FLOOR)
        if below.size:
            return int(below[0])
        size *= 2


def _kernel_coefficients(nus: np.ndarray, orders: int | None = None) -> np.ndarray:
    """rho_m(nu) = I_m(nu) / I_0(nu), shape (nus.size, K), for m = 0..K-1.

    K is ``orders``, by default ``_order_count(max nu)``. For each nu one
    ``ive`` pair gives the start q_K = I_K / I_{K-1}, or 0 where the pair
    underflows. The ratios q_m = I_m / I_{m-1} then follow downward from
    I_{m-1} - I_{m+1} = (2 m / nu) I_m,

        q_m = 1 / (2 m / nu + q_{m+1}),    m = K - 1, ..., 1,

    the stable direction, since I_m is the recurrence's minimal solution
    (Gautschi 1967, SIAM Review 9). Then rho_0 = 1 and rho_m = q_1 ... q_m,
    a running product; a row with nu = 0 is (1, 0, ..., 0). From ``_BATCH_NUS``
    nu on, the loop over m runs as numpy operations over all nu at once
    (the ORACLE's 50 nu); below it, in Python floats one nu at a time
    (LCV's and ``kde_grid``'s one nu, the curvature's few kappa), where
    numpy's per-call cost would make the loop slower than ``ive``. Both
    do the same IEEE operations in the same order, so a row's bits do not
    depend on the batch it came in.
    """
    nus = np.asarray(nus, dtype=float)
    if orders is None:
        orders = _order_count(float(nus.max()))
    if nus.size >= _BATCH_NUS:
        return _batch_rows(nus, orders)
    rho = np.empty((nus.size, orders))
    for row, nu in zip(rho, nus.tolist()):
        _float_row(nu, row)
    return rho


def _batch_rows(nus: np.ndarray, orders: int) -> np.ndarray:
    """The rows of ``_kernel_coefficients``, the loop over m vectorized over nu."""
    rho = np.zeros((nus.size, orders))
    rho[:, 0] = 1.0
    live = np.flatnonzero(nus > 0.0)
    nu = nus[live]
    below = ive(orders - 1, nu)
    q = np.divide(ive(orders, nu), below, out=np.zeros_like(nu), where=below > 0.0)
    # Row m is 2 m / nu until the loop turns it into q_m. The quotient
    # overflows only for subnormal nu, where q_m = 1 / inf = 0 is right.
    with np.errstate(over="ignore"):
        ratios = (2.0 * np.arange(orders))[:, None] / nu
    for row in ratios[:0:-1]:
        row += q
        np.reciprocal(row, out=row)
        q = row
    ratios[0] = 1.0
    rho[live] = np.multiply.accumulate(ratios, axis=0).T
    return rho


def _float_row(nu: float, out: np.ndarray) -> None:
    """One row of ``_batch_rows`` into ``out``, by the same operations on Python floats."""
    orders = out.size
    ratios = [1.0] + [0.0] * (orders - 1)
    if nu > 0.0:
        below = float(ive(orders - 1, nu))
        q = float(ive(orders, nu)) / below if below > 0.0 else 0.0
        for m in range(orders - 1, 0, -1):
            q = 1.0 / (2.0 * m / nu + q)
            ratios[m] = q
    np.multiply.accumulate(np.fromiter(ratios, float, orders), out=out)


def _check_order(r: int) -> None:
    if r != int(r) or r < 0:
        raise ValueError(f"order must be a non-negative integer, got {r}")


def _start_table() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (r, h(r)) of h = kappa (1 - r) / r at kappa = 2 s / (1 - s).

    s = kappa / (2 + kappa) runs evenly from 0 to its value at KAPPA_CAP,
    which spaces the nodes evenly in r near 0 and in 1 / kappa near 1.
    """
    s = np.linspace(0.0, KAPPA_CAP / (2.0 + KAPPA_CAP), 1025)
    kappa = 2.0 * s[1:] / (1.0 - s[1:])
    r = i1e(kappa) / i0e(kappa)
    return np.concatenate(([0.0], r)), np.concatenate(([2.0], kappa * (1.0 - r) / r))


_R_NODES, _H_NODES = _start_table()


def _newton_start(r: np.ndarray) -> np.ndarray:
    """A^{-1}(r) from the interpolated h table, for r in (0, A(KAPPA_CAP))."""
    k = np.interp(r, _R_NODES, _H_NODES)
    k *= r
    k /= 1.0 - r
    return k


def _newton_inverse(r: np.ndarray) -> np.ndarray:
    """One Newton step from ``_newton_start``, computed in place, capped at ``KAPPA_CAP``."""
    k = _newton_start(r)
    a = i1e(k)
    a /= i0e(k)
    f = a - r
    # f / A'(k), with A'(k) = 1 - A/k - A^2 evaluated left to right.
    slope = np.divide(a, k)
    np.subtract(1.0, slope, out=slope)
    a *= a
    slope -= a
    f /= slope
    k -= f
    return np.minimum(k, KAPPA_CAP, out=k)
