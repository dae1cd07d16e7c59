"""Modified Bessel functions of the first kind and the ratios built from them.

Everything downstream (von Mises densities, the AMISE objective, the EM
M-step) needs I_r evaluated stably for concentrations up to ``KAPPA_CAP``.
Raw I_r(x) overflows near x = 700, so all ratio expressions are built from
the exponentially scaled form exp(-x) * I_r(x); the exponential factors
cancel algebraically and are never materialized.

This module owns the von Mises characteristic function
rho_m(kappa) = I_m(kappa) / I_0(kappa) (``_kernel_coefficients``) and the
rule that truncates it (``_order_count``). Three users share them: the
ORACLE curve and LCV in ``kde`` and ``selectors``, where kappa is the
kernel concentration nu, and the mixture curvature in ``models``.

Backed by ``scipy.special`` (``iv`` / ``ive``); an independent power-series
oracle lives in the test suite.
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

# A^{-1} keeps its start if every |A(start) - rbar| is below this.
_NEWTON_TOL = 1e-12

# Orders whose kernel coefficient rho_m(nu_max) is at most this are dropped.
# |phi_m| <= 1, so each dropped term is below double precision of the
# estimator's Fourier coefficients, whose order 0 term is 1.
_RHO_FLOOR = 1e-17


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
    kappa_0 = 2 rbar for tiny rbar. Unless every start meets
    |A(kappa) - rbar| < 1e-12, one safeguarded Newton step (A'(kappa) =
    1 - A/kappa - A^2) leaves each within 2.4e-14. Results are capped at
    ``KAPPA_CAP``; inputs at or above A(KAPPA_CAP) (in particular
    rbar >= 1) return the cap, which callers can detect with
    :func:`is_saturated`. When every entry is interior, the whole input is
    the Newton batch that the masked path would build from it, so both
    give the same bits.
    """
    r = np.asarray(rbar, dtype=float)
    lo = np.minimum.reduce(r, axis=None, initial=np.inf)
    if not lo >= 0:  # also catches NaN
        raise ValueError("rbar must be non-negative")
    if r.size and lo > 0 and np.maximum.reduce(r, axis=None) < _A_AT_CAP:
        # Every entry interior: no mask and no scatter.
        k = _newton_inverse(r)
        return float(k) if r.ndim == 0 else k
    r = np.atleast_1d(r)
    out = np.where(r > 0, KAPPA_CAP, 0.0)
    interior = (r > 0) & (r < _A_AT_CAP)
    if interior.any():
        out[interior] = _newton_inverse(r[interior])
    return float(out[0]) if np.ndim(rbar) == 0 else out


def is_saturated(kappa) -> bool:
    """True when a concentration sits at the representable cap."""
    return bool(np.all(np.asarray(kappa) >= KAPPA_CAP))


def _order_count(nu_max: float) -> int:
    """The first order K with rho_K(nu_max) <= _RHO_FLOOR.

    rho_m(nu) falls with m and rises with nu, so no order from K on
    exceeds the floor at any nu <= nu_max. The search scans orders
    [0, 64), then [64, 128), [128, 256), ..., each order once.
    """
    lo, hi = 0, 64
    while True:
        tail = ive(np.arange(lo, hi), nu_max) / i0e(nu_max)
        below = np.flatnonzero(tail <= _RHO_FLOOR)
        if below.size:
            return lo + int(below[0])
        lo, hi = hi, 2 * hi


def _kernel_coefficients(nus: np.ndarray, orders: int | None = None) -> np.ndarray:
    """rho_m(nu) = I_m(nu) / I_0(nu), shape (nus.size, K), for m = 0..K-1.

    K is ``orders``, by default ``_order_count(max nu)``.
    """
    if orders is None:
        orders = _order_count(float(nus.max()))
    m = np.arange(orders)
    return ive(m[None, :], nus[:, None]) / i0e(nus)[:, None]


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
    return r * np.interp(r, _R_NODES, _H_NODES) / (1.0 - r)


def _newton_inverse(r: np.ndarray) -> np.ndarray:
    k = _newton_start(r)
    a = i1e(k)
    a /= i0e(k)
    f = a - r
    if np.maximum.reduce(np.abs(f), axis=None) < _NEWTON_TOL:
        return k
    step = f / (1.0 - a / k - a * a)
    # A is increasing and concave; keep the iterate inside (0, cap].
    return np.minimum(np.maximum(k - step, k * 0.1), KAPPA_CAP)
