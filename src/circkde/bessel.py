"""Modified Bessel functions of the first kind and the ratio A(kappa).

Everything downstream (von Mises densities, the AMISE objective, the EM
M-step) needs I_r evaluated stably for concentrations up to ``KAPPA_CAP``.
Raw I_r(x) overflows near x = 700, so all ratio expressions are built from
the exponentially scaled form exp(-x) * I_r(x); the exponential factors
cancel algebraically and are never materialized.

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


def bessel_i(r: int, x: float) -> float:
    """I_r(x) for integer order r >= 0.

    Raises OverflowError when x exceeds ``OVERFLOW_THRESHOLD``; there only
    the scaled exp(-x) I_r(x) (``scipy.special.ive``) is finite.
    """
    _check_order(r)
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x > OVERFLOW_THRESHOLD:
        raise OverflowError(
            f"I_{r}({x}) overflows a float64; use the scaled exp(-x) I_r(x)"
        )
    return float(ive(r, x) * np.exp(x))


def mean_resultant_ratio(kappa):
    """A(kappa) = I_1(kappa) / I_0(kappa), the von Mises mean resultant length.

    Accepts scalars or arrays; strictly increasing from 0 (kappa = 0)
    toward 1.
    """
    k = np.asarray(kappa, dtype=float)
    if np.any(k < 0):
        raise ValueError("kappa must be non-negative")
    out = i1e(k) / i0e(k)
    return float(out) if np.isscalar(kappa) or k.ndim == 0 else out


def inverse_mean_resultant_ratio(rbar):
    """Concentration kappa solving A(kappa) = rbar.

    The start interpolates a table of h(r) = kappa (1 - r) / r, built at
    import on 1025 nodes. h is smooth on [0, 1): 2 + O(r^2) near 0 and
    about 1/2 near 1, so linear interpolation puts
    kappa_0 = r h(r) / (1 - r) within 1e-6 relative of the root, and
    kappa_0 = 2 rbar for tiny rbar. Safeguarded Newton steps
    (A'(kappa) = 1 - A/kappa - A^2) then run until every entry has
    |A(kappa) - rbar| < 1e-12; one step suffices. Results are capped at
    ``KAPPA_CAP``; inputs at or above A(KAPPA_CAP) (in particular
    rbar >= 1) return the cap, which callers can detect with
    :func:`is_saturated`.
    """
    r = np.atleast_1d(np.asarray(rbar, dtype=float))
    if (r < 0).any():
        raise ValueError("rbar must be non-negative")
    out = np.where(r > 0, KAPPA_CAP, 0.0)
    interior = (r > 0) & (r < _A_AT_CAP)
    if interior.any():
        out[interior] = _newton_inverse(r[interior])
    return float(out[0]) if np.ndim(rbar) == 0 else out


def is_saturated(kappa) -> bool:
    """True when a concentration sits at the representable cap."""
    return bool(np.all(np.asarray(kappa) >= KAPPA_CAP))


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


def _newton_inverse(r: np.ndarray, tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
    k = _newton_start(r)
    for _ in range(max_iter):
        a = i1e(k) / i0e(k)
        f = a - r
        if (np.abs(f) < tol).all():
            break
        step = f / (1.0 - a / k - a * a)
        # A is increasing and concave; keep iterates inside (0, cap].
        k = np.minimum(np.maximum(k - step, k * 0.1), KAPPA_CAP)
    return k
