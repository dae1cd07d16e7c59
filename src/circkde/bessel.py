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

from typing import NamedTuple

import numpy as np
from scipy.special import i0e, i1e, ive

# Concentrations above this are numerically indistinguishable from point
# masses; capping keeps every downstream formula finite.
KAPPA_CAP = 1e5

# exp(x) overflows a float64 just past x = 709.
OVERFLOW_THRESHOLD = 700.0

# A(KAPPA_CAP): resultant lengths at or above this saturate the inversion.
_A_AT_CAP = float(i1e(KAPPA_CAP) / i0e(KAPPA_CAP))


class ScaledBessel(NamedTuple):
    """I_r(x) represented as ``value * exp(scale_exponent)``.

    With the canonical scaling ``scale_exponent = x`` the mantissa
    ``value = exp(-x) * I_r(x)`` lies in (0, 1] for x > 0, so the
    representation stays finite for arbitrarily large arguments.
    """

    value: float
    scale_exponent: float

    @property
    def log(self) -> float:
        return float(np.log(self.value) + self.scale_exponent)

    def unscaled(self) -> float:
        """Reconstruct I_r(x); finite only while x stays below ~709."""
        return float(self.value * np.exp(self.scale_exponent))


def bessel_i(r: int, x: float) -> float:
    """I_r(x) for integer order r >= 0.

    Raises OverflowError when x exceeds ``OVERFLOW_THRESHOLD``; use
    :func:`bessel_i_scaled` there instead.
    """
    _check_order(r)
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x > OVERFLOW_THRESHOLD:
        raise OverflowError(
            f"I_{r}({x}) overflows a float64; use bessel_i_scaled"
        )
    return float(ive(r, x) * np.exp(x))


def bessel_i_scaled(r: int, x: float) -> ScaledBessel:
    """exp(-x) * I_r(x), finite and positive for any x >= 0 (r >= 1: x > 0)."""
    _check_order(r)
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return ScaledBessel(value=float(ive(r, x)), scale_exponent=float(x))


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

    Solved from Fisher's piecewise rational approximation by safeguarded
    Newton steps (A'(kappa) = 1 - A/kappa - A^2) until every entry has
    |A(kappa) - rbar| < 1e-12. Results are capped at ``KAPPA_CAP``; inputs
    at or above A(KAPPA_CAP) (in particular rbar >= 1) return the cap,
    which callers can detect with :func:`is_saturated`.
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


def log_bessel_i0(kappa):
    """log I_0(kappa), stable for kappa up to and beyond ``KAPPA_CAP``."""
    k = np.asarray(kappa, dtype=float)
    out = np.log(i0e(k)) + k
    return float(out) if np.isscalar(kappa) or k.ndim == 0 else out


def _check_order(r: int) -> None:
    if r != int(r) or r < 0:
        raise ValueError(f"order must be a non-negative integer, got {r}")


def _newton_start(r: np.ndarray) -> np.ndarray:
    """Fisher's piecewise approximation to A^{-1}(r) for r in (0, A(KAPPA_CAP))."""
    k = np.where(
        r < 0.53,
        2 * r + r**3 + 5 * r**5 / 6,
        np.where(r < 0.85, -0.4 + 1.39 * r + 0.43 / (1 - r), 1.0 / (r**3 - 4 * r**2 + 3 * r)),
    )
    return np.minimum(np.maximum(k, 1e-12), KAPPA_CAP)


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
