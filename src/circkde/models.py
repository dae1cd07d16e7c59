"""Circular distribution families: densities, exact samplers, curvature.

All angles are radians on [0, 2*pi). ``density`` accepts a scalar or an
array around each family's or mixture's ``_density`` of a 1-d array;
``_Family`` wraps every location parameter, and both mixture types share
``_check_weights``. Samplers draw from an explicit
``numpy.random.Generator`` and are deterministic given its state.
``curvature_integral`` sums a von Mises mixture's curvature as a series
in the Bessel ratios rho_m that ``bessel`` owns.

Von Mises exponents are written as -2 kappa sin^2((theta - mu) / 2),
which keeps them exact to rounding where kappa (cos(theta - mu) - 1)
loses kappa * 1e-16 to cancellation. The Normal pdf is scipy.stats'
own formula and the cdf is ``scipy.special.ndtr``, which ``norm.cdf``
calls: the same values, without importing ``scipy.stats``, which alone
costs most of the package's import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import i0e, ndtr

from .bessel import _check_concentration, _kernel_coefficients

TWO_PI = 2.0 * math.pi

# Half-width of the wrapping sum for wrapped Normal / skew-Normal densities.
# For every parameter set in the catalogue the linear-density mass beyond
# (WRAP_TERMS - 1) full turns is below 1e-12.
WRAP_TERMS = 6

_SQRT_TWO_PI = math.sqrt(TWO_PI)


def wrap_angle(theta):
    """Canonical representative in [0, 2*pi); idempotent."""
    out = np.mod(theta, TWO_PI)
    # np.mod(-tiny, 2 pi) can round to exactly 2 pi; fold it back to 0.
    out = np.where(out >= TWO_PI, 0.0, out)
    return float(out) if np.isscalar(theta) else out


def _as_sample(sample) -> np.ndarray:
    """A sample of angles as a 1-d float array; ValueError if empty or not finite."""
    arr = np.atleast_1d(np.asarray(sample, dtype=float))
    if arr.size == 0:
        raise ValueError("sample must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample must contain only finite angles")
    return arr


def _normal_pdf(x):
    """The standard Normal density, in the form ``scipy.stats.norm.pdf`` evaluates."""
    return np.exp(-(x**2) / 2.0) / _SQRT_TWO_PI


def _check_weights(weights) -> np.ndarray:
    """Weights as an array; ValueError unless finite, positive and summing to 1 within 1e-12."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError(f"mixture weights must be finite and positive, got {w}")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
    return w


class _Density:
    """``density(theta)`` for a scalar or an array, from ``_density`` of a 1-d array."""

    __slots__ = ()

    def density(self, theta):
        arr = np.asarray(theta, dtype=float)
        vals = self._density(np.atleast_1d(arr))
        return float(vals[0]) if arr.ndim == 0 else vals


class _Family(_Density):
    """Base of the primitive families: every parameter must be a finite number.

    Each family's own checks run after this one. A NaN parameter would give
    a NaN density, and WrappedSkewNormal(eta=inf) one that is 0 everywhere.
    The location parameter, ``mu`` or ``xi``, is wrapped into [0, 2 pi).
    """

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        bad = {name: v for name, v in values.items() if not math.isfinite(v)}
        if bad:
            raise ValueError(f"parameters must be finite, got {bad}")
        for name in {"mu", "xi"} & values.keys():
            object.__setattr__(self, name, wrap_angle(values[name]))


@dataclass(frozen=True)
class CircularUniform(_Family):
    """Uniform density 1/(2*pi) on the circle."""

    def _density(self, arr):
        return np.full(arr.shape, 1.0 / TWO_PI)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, TWO_PI, size=n)


@dataclass(frozen=True)
class VonMises(_Family):
    """von Mises vM(mu, kappa): mean direction mu, concentration kappa."""

    mu: float
    kappa: float

    def __post_init__(self):
        super().__post_init__()
        _check_concentration(self.kappa, "kappa")

    def _density(self, arr):
        vals = np.exp(np.sin(0.5 * arr - 0.5 * self.mu) ** 2 * (-2.0 * self.kappa))
        return vals / (TWO_PI * i0e(self.kappa))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # numpy's generator implements the Best-Fisher rejection scheme.
        return wrap_angle(rng.vonmises(self.mu, self.kappa, size=n))


@dataclass(frozen=True)
class Cardioid(_Family):
    """Cardioid(mu, rho): cosine perturbation of the uniform, |rho| <= 1/2."""

    mu: float
    rho: float

    def __post_init__(self):
        super().__post_init__()
        if abs(self.rho) > 0.5:
            raise ValueError(f"|rho| must be <= 1/2, got {self.rho}")

    def _density(self, arr):
        return (1.0 + 2.0 * self.rho * np.cos(arr - self.mu)) / TWO_PI

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Rejection from the uniform envelope; acceptance rate 1/(1 + 2 rho).
        out = np.empty(n)
        filled = 0
        bound = 1.0 + 2.0 * abs(self.rho)
        while filled < n:
            m = max(16, int(1.2 * (n - filled) * bound) + 1)
            cand = rng.uniform(0.0, TWO_PI, size=m)
            u = rng.uniform(0.0, 1.0, size=m)
            keep = cand[u * bound <= 1.0 + 2.0 * self.rho * np.cos(cand - self.mu)]
            take = keep[: n - filled]
            out[filled : filled + take.size] = take
            filled += take.size
        return out


@dataclass(frozen=True)
class WrappedNormal(_Family):
    """WN(mu, rho): N(mu, sigma^2) wrapped onto the circle, rho = exp(-sigma^2/2)."""

    mu: float
    rho: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    @property
    def sigma(self) -> float:
        return math.sqrt(-2.0 * math.log(self.rho)) if self.rho > 0 else math.inf

    def _density(self, arr):
        if self.rho == 0.0:
            return np.full(arr.shape, 1.0 / TWO_PI)
        ks = TWO_PI * np.arange(-WRAP_TERMS, WRAP_TERMS + 1)
        x = arr[:, None] - self.mu + ks[None, :]
        return _normal_pdf(x / self.sigma).sum(axis=1) / self.sigma

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        return wrap_angle(rng.normal(self.mu, self.sigma, size=n))


@dataclass(frozen=True)
class WrappedCauchy(_Family):
    """WC(mu, rho), density (1 - rho^2) / (2 pi (1 + rho^2 - 2 rho cos(theta - mu)))."""

    mu: float
    rho: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    def _density(self, arr):
        c = np.cos(arr - self.mu)
        return (1.0 - self.rho**2) / (TWO_PI * (1.0 + self.rho**2 - 2.0 * self.rho * c))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        gamma = -math.log(self.rho)
        return wrap_angle(self.mu + gamma * rng.standard_cauchy(size=n))


@dataclass(frozen=True)
class WrappedSkewNormal(_Family):
    """WSN(xi, eta, lam): skew-Normal wrapped onto the circle (Pewsey's construction)."""

    xi: float
    eta: float
    lam: float

    def __post_init__(self):
        super().__post_init__()
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    def _density(self, arr):
        ks = TWO_PI * np.arange(-WRAP_TERMS, WRAP_TERMS + 1)
        z = (arr[:, None] - self.xi + ks[None, :]) / self.eta
        return (2.0 / self.eta) * (_normal_pdf(z) * ndtr(self.lam * z)).sum(axis=1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # delta-construction: Z = delta |U0| + sqrt(1 - delta^2) U1.
        delta = self.lam / math.sqrt(1.0 + self.lam**2)
        u0 = rng.standard_normal(n)
        u1 = rng.standard_normal(n)
        z = delta * np.abs(u0) + math.sqrt(1.0 - delta**2) * u1
        return wrap_angle(self.xi + self.eta * z)


class VonMisesMixture(_Density):
    """Finite mixture of von Mises densities.

    Parameters are stored as flat arrays (weights, mean directions,
    concentrations); the EM routines update them wholesale.
    """

    __slots__ = ("weights", "mus", "kappas")

    def __init__(self, weights, mus, kappas):
        m = np.atleast_1d(np.asarray(mus, dtype=float))
        k = np.atleast_1d(np.asarray(kappas, dtype=float))
        if not (np.size(weights) == m.size == k.size) or m.size == 0:
            raise ValueError("weights, mus and kappas must share a positive length")
        self.weights = _check_weights(weights)
        if not (np.isfinite(m).all() and np.isfinite(k).all()):
            raise ValueError("mus and kappas must be finite")
        _check_concentration(k, "concentrations")
        self.mus = wrap_angle(m)
        self.kappas = k

    @property
    def m(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{w:.3f}*vM({mu:.3f}, {k:.3g})"
            for w, mu, k in zip(self.weights, self.mus, self.kappas)
        )
        return f"VonMisesMixture({parts})"

    def _density(self, arr):
        sind = np.sin(0.5 * arr[:, None] - 0.5 * self.mus[None, :])
        comp = np.exp(sind**2 * (-2.0 * self.kappas)) / (TWO_PI * i0e(self.kappas))
        return comp @ self.weights


@dataclass(frozen=True)
class ModelSpec(_Density):
    """A catalogue model: weighted mixture of primitive circular distributions."""

    id: str
    weights: tuple[float, ...]
    parts: tuple[object, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.parts) or not self.parts:
            raise ValueError("weights and parts must share a positive length")
        _check_weights(self.weights)

    def _density(self, arr):
        return sum(w * np.atleast_1d(p.density(arr)) for w, p in zip(self.weights, self.parts))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n)
        if n == 0:
            return out
        if len(self.parts) == 1:
            return self.parts[0].sample(n, rng)
        idx = rng.choice(len(self.parts), size=n, p=np.asarray(self.weights, dtype=float))
        for j, part in enumerate(self.parts):
            where = np.nonzero(idx == j)[0]
            if where.size:
                out[where] = part.sample(where.size, rng)
        return out


def curvature_integral(mix: VonMisesMixture) -> float:
    """Integral of the squared second derivative over one period.

    The mixture's Fourier coefficients are
    c_m = sum_j w_j rho_m(kappa_j) exp(-i m mu_j), so by Parseval the
    integral is (1/pi) sum over m >= 1 of m^4 |c_m|^2 (Mardia & Jupp 2000,
    sec. 3.5). The sum stops at the order count for the largest kappa,
    where every component's rho_m is at most ``bessel._RHO_FLOOR``. The
    weights sum to 1, so |c_m| <= max_j rho_m(kappa_j) and every dropped
    term is below m^4 * 1e-34; rho_m falls faster than geometrically past
    that order, so the floor that truncates the estimator's coefficients
    also suffices here.
    """
    rho = _kernel_coefficients(mix.kappas)[:, 1:]
    m = np.arange(1.0, rho.shape[1] + 1.0)
    # A sum, not weights @ (...): OpenBLAS's threaded complex gemv took
    # 8 ms for the 2 x 2,798 product of two components at KAPPA_CAP.
    c = (mix.weights[:, None] * rho * np.exp(-1j * mix.mus[:, None] * m)).sum(axis=0)
    return float(m**4 @ (c.real**2 + c.imag**2)) / math.pi
