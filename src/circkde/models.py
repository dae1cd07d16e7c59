"""Circular distribution families: densities, exact samplers, curvature.

All angles are radians on [0, 2*pi). Densities accept scalars or arrays
and are vectorized over theta. Samplers draw from an explicit
``numpy.random.Generator`` and are deterministic given its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e
from scipy.stats import norm

from .bessel import KAPPA_CAP

TWO_PI = 2.0 * math.pi

# Half-width of the wrapping sum for wrapped Normal / skew-Normal densities.
# For every parameter set in the catalogue the linear-density mass beyond
# (WRAP_TERMS - 1) full turns is below 1e-12.
WRAP_TERMS = 6


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


def _as_theta(theta) -> tuple[np.ndarray, bool]:
    arr = np.asarray(theta, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class CircularUniform:
    """Uniform density 1/(2*pi) on the circle."""

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        return _ret(np.full(arr.shape, 1.0 / TWO_PI), scalar)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, TWO_PI, size=n)


@dataclass(frozen=True)
class VonMises:
    """von Mises vM(mu, kappa): mean direction mu, concentration kappa."""

    mu: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mu", wrap_angle(self.mu))
        if not 0.0 <= self.kappa <= KAPPA_CAP:
            raise ValueError(f"kappa must lie in [0, {KAPPA_CAP}], got {self.kappa}")

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        vals = np.exp(self.kappa * (np.cos(arr - self.mu) - 1.0))
        vals /= TWO_PI * i0e(self.kappa)
        return _ret(vals, scalar)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # numpy's generator implements the Best-Fisher rejection scheme.
        return wrap_angle(rng.vonmises(self.mu, self.kappa, size=n))


@dataclass(frozen=True)
class Cardioid:
    """Cardioid(mu, rho): cosine perturbation of the uniform, |rho| <= 1/2."""

    mu: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "mu", wrap_angle(self.mu))
        if abs(self.rho) > 0.5:
            raise ValueError(f"|rho| must be <= 1/2, got {self.rho}")

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        vals = (1.0 + 2.0 * self.rho * np.cos(arr - self.mu)) / TWO_PI
        return _ret(vals, scalar)

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
class WrappedNormal:
    """WN(mu, rho): N(mu, sigma^2) wrapped onto the circle, rho = exp(-sigma^2/2)."""

    mu: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "mu", wrap_angle(self.mu))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    @property
    def sigma(self) -> float:
        return math.sqrt(-2.0 * math.log(self.rho)) if self.rho > 0 else math.inf

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        if self.rho == 0.0:
            return _ret(np.full(arr.shape, 1.0 / TWO_PI), scalar)
        ks = TWO_PI * np.arange(-WRAP_TERMS, WRAP_TERMS + 1)
        x = arr[:, None] - self.mu + ks[None, :]
        vals = norm.pdf(x / self.sigma).sum(axis=1) / self.sigma
        return _ret(vals, scalar)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        return wrap_angle(rng.normal(self.mu, self.sigma, size=n))


@dataclass(frozen=True)
class WrappedCauchy:
    """WC(mu, rho), density (1 - rho^2) / (2 pi (1 + rho^2 - 2 rho cos(theta - mu)))."""

    mu: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "mu", wrap_angle(self.mu))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        c = np.cos(arr - self.mu)
        vals = (1.0 - self.rho**2) / (TWO_PI * (1.0 + self.rho**2 - 2.0 * self.rho * c))
        return _ret(vals, scalar)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        gamma = -math.log(self.rho)
        return wrap_angle(self.mu + gamma * rng.standard_cauchy(size=n))


@dataclass(frozen=True)
class WrappedSkewNormal:
    """WSN(xi, eta, lam): skew-Normal wrapped onto the circle (Pewsey's construction)."""

    xi: float
    eta: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "xi", wrap_angle(self.xi))
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        ks = TWO_PI * np.arange(-WRAP_TERMS, WRAP_TERMS + 1)
        z = (arr[:, None] - self.xi + ks[None, :]) / self.eta
        vals = (2.0 / self.eta) * (norm.pdf(z) * norm.cdf(self.lam * z)).sum(axis=1)
        return _ret(vals, scalar)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # delta-construction: Z = delta |U0| + sqrt(1 - delta^2) U1.
        delta = self.lam / math.sqrt(1.0 + self.lam**2)
        u0 = rng.standard_normal(n)
        u1 = rng.standard_normal(n)
        z = delta * np.abs(u0) + math.sqrt(1.0 - delta**2) * u1
        return wrap_angle(self.xi + self.eta * z)


@dataclass(frozen=True)
class VonMisesComponent:
    """One von Mises component of a mixture."""

    mu: float
    kappa: float


class VonMisesMixture:
    """Finite mixture of von Mises densities.

    Parameters are stored as flat arrays (weights, mean directions,
    concentrations); the EM routines update them wholesale.
    """

    __slots__ = ("weights", "mus", "kappas")

    def __init__(self, weights, mus, kappas):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        m = np.atleast_1d(np.asarray(mus, dtype=float))
        k = np.atleast_1d(np.asarray(kappas, dtype=float))
        if not (w.size == m.size == k.size) or w.size == 0:
            raise ValueError("weights, mus and kappas must share a positive length")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(k).all()):
            raise ValueError("weights, mus and kappas must be finite")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(k < 0) or np.any(k > KAPPA_CAP):
            raise ValueError(f"concentrations must lie in [0, {KAPPA_CAP}]")
        self.weights = w
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

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        cosd = np.cos(arr[:, None] - self.mus[None, :])
        comp = np.exp(self.kappas * (cosd - 1.0)) / (TWO_PI * i0e(self.kappas))
        return _ret(comp @ self.weights, scalar)

    def second_derivative(self, theta):
        """Analytic d^2/dtheta^2 of the mixture density."""
        arr, scalar = _as_theta(theta)
        d = arr[:, None] - self.mus[None, :]
        cosd = np.cos(d)
        comp = np.exp(self.kappas * (cosd - 1.0)) / (TWO_PI * i0e(self.kappas))
        poly = self.kappas**2 * np.sin(d) ** 2 - self.kappas * cosd
        return _ret((poly * comp) @ self.weights, scalar)


@dataclass(frozen=True)
class ModelSpec:
    """A catalogue model: weighted mixture of primitive circular distributions."""

    id: str
    weights: tuple[float, ...]
    parts: tuple[object, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.parts) or not self.parts:
            raise ValueError("weights and parts must share a positive length")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"model {self.id}: weights must sum to 1")

    def density(self, theta):
        arr, scalar = _as_theta(theta)
        vals = np.zeros(arr.shape)
        for w, part in zip(self.weights, self.parts):
            vals += w * np.atleast_1d(part.density(arr))
        return _ret(vals, scalar)

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


def curvature_integral(
    mix: VonMisesMixture,
    rel_tol: float = 1e-8,
    start_power: int = 10,
    max_power: int = 16,
) -> float:
    """Integral of the squared second derivative over one period.

    Periodic trapezoid quadrature, doubling the grid from 2**start_power
    until two successive refinements agree to ``rel_tol`` relative.
    Returns ``math.inf`` when the refinement cap is reached without
    convergence or an evaluation is non-finite, signalling that the
    curvature functional is numerically intractable for this mixture.
    """
    prev = None
    for p in range(start_power, max_power + 1):
        m = 1 << p
        theta = np.arange(m) * (TWO_PI / m)
        vals = mix.second_derivative(theta) ** 2
        if not np.all(np.isfinite(vals)):
            return math.inf
        cur = float(vals.sum() * (TWO_PI / m))
        if prev is not None:
            if cur == 0.0 and prev == 0.0:
                return 0.0
            if abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev)):
                return cur
        prev = cur
    return math.inf
