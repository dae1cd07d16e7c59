"""Shared test oracles, independent of the library's computation paths, and a fixture that empties its caches."""

import math

import numpy as np
import pytest
from scipy.special import i0e
from scipy.stats import chi2

TWO_PI = 2.0 * math.pi


def series_bessel_i(r: int, x: float, tol: float = 1e-17, max_terms: int = 300) -> float:
    """Power-series I_r(x): sum_k (x/2)^(2k+r) / (k! (k+r)!).

    The reference definition; converges for the argument ranges the tests
    use (well over 30 terms retained before truncation matters).
    """
    half = x / 2.0
    term = half**r / math.factorial(r)
    total = term
    for k in range(1, max_terms):
        term *= half * half / (k * (k + r))
        total += term
        if term < tol * total:
            break
    return total


def mixture_second_derivative(mix, theta) -> np.ndarray:
    """Analytic f''(theta) of a von Mises mixture, for curvature references.

    Each component g = exp(-2 k sin^2(d/2)) / (2 pi I_0(k) e^-k), d = theta - mu,
    has g'' = g (k^2 sin^2 d - k cos d).
    """
    d = np.atleast_1d(np.asarray(theta, dtype=float))[:, None] - mix.mus[None, :]
    k = mix.kappas
    g = np.exp(np.sin(0.5 * d) ** 2 * (-2.0 * k)) / (TWO_PI * i0e(k))
    return (g * (k**2 * np.sin(d) ** 2 - k * np.cos(d))) @ mix.weights


def arc_probabilities(model, arcs: int = 36, subdivisions: int = 64) -> np.ndarray:
    """Probability of each equal arc, by midpoint quadrature of the density."""
    m = arcs * subdivisions
    theta = (np.arange(m) + 0.5) * (TWO_PI / m)
    dens = np.atleast_1d(model.density(theta))
    probs = dens.reshape(arcs, subdivisions).sum(axis=1) * (TWO_PI / m)
    return probs / probs.sum()


def chi_square_gof_pvalue(
    sample: np.ndarray,
    model,
    arcs: int = 36,
    pool_min_expected: float = 0.0,
) -> float:
    """Chi-squared goodness of fit of a sample against a model's arc probabilities.

    With ``pool_min_expected`` > 0, circularly adjacent arcs are merged until
    every pooled bin's expected count reaches the floor (needed for sharply
    peaked models where raw arcs have near-zero expectation).
    """
    counts = np.histogram(sample, bins=arcs, range=(0.0, TWO_PI))[0].astype(float)
    expected = arc_probabilities(model, arcs) * sample.size
    if pool_min_expected > 0.0:
        counts, expected = _pool_bins(counts, expected, pool_min_expected)
    stat = ((counts - expected) ** 2 / expected).sum()
    dof = counts.size - 1
    return float(chi2.sf(stat, dof))


def _pool_bins(counts: np.ndarray, expected: np.ndarray, floor: float):
    counts = list(counts)
    expected = list(expected)
    while len(counts) > 2 and min(expected) < floor:
        i = int(np.argmin(expected))
        j = (i + 1) % len(counts) if expected[(i + 1) % len(counts)] <= expected[i - 1] else i - 1
        keep = min(i, j) if abs(i - j) == 1 else max(i, j)
        drop = i + j - keep if abs(i - j) == 1 else min(i, j)
        counts[keep] += counts[drop]
        expected[keep] += expected[drop]
        del counts[drop], expected[drop]
    return np.asarray(counts), np.asarray(expected)


def circular_distance(a, b) -> np.ndarray:
    d = np.abs(np.mod(np.asarray(a) - np.asarray(b), TWO_PI))
    return np.minimum(d, TWO_PI - d)


@pytest.fixture
def cold_caches():
    """Empty circkde's per-process caches (nu grids, their kernel rows, truth grid sizes) around a test.

    Yields the function that empties them, for tests that compare a cold run with a warm one.
    """
    from circkde import bessel, simulate

    # Taken now: a test may monkeypatch these names before the teardown clears them.
    caches = (bessel._kept_rows, simulate.default_oracle_grid, simulate._truth_gridsize)

    def clear():
        for cached in caches:
            cached.cache_clear()

    clear()
    yield clear
    clear()
