"""Maximum-likelihood von Mises mixtures: EM fitting and AIC selection.

The E-step works in log space; the M-step updates weights, mean
directions and concentrations from weighted resultants. Initialization is
a seeded farthest-point sweep over the data, so every fit is reproducible
from an integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .bessel import inverse_mean_resultant_ratio, is_saturated
from .models import TWO_PI, VonMisesComponent, VonMisesMixture, _as_sample, curvature_integral, wrap_angle
from .rng import make_rng

DEFAULT_CANDIDATE_MS: tuple[int, ...] = (2, 3, 4, 5)

_LOG_TWO_PI = math.log(TWO_PI)


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM selection run; defaults follow common practice."""

    max_iter: int = 200
    rel_tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")


@dataclass(frozen=True)
class MixtureFit:
    """An EM result: fitted mixture plus likelihood and validity bookkeeping."""

    mixture: VonMisesMixture
    log_likelihood: float
    M: int
    converged: bool
    aic: float
    valid: bool = True
    invalid_reason: str | None = None
    n_iter: int = 0
    ll_trace: tuple[float, ...] = field(default=(), repr=False)


def aic_value(log_likelihood: float, m: int) -> float:
    """Akaike criterion with 3M - 1 free parameters."""
    return 2.0 * (3 * m - 1) - 2.0 * log_likelihood


def fit_single_von_mises(sample) -> VonMisesComponent:
    """MLE of a single von Mises: mean direction and A^{-1} of the resultant."""
    arr = _as_sample(sample)
    c = np.cos(arr).sum()
    s = np.sin(arr).sum()
    mu = wrap_angle(math.atan2(s, c))
    rbar = min(math.hypot(c, s) / arr.size, 1.0)
    if rbar < 1e-12:  # resultant below summation noise: exact symmetry
        rbar = 0.0
    return VonMisesComponent(mu=mu, kappa=inverse_mean_resultant_ratio(rbar))


def log_likelihood(sample, mixture: VonMisesMixture) -> float:
    # The batched E-step takes (restarts, M) parameters; this is one restart.
    params = (mixture.weights[None, :], mixture.mus[None, :], mixture.kappas[None, :])
    _, ll = _batch_e_step(_unit_vectors(sample), *params)
    return float(ll[0])


def em_fit(sample, M: int, cfg: EmConfig | None = None) -> MixtureFit:
    """Best-of-restarts EM fit with M components, in ascending mean direction.

    M = 1 reduces exactly to the closed-form single-component MLE.
    """
    arr = _as_sample(sample)
    cfg = cfg or EmConfig()
    n = arr.size
    if M < 1:
        raise ValueError("M must be >= 1")
    if n < 3 * M:
        raise ValueError(f"need at least {3 * M} observations to fit M={M}, got {n}")

    if M == 1:
        comp = fit_single_von_mises(arr)
        mix = VonMisesMixture([1.0], [comp.mu], [comp.kappa])
        ll = log_likelihood(arr, mix)
        return _finalize(mix, ll, converged=True, n_iter=0, trace=(ll,), n=n)

    mus0 = np.stack(
        [_initial_centers(arr, M, make_rng(cfg.seed, M, r)) for r in range(cfg.n_restarts)]
    )
    return _run_em_restarts(_unit_vectors(arr), mus0, cfg)


@dataclass(frozen=True)
class MixtureSelection:
    """Outcome of AIC selection over candidate component counts.

    ``best`` is None when no candidate produced a valid fit with a finite
    curvature integral (the no-valid-fit marker that triggers the
    rule-of-thumb fallback downstream). ``convergence`` maps each fitted
    candidate M to its best restart's ``(n_iter, converged)``, so fits
    stopped at ``max_iter`` stay visible.
    """

    best: MixtureFit | None
    best_curvature: float | None
    aic_table: dict[int, float]
    rejected: dict[int, str]
    convergence: dict[int, tuple[int, bool]] = field(default_factory=dict)


def select_reference_mixture(
    sample,
    candidate_Ms=DEFAULT_CANDIDATE_MS,
    cfg: EmConfig | None = None,
) -> MixtureSelection:
    """Fit each candidate M and keep the minimum-AIC valid fit.

    Candidates are dropped when the sample is too small for them, the EM
    fit is degenerate, or the curvature integral of the fitted mixture is
    not finite.
    """
    arr = _as_sample(sample)
    cfg = cfg or EmConfig()
    candidates = sorted(set(int(m) for m in candidate_Ms))
    if not candidates:
        raise ValueError("candidate_Ms must be non-empty")

    aic_table: dict[int, float] = {}
    rejected: dict[int, str] = {}
    convergence: dict[int, tuple[int, bool]] = {}
    eligible: list[tuple[float, int, MixtureFit, float]] = []
    for m in candidates:
        if arr.size < 3 * m:
            rejected[m] = f"sample too small for M={m}"
            continue
        fit = em_fit(arr, m, cfg)
        aic_table[m] = fit.aic
        convergence[m] = (fit.n_iter, fit.converged)
        if not fit.valid:
            rejected[m] = fit.invalid_reason or "degenerate fit"
            continue
        curv = curvature_integral(fit.mixture)
        if not math.isfinite(curv):
            rejected[m] = "curvature integral did not converge"
            continue
        eligible.append((fit.aic, m, fit, curv))

    if not eligible:
        return MixtureSelection(None, None, aic_table, rejected, convergence)
    _, _, fit, curv = min(eligible, key=lambda t: (t[0], t[1]))
    return MixtureSelection(fit, curv, aic_table, rejected, convergence)


# -- internals -------------------------------------------------------------


def _unit_vectors(sample) -> np.ndarray:
    """(cos theta, sin theta) of each observation as a (2, n) matrix."""
    arr = _as_sample(sample)
    return np.stack((np.cos(arr), np.sin(arr)))


def _initial_centers(arr: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point sweep from a seeded random start."""
    start = int(rng.integers(arr.size))
    centers = [arr[start]]
    d = _circ_dist(arr, centers[0])
    for _ in range(M - 1):
        far = int(np.argmax(d))
        centers.append(arr[far])
        d = np.minimum(d, _circ_dist(arr, arr[far]))
    return np.asarray(centers)


def _circ_dist(a: np.ndarray, b: float) -> np.ndarray:
    diff = np.abs(np.mod(a - b, TWO_PI))
    return np.minimum(diff, TWO_PI - diff)


def _run_em_restarts(x: np.ndarray, mus0: np.ndarray, cfg: EmConfig) -> MixtureFit:
    """All restarts advanced in lockstep; each stops at its own convergence.

    Parameter tensors have shape (restarts, M); the E-step works on
    (restarts, M, n). A restart's parameters freeze once its relative
    log-likelihood change drops below tolerance, which reproduces the
    per-restart sequential behaviour exactly.
    """
    n = x.shape[1]
    nr, m = mus0.shape
    alpha = np.full((nr, m), 1.0 / m)
    mus = mus0.copy()
    kappas = np.ones((nr, m))
    ll_prev = np.full(nr, -math.inf)
    active = np.ones(nr, dtype=bool)
    n_iters = np.zeros(nr, dtype=int)
    # Row it - 1 holds iteration it's log-likelihoods; restart r is active
    # for iterations 1..n_iters[r], so its trace is a prefix of its column.
    ll_hist = np.empty((cfg.max_iter, nr))
    for it in range(1, cfg.max_iter + 1):
        resp, ll = _batch_e_step(x, alpha, mus, kappas)
        new_alpha, new_mus, new_kappas = _batch_m_step(x, resp)
        keep = active[:, None]
        np.copyto(alpha, new_alpha, where=keep)
        np.copyto(mus, new_mus, where=keep)
        np.copyto(kappas, new_kappas, where=keep)
        done = (ll_prev > -math.inf) & (
            np.abs(ll - ll_prev) <= cfg.rel_tol * np.maximum(np.abs(ll_prev), 1.0)
        )
        ll_hist[it - 1] = ll
        n_iters[active] = it
        ll_prev = np.where(active, ll, ll_prev)
        active &= ~done
        if not active.any():
            break
    _, ll_final = _batch_e_step(x, alpha, mus, kappas)
    best = int(np.argmax(ll_final))
    trace = tuple(ll_hist[: n_iters[best], best].tolist()) + (float(ll_final[best]),)
    # Restarts can reach one optimum with permuted labels; sorting by mean
    # direction makes the reported order independent of which one won.
    order = np.argsort(wrap_angle(mus[best]), kind="stable")
    mix = VonMisesMixture(alpha[best, order], mus[best, order], kappas[best, order])
    return _finalize(
        mix,
        float(ll_final[best]),
        converged=bool(~active[best]),
        n_iter=int(n_iters[best]),
        trace=trace,
        n=n,
    )


def _batch_e_step(x, alpha, mus, kappas):
    """Responsibilities (restarts, M, n) and log-likelihood per restart.

    The (restarts, M) parameters meet the (2, n) unit vectors ``x`` in one
    matmul; the log-sum-exp then reduces over components elementwise
    across contiguous rows of length n.
    """
    w = kappas * np.array((np.cos(mus), np.sin(mus)))
    d = w.transpose(1, 2, 0) @ x
    d += (np.log(alpha) - _LOG_TWO_PI - np.log(i0e(kappas)) - kappas)[:, :, None]
    colmax = d.max(axis=1)
    d -= colmax[:, None, :]
    np.exp(d, out=d)
    colsum = d.sum(axis=1)
    ll = (colmax + np.log(colsum)).sum(axis=1)
    d /= colsum[:, None, :]
    return d, ll


def _batch_m_step(x, resp):
    """Weights, mean directions and concentrations from (restarts, M, n) responsibilities."""
    wsum = resp.sum(axis=2)
    cs = resp @ x.T
    c, s = cs[:, :, 0], cs[:, :, 1]
    mus = np.arctan2(s, c) % TWO_PI
    rbar = np.minimum(np.hypot(c, s) / np.maximum(wsum, 1e-300), 1.0)
    kappas = inverse_mean_resultant_ratio(rbar.ravel()).reshape(rbar.shape)
    # Guard against components that lost all support this iteration.
    alpha = np.maximum(wsum / x.shape[1], 1e-300)
    return alpha / alpha.sum(axis=1, keepdims=True), mus, kappas


def _finalize(
    mix: VonMisesMixture,
    ll: float,
    converged: bool,
    n_iter: int,
    trace: tuple[float, ...],
    n: int,
) -> MixtureFit:
    valid, reason = _validity(mix, n)
    return MixtureFit(
        mixture=mix,
        log_likelihood=ll,
        M=mix.m,
        converged=converged,
        aic=aic_value(ll, mix.m),
        valid=valid,
        invalid_reason=reason,
        n_iter=n_iter,
        ll_trace=trace,
    )


def _validity(mix: VonMisesMixture, n: int) -> tuple[bool, str | None]:
    """Degeneracy rules: vanished weights, or a saturated near-empty component."""
    floor = 1.0 / (10.0 * n)
    if np.any(mix.weights < floor):
        return False, f"component weight below 1/(10n) = {floor:.3g}"
    members = mix.weights * n
    for k, eff in zip(mix.kappas, members):
        if is_saturated(k) and eff < 2.0:
            return False, "saturated concentration with fewer than 2 effective members"
    return True, None
