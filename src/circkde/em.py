"""Maximum-likelihood von Mises mixtures: EM fitting and AIC selection.

Each EM iteration is one sweep over blocks of about ``_CHUNK_CELLS`` /
(restarts M) observations (``_sweep``). One matmul of each component's
(kappa cos mu, kappa sin mu, log-normalizer) with the block's
(cos theta, sin theta, 1) gives every log density. Their exponentials,
taken without a shift since no log density exceeds about 4.9, and their
column sums give the log-likelihood, and one batched product gives each
component's sums of r cos theta, r sin theta and r, r the
responsibility. The M-step needs only those sums, so no (restarts, M, n)
array is formed and memory does not grow with n. The restarts of one fit
advance in lockstep, so one iteration is a fixed, small number of numpy
calls on (restarts, M) arrays and one block. ``select_reference_mixtures``
runs that lockstep over several samples of one size at once, with
samples x restarts rows, each row sweeping its own sample; every row
acts alone, so a sample's fit is bit for bit the same alone or in such
a chunk. Initialization is a seeded farthest-point sweep over the data,
all restarts at once, so every fit is reproducible from an integer seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .bessel import inverse_mean_resultant_ratio, is_saturated
from .kde import _CHUNK_CELLS
from .models import TWO_PI, VonMises, VonMisesMixture, _as_sample, curvature_integral, wrap_angle
from .rng import make_rng

DEFAULT_CANDIDATE_MS: tuple[int, ...] = (2, 3, 4, 5)

_LOG_TWO_PI = math.log(TWO_PI)

# A sweep column whose density sum is below this is redone shifted: its
# subnormal terms would otherwise cost digits (see _sweep).
_SUM_FLOOR = 1e-290


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM selection run; defaults follow common practice."""

    max_iter: int = 200
    rel_tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not 0 < self.rel_tol < math.inf:  # also catches NaN
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if not isinstance(self.n_restarts, (int, np.integer)) or self.n_restarts < 1:
            raise ValueError(f"n_restarts must be an integer >= 1, got {self.n_restarts!r}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


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


def fit_single_von_mises(sample) -> VonMises:
    """MLE of a single von Mises: mean direction and A^{-1} of the resultant."""
    arr = _as_sample(sample)
    c = np.cos(arr).sum()
    s = np.sin(arr).sum()
    mu = wrap_angle(math.atan2(s, c))
    rbar = min(math.hypot(c, s) / arr.size, 1.0)
    if rbar < 1e-12:  # resultant below summation noise: exact symmetry
        rbar = 0.0
    return VonMises(mu=mu, kappa=inverse_mean_resultant_ratio(rbar))


def log_likelihood(sample, mixture: VonMisesMixture) -> float:
    # The sweep takes (restarts, M) parameters; this is one restart.
    params = (mixture.weights[None, :], mixture.mus[None, :], mixture.kappas[None, :])
    ll, _ = _sweep(_unit_vectors(sample), *params, max(1, _CHUNK_CELLS // mixture.m))
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

    return _em_fits(arr[None, :], M, cfg, (cfg.seed,))[0]


@dataclass(frozen=True)
class MixtureSelection:
    """Outcome of AIC selection over candidate component counts.

    ``best`` is None when no candidate produced a valid fit (the
    no-valid-fit marker that triggers the rule-of-thumb fallback
    downstream). ``convergence`` maps each fitted candidate M to its best
    restart's ``(n_iter, converged)``, so fits stopped at ``max_iter`` stay
    visible.
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

    Candidates are dropped when the sample is too small or the EM fit is
    degenerate. A valid fit's curvature is finite: |c_m| <= 1 and
    m < K <= 2,799 bound it by sum m^4, about 3.5e16. A non-integer M raises TypeError.
    """
    arr = _as_sample(sample)
    cfg = cfg or EmConfig()
    candidates = sorted(set(operator.index(m) for m in candidate_Ms))
    if not candidates:
        raise ValueError("candidate_Ms must be non-empty")
    return _choose(candidates, {m: em_fit(arr, m, cfg) for m in candidates if arr.size >= 3 * m})


def select_reference_mixtures(samples, seeds, cfg: EmConfig | None = None) -> list[MixtureSelection]:
    """:func:`select_reference_mixture` of each of several samples of one size, over the default candidates.

    Sample i is fitted with EM seed ``seeds[i]`` in place of ``cfg.seed``.
    Each candidate M is fitted for every sample in one lockstep
    (:func:`_run_em_restarts`), and every selection is bit for bit the one
    ``select_reference_mixture`` gives the sample alone.
    """
    arrs = np.stack([_as_sample(s) for s in samples])
    cfg = cfg or EmConfig()
    n = arrs.shape[1]
    fits = {m: _em_fits(arrs, m, cfg, seeds) for m in DEFAULT_CANDIDATE_MS if n >= 3 * m}
    return [_choose(DEFAULT_CANDIDATE_MS, {m: f[i] for m, f in fits.items()}) for i in range(len(arrs))]


# -- internals -------------------------------------------------------------


def _choose(candidates, fits: dict[int, MixtureFit]) -> MixtureSelection:
    """The minimum-AIC valid fit among ``fits``, and its curvature.

    A candidate M without a fit was too large for the sample.
    """
    aic_table: dict[int, float] = {}
    rejected: dict[int, str] = {}
    convergence: dict[int, tuple[int, bool]] = {}
    eligible: list[MixtureFit] = []
    for m in candidates:
        fit = fits.get(m)
        if fit is None:
            rejected[m] = f"sample too small for M={m}"
            continue
        aic_table[m] = fit.aic
        convergence[m] = (fit.n_iter, fit.converged)
        if not fit.valid:
            rejected[m] = fit.invalid_reason or "degenerate fit"
            continue
        eligible.append(fit)

    if not eligible:
        return MixtureSelection(None, None, aic_table, rejected, convergence)
    fit = min(eligible, key=lambda f: (f.aic, f.M))
    return MixtureSelection(fit, curvature_integral(fit.mixture), aic_table, rejected, convergence)


def _em_fits(arrs: np.ndarray, M: int, cfg: EmConfig, seeds) -> list[MixtureFit]:
    """:func:`em_fit` of each row of the (samples, n) ``arrs`` for M >= 2, row i with EM seed ``seeds[i]``.

    All samples' restarts run in one lockstep; a single sample's unit
    vectors are passed on as one (3, n) array.
    """
    mus0 = [_initial_centers(arr, M, [make_rng(seed, M, r) for r in range(cfg.n_restarts)])
            for arr, seed in zip(arrs, seeds, strict=True)]
    x = _unit_vectors(arrs[0]) if len(arrs) == 1 else np.stack([_unit_vectors(arr) for arr in arrs])
    return _run_em_restarts(x, np.concatenate(mus0), cfg)


def _unit_vectors(sample) -> np.ndarray:
    """(cos theta, sin theta, 1) of each observation as a (3, n) matrix.

    The row of ones carries each component's log-normalizer through the
    sweep's matmul, so no separate pass over (restarts, M, n) adds it, and
    gives the sweep its sum of responsibilities.
    """
    arr = _as_sample(sample)
    return np.stack((np.cos(arr), np.sin(arr), np.ones_like(arr)))


def _initial_centers(arr: np.ndarray, M: int, rngs) -> np.ndarray:
    """Farthest-point sweeps, each from a seeded random start: one row of M centres per generator.

    The rows run together on (rows, n) distance arrays; each does the
    arithmetic of its own sweep, so it does not depend on the others.
    """
    idx = np.empty((len(rngs), M), dtype=np.intp)
    idx[:, 0] = [g.integers(arr.size) for g in rngs]
    d = _circ_dist(arr, arr[idx[:, :1]])
    for j in range(1, M):
        idx[:, j] = np.argmax(d, axis=1)
        if j + 1 < M:
            np.minimum(d, _circ_dist(arr, arr[idx[:, j : j + 1]]), out=d)
    return arr[idx]


def _circ_dist(a: np.ndarray, b) -> np.ndarray:
    diff = np.subtract(a, b)
    np.mod(diff, TWO_PI, out=diff)
    np.abs(diff, out=diff)
    return np.minimum(diff, TWO_PI - diff, out=diff)


def _run_em_restarts(x: np.ndarray, mus0: np.ndarray, cfg: EmConfig) -> list[MixtureFit]:
    """Every restart of one or several samples of one size, advanced in lockstep.

    ``x`` is one sample's (3, n) unit vectors (:func:`_unit_vectors`) or
    several samples' (samples, 3, n); ``mus0`` holds each sample's rows of
    initial centres in turn, the same number for each. Working parameter
    tensors have shape (running rows, M); each iteration is one
    :func:`_sweep` and one :func:`_m_step`. When a row's relative
    log-likelihood change drops below tolerance, its parameters, iteration
    count and convergence flag are written to the output arrays once and
    the row leaves the working arrays, so no step is spent on it
    afterwards; with several samples, the running rows' unit vectors are
    gathered again then. Each step acts on every row alone, and the sweep's
    block length depends on n, M and ``cfg.n_restarts`` only, so each
    restart, and each sample's best-of-restarts fit, is bit for bit what it
    is run alone. Returns one fit per sample.
    """
    n = x.shape[-1]
    nr, m = mus0.shape
    per = nr if x.ndim == 2 else nr // x.shape[0]  # rows per sample

    def unit_vectors(rows):
        return x if x.ndim == 2 else x[rows // per]

    block = max(1, _CHUNK_CELLS // (cfg.n_restarts * m))
    buf = _sweep_buffer(nr, m, min(block, n))  # reused by every sweep of this fit
    alpha = np.full((nr, m), 1.0 / m)
    mus = mus0.copy()
    kappas = np.ones((nr, m))
    final = np.empty((3, nr, m))  # alpha, mus, kappas as each row stopped
    n_iters = np.full(nr, cfg.max_iter)
    converged = np.zeros(nr, dtype=bool)
    run = np.arange(nr)  # the restart behind each working row
    xr = unit_vectors(run)
    # Row it - 1 holds iteration it's log-likelihoods; restart r runs
    # iterations 1..n_iters[r], so its trace is a prefix of its column.
    ll_hist = np.empty((cfg.max_iter, nr))
    for it in range(1, cfg.max_iter + 1):
        ll, sums = _sweep(xr, alpha, mus, kappas, block, buf)
        alpha, mus, kappas = _m_step(sums, n)
        ll_hist[it - 1, run] = ll
        if it > 1:
            change = ll - ll_prev
            done = np.abs(change, out=change) <= tol
            if done.any():
                stop = run[done]
                final[:, stop] = alpha[done], mus[done], kappas[done]
                n_iters[stop] = it
                converged[stop] = True
                keep = ~done
                run, alpha, mus, kappas, ll = run[keep], alpha[keep], mus[keep], kappas[keep], ll[keep]
                if not run.size:
                    break
                xr = unit_vectors(run)
        # The next iteration's stop threshold, rel_tol * max(|ll_prev|, 1).
        ll_prev = ll
        tol = np.abs(ll)
        np.maximum(tol, 1.0, out=tol)
        tol *= cfg.rel_tol
    final[:, run] = alpha, mus, kappas  # restarts that reached max_iter
    alpha, mus, kappas = final
    del xr  # the final sweep gathers every row again
    ll_final, _ = _sweep(unit_vectors(np.arange(nr)), alpha, mus, kappas, block, buf)
    fits = []
    for lo in range(0, nr, per):
        best = lo + int(np.argmax(ll_final[lo : lo + per]))
        trace = tuple(ll_hist[: n_iters[best], best].tolist()) + (float(ll_final[best]),)
        # Restarts can reach one optimum with permuted labels; sorting by mean
        # direction makes the reported order independent of which one won.
        order = np.argsort(wrap_angle(mus[best]), kind="stable")
        mix = VonMisesMixture(alpha[best, order], mus[best, order], kappas[best, order])
        fits.append(_finalize(
            mix,
            float(ll_final[best]),
            converged=bool(converged[best]),
            n_iter=int(n_iters[best]),
            trace=trace,
            n=n,
        ))
    return fits


def _sweep_buffer(restarts: int, m: int, block: int) -> np.ndarray:
    """Scratch for :func:`_sweep`: one block's densities and scaled unit vectors."""
    return np.empty(restarts * (m + 3) * block)


def _sweep(x, alpha, mus, kappas, block, buf=None):
    """Log-likelihood and per-component sums of each restart, ``block`` observations at a time.

    Returns ``ll`` of shape (restarts,) and ``sums`` of shape (restarts, 3, M)
    holding sum r cos theta, sum r sin theta and sum r for the
    responsibilities r. Each component's weights (kappa cos mu, kappa sin mu,
    log-normalizer log alpha - log 2 pi - log i0e(kappa) - kappa) meet the
    (3, n) ``x`` of :func:`_unit_vectors` in one matmul, which gives every
    log density. Their ``exp`` D and its column sums s give the
    log-likelihood sum log s, and one batched product of (cos theta,
    sin theta, 1) / s with D gives all three sums, so the normalized
    responsibilities are never formed. A log density is at most
    log alpha - log(2 pi i0e(kappa)) <= 4.9 at ``KAPPA_CAP``, so ``exp`` cannot
    overflow and no column needs its maximum subtracted. A column whose sum
    is below ``_SUM_FLOOR`` would lose digits to underflow; only such
    columns are recomputed shifted by their largest log density. ``buf``
    (from :func:`_sweep_buffer`, by default a new one) holds one block, so
    memory does not grow with n.
    """
    nr, m = kappas.shape
    if buf is None:
        buf = _sweep_buffer(nr, m, min(block, x.shape[-1]))
    w = np.empty((3, nr, m))
    np.multiply(kappas, np.cos(mus), out=w[0])
    np.multiply(kappas, np.sin(mus), out=w[1])
    lognorm = np.log(alpha, out=w[2])
    lognorm -= _LOG_TWO_PI
    lognorm -= np.log(i0e(kappas))
    lognorm -= kappas
    w = w.transpose(1, 2, 0)
    ll = np.zeros(nr)
    sums = np.zeros((nr, 3, m))
    for lo in range(0, x.shape[-1], block):
        xb = x[..., lo : lo + block]
        cells = nr * m * xb.shape[-1]
        d = np.matmul(w, xb, out=buf[:cells].reshape(nr, m, -1))
        np.exp(d, out=d)
        s = np.add.reduce(d, axis=1)
        if np.minimum.reduce(s, axis=None) < _SUM_FLOOR:
            logs = _shift_low_columns(w, xb, d, s)
        else:
            logs = np.log(s)
        ll += np.add.reduce(logs, axis=1)
        y = np.divide(xb, s[:, None, :], out=buf[cells : cells + s.size * 3].reshape(nr, 3, -1))
        sums += y @ d.transpose(0, 2, 1)
    return ll, sums


def _shift_low_columns(w, xb, d, s):
    """log s, after the columns of ``d`` and ``s`` whose sum is below ``_SUM_FLOOR`` are redone.

    Those columns take exp(log density - its column maximum), in place; the
    others are recomputed unshifted, so their bits do not change.
    """
    np.matmul(w, xb, out=d)
    shift = np.maximum.reduce(d, axis=1)
    shift[s >= _SUM_FLOOR] = 0.0
    d -= shift[:, None, :]
    np.exp(d, out=d)
    np.add.reduce(d, axis=1, out=s)
    logs = np.log(s)
    logs += shift
    return logs


def _m_step(sums, n):
    """Weights, mean directions and concentrations from :func:`_sweep`'s sums."""
    c, s, wsum = sums.transpose(1, 0, 2)
    mus = np.arctan2(s, c)
    mus %= TWO_PI
    rbar = np.hypot(c, s)
    rbar /= np.maximum(wsum, 1e-300)
    kappas = inverse_mean_resultant_ratio(np.minimum(rbar, 1.0, out=rbar))
    # Guard against components that lost all support this iteration.
    alpha = np.maximum(wsum / n, 1e-300)
    alpha /= np.add.reduce(alpha, axis=1, keepdims=True)
    return alpha, mus, kappas


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
