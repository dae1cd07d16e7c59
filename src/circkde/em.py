"""Maximum-likelihood von Mises mixtures: EM fitting and AIC selection.

Each EM iteration is one sweep over blocks of about ``_CHUNK_CELLS`` /
(restarts M) observations (``_sweep_rows``). One matmul of each component's
(kappa cos mu, kappa sin mu, log-normalizer) with the block's
(cos theta, sin theta, 1) gives every log density. Their exponentials,
taken without a shift since no log density exceeds about 4.9, and their
column sums give the log-likelihood, and one batched product gives each
component's sums of r cos theta, r sin theta and r, r the
responsibility. The M-step needs only those sums, so no (restarts, M, n)
array is formed and memory does not grow with n. The restarts of one fit
advance in lockstep (``_run_em_restarts``), so one iteration is a fixed,
small number of numpy calls on the restarts' parameters and one block.
AIC selection has one candidate rule: ``select_reference_mixture`` and
``select_reference_mixtures`` fit each M of ``DEFAULT_CANDIDATE_MS`` with
n >= 3M and choose by ``_choose``. ``select_reference_mixtures`` runs the
lockstep over several samples of one size and every candidate M at once,
with samples x restarts rows per M, each row sweeping its own sample.
The von Mises weights, the M-step and the stop test take every M's rows
in one call each; each M keeps its own sweep kernels and block length,
so every row acts alone, and a sample's fit is bit for bit the same
alone or in such a chunk.
Initialization is a seeded farthest-point sweep over the data, all
restarts at once, so every fit is reproducible from an integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .bessel import inverse_mean_resultant_ratio, is_saturated
from .kde import _CHUNK_CELLS
from .models import TWO_PI, VonMises, VonMisesMixture, _as_sample, curvature_integral, wrap_angle
from .rng import make_rng

DEFAULT_CANDIDATE_MS: tuple[int, ...] = (2, 3, 4, 5)

_LOG_TWO_PI = math.log(TWO_PI)

# One lockstep over several samples holds at most this many rows x n
# cells (see _em_fit_groups); study chunks are sized so that one M's rows
# fit (simulate._chunk_size).
_LOCKSTEP_CELLS = 1 << 18

# A sweep column whose density sum is below this is redone shifted: its
# subnormal terms would otherwise cost digits (see _sweep_rows).
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

    return _em_fit_groups(arr[None, :], (M,), cfg, (cfg.seed,))[M][0]


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


def select_reference_mixture(sample, cfg: EmConfig | None = None) -> MixtureSelection:
    """Fit each M of ``DEFAULT_CANDIDATE_MS`` that the sample allows and keep the minimum-AIC valid fit.

    An M needs n >= 3M observations; a larger one, or a degenerate EM fit,
    is rejected. A valid fit's curvature is finite: |c_m| <= 1 and
    m < K <= 2,799 bound it by sum m^4, about 3.5e16.
    """
    arr = _as_sample(sample)
    cfg = cfg or EmConfig()
    return _choose({m: em_fit(arr, m, cfg) for m in DEFAULT_CANDIDATE_MS if arr.size >= 3 * m})


def select_reference_mixtures(samples, seeds, cfg: EmConfig | None = None) -> list[MixtureSelection]:
    """:func:`select_reference_mixture` of each of several samples of one size.

    Sample i is fitted with EM seed ``seeds[i]`` in place of ``cfg.seed``.
    Every candidate M is fitted for every sample in one lockstep loop
    (:func:`_run_em_restarts`), split only where the rows x n of all
    candidates would pass ``_LOCKSTEP_CELLS``. Each M keeps its own sweep
    kernels and block length, so every selection is bit for bit the one
    ``select_reference_mixture`` gives the sample alone.
    """
    arrs = np.stack([_as_sample(s) for s in samples])
    cfg = cfg or EmConfig()
    n = arrs.shape[1]
    fits = _em_fit_groups(arrs, [m for m in DEFAULT_CANDIDATE_MS if n >= 3 * m], cfg, seeds)
    return [_choose({m: f[i] for m, f in fits.items()}) for i in range(len(arrs))]


# -- internals -------------------------------------------------------------


def _choose(fits: dict[int, MixtureFit]) -> MixtureSelection:
    """The minimum-AIC valid fit among ``fits``, and its curvature.

    A candidate M of ``DEFAULT_CANDIDATE_MS`` without a fit was too large
    for the sample.
    """
    aic_table: dict[int, float] = {}
    rejected: dict[int, str] = {}
    convergence: dict[int, tuple[int, bool]] = {}
    eligible: list[MixtureFit] = []
    for m in DEFAULT_CANDIDATE_MS:
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


def _em_fit_groups(arrs: np.ndarray, Ms, cfg: EmConfig, seeds) -> dict[int, list[MixtureFit]]:
    """:func:`em_fit` of each (samples, n) ``arrs`` row for each M >= 2 of ``Ms``, row i with EM seed ``seeds[i]``.

    One lockstep loop takes as many M as keep all their rows x n within
    ``_LOCKSTEP_CELLS``, and at least one. Each of several samples' running
    rows holds its own gathered unit vectors; a single sample's are passed
    on as one (3, n) array, never gathered.
    """
    # The centres first: their (restarts, n) distance arrays are freed before the unit vectors exist.
    mus0 = [np.concatenate([_initial_centers(arr, m, [make_rng(seed, m, r) for r in range(cfg.n_restarts)])
                            for arr, seed in zip(arrs, seeds, strict=True)]) for m in Ms]
    x = _unit_vectors(arrs[0]) if len(arrs) == 1 else np.stack([_unit_vectors(arr) for arr in arrs])
    size = max(1, _LOCKSTEP_CELLS // (arrs.size * cfg.n_restarts))
    fits = {}
    for lo in range(0, len(Ms), size):
        fits.update(zip(Ms[lo : lo + size], _run_em_restarts(x, mus0[lo : lo + size], cfg)))
    return fits


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


def _run_em_restarts(x: np.ndarray, mus0s, cfg: EmConfig) -> list[list[MixtureFit]]:
    """Every restart of one or several samples of one size, for one or several M, advanced in lockstep.

    ``x`` is one sample's (3, n) unit vectors (:func:`_unit_vectors`) or
    several samples' (samples, 3, n). Each (rows, M) array of ``mus0s`` is
    one group: an M's rows of initial centres, each sample's in turn, the
    same number for each. The working parameters are flat, one entry per
    (running row, component), group after group and row after row, so a
    group's entries form a contiguous (rows, M) slab. Each iteration
    takes the von Mises weights (:func:`_weights`) of every entry at once,
    then each group's sweep (:func:`_sweep_rows`, with its own block
    length and kernels), then one :func:`_m_step` of every entry. When a
    row's relative log-likelihood change drops below tolerance, its
    parameters, iteration count and convergence flag are written to the
    output arrays once and the row leaves the working arrays, so no step
    is spent on it afterwards; with several samples, its group's running
    rows' unit vectors are gathered again then. Each step acts on every
    row alone, and a group's block length depends on n, its M and
    ``cfg.n_restarts`` only, so each restart, and each sample's
    best-of-restarts fit, is bit for bit what it is run alone. Returns one
    list per group, of one fit per sample.
    """
    n = x.shape[-1]
    ms = np.array([m0.shape[1] for m0 in mus0s])
    nrs = np.array([m0.shape[0] for m0 in mus0s])
    pers = nrs if x.ndim == 2 else nrs // x.shape[0]  # rows per sample
    blocks = [max(1, _CHUNK_CELLS // (cfg.n_restarts * m)) for m in ms.tolist()]
    # One scratch for every group's sweep (see _sweep_rows), reused by each iteration.
    buf = np.empty(max(nr * (m + 3) * min(b, n) for nr, m, b in zip(nrs.tolist(), ms.tolist(), blocks)))
    row_group = np.repeat(np.arange(ms.size), nrs)  # the group of each restart
    row_sample = np.concatenate([np.arange(nr) // per for nr, per in zip(nrs, pers)])
    first = np.concatenate(([0], np.cumsum(ms[row_group])))  # each restart's first entry
    nr, ne = row_group.size, int(first[-1])
    mus = np.concatenate([m0.ravel() for m0 in mus0s])
    alpha = np.repeat(1.0 / ms, ms * nrs)
    kappas = np.ones(ne)
    final = np.empty((3, ne))  # alpha, mus, kappas as each row stopped
    n_iters = np.full(nr, cfg.max_iter)
    converged = np.zeros(nr, dtype=bool)
    run = np.arange(nr)  # the restart behind each working row
    ent = np.arange(ne)  # the entry of final behind each working entry

    def unit_vectors(rows):
        return x if x.ndim == 2 else x[row_sample[rows]]

    def slabs_of(counts):
        """(group, rows, entries, M) of each group with running rows, its rows and entries as slices."""
        out, lo, elo = [], 0, 0
        for g, (count, m) in enumerate(zip(counts.tolist(), ms.tolist())):
            if count:
                out.append((g, slice(lo, lo + count), slice(elo, elo + count * m), m))
                lo, elo = lo + count, elo + count * m
        return out

    def sweeps(alpha, mus, kappas, slabs, xrs):
        """Every group's log-likelihoods and (3, entries) sums."""
        w = _weights(alpha, mus, kappas)
        ll = np.zeros(slabs[-1][1].stop)
        sums = np.zeros(w.shape)
        for g, rows, ents, m in slabs:
            _sweep_rows(xrs[g], w[:, ents].reshape(3, -1, m), blocks[g], buf, ll[rows], sums[:, ents].reshape(3, -1, m))
        return ll, sums

    counts = nrs.copy()  # each group's running rows
    live = every = slabs_of(counts)
    group_rows = np.split(run, np.cumsum(nrs)[:-1])
    xrs = [unit_vectors(rows) for rows in group_rows]
    # Row it - 1 holds iteration it's log-likelihoods; restart r runs
    # iterations 1..n_iters[r], so its trace is a prefix of its column.
    ll_hist = np.empty((cfg.max_iter, nr))
    for it in range(1, cfg.max_iter + 1):
        ll, sums = sweeps(alpha, mus, kappas, live, xrs)
        alpha, mus, kappas = _m_step(sums, n, [(ents, m) for _, _, ents, m in live])
        ll_hist[it - 1, run] = ll
        if it > 1:
            change = ll - ll_prev
            done = np.abs(change, out=change) <= tol
            if done.any():
                stop = run[done]
                done_ent = np.repeat(done, ms[row_group[run]])
                final[:, ent[done_ent]] = alpha[done_ent], mus[done_ent], kappas[done_ent]
                n_iters[stop] = it
                converged[stop] = True
                keep, keep_ent = ~done, ~done_ent
                run, ll = run[keep], ll[keep]
                ent, alpha, mus, kappas = ent[keep_ent], alpha[keep_ent], mus[keep_ent], kappas[keep_ent]
                if not run.size:
                    break
                lost = np.bincount(row_group[stop], minlength=ms.size)
                counts -= lost
                live = slabs_of(counts)
                for g in np.flatnonzero(lost).tolist():
                    xrs[g] = unit_vectors(run[row_group[run] == g])
        # The next iteration's stop threshold, rel_tol * max(|ll_prev|, 1).
        ll_prev = ll
        tol = np.abs(ll)
        np.maximum(tol, 1.0, out=tol)
        tol *= cfg.rel_tol
    final[:, ent] = alpha, mus, kappas  # restarts that reached max_iter
    del xrs  # the final sweep gathers every row again
    ll_final, _ = sweeps(*final, every, [unit_vectors(rows) for rows in group_rows])
    out = []
    for rows, per in zip(group_rows, pers.tolist()):
        fits = []
        for lo in range(rows[0], rows[-1] + 1, per):
            best = lo + int(np.argmax(ll_final[lo : lo + per]))
            alpha, mus, kappas = final[:, first[best] : first[best + 1]]
            trace = tuple(ll_hist[: n_iters[best], best].tolist()) + (float(ll_final[best]),)
            # Restarts can reach one optimum with permuted labels; sorting by mean
            # direction makes the reported order independent of which one won.
            order = np.argsort(wrap_angle(mus), kind="stable")
            fits.append(_finalize(
                VonMisesMixture(alpha[order], mus[order], kappas[order]),
                float(ll_final[best]),
                converged=bool(converged[best]),
                n_iter=int(n_iters[best]),
                trace=trace,
                n=n,
            ))
        out.append(fits)
    return out


def _weights(alpha, mus, kappas) -> np.ndarray:
    """Each component's (kappa cos mu, kappa sin mu, log-normalizer), stacked on a new first axis.

    The log-normalizer is log alpha - log 2 pi - log i0e(kappa) - kappa.
    Every entry is computed alone, so its bits do not depend on the shape
    or the other entries.
    """
    w = np.empty((3,) + np.shape(kappas))
    np.multiply(kappas, np.cos(mus), out=w[0])
    np.multiply(kappas, np.sin(mus), out=w[1])
    lognorm = np.log(alpha, out=w[2])
    lognorm -= _LOG_TWO_PI
    lognorm -= np.log(i0e(kappas))
    lognorm -= kappas
    return w


def _sweep(x, alpha, mus, kappas, block):
    """Log-likelihood and per-component sums of each restart, ``block`` observations at a time.

    Returns ``ll`` of shape (restarts,) and ``sums`` of shape (restarts, 3, M)
    holding sum r cos theta, sum r sin theta and sum r for the
    responsibilities r: :func:`_sweep_rows` with the parameters'
    :func:`_weights`, on a scratch of one block, so memory does not grow
    with n.
    """
    nr, m = kappas.shape
    ll = np.zeros(nr)
    sums = np.zeros((3, nr, m))
    buf = np.empty(nr * (m + 3) * min(block, x.shape[-1]))
    _sweep_rows(x, _weights(alpha, mus, kappas), block, buf, ll, sums)
    return ll, sums.transpose(1, 0, 2)


def _sweep_rows(x, w, block, buf, ll, sums):
    """Add each row's log-likelihood to ``ll`` and its component sums to the (3, rows, M) ``sums``.

    The (3, rows, M) weights ``w`` (:func:`_weights`) meet the (3, n)
    ``x`` of :func:`_unit_vectors`, or each row's own (rows, 3, n), in one
    matmul per block, which gives every log density. Their ``exp`` D and
    its column sums s give the log-likelihood sum log s, and one batched
    product of (cos theta, sin theta, 1) / s with D gives all three sums,
    so the normalized responsibilities are never formed. A log density is
    at most log alpha - log(2 pi i0e(kappa)) <= 4.9 at ``KAPPA_CAP``, so
    ``exp`` cannot overflow and no column needs its maximum subtracted. A
    column whose sum is below ``_SUM_FLOOR`` would lose digits to
    underflow; only such columns are recomputed shifted by their largest
    log density. ``buf`` holds the block's densities and scaled unit
    vectors, rows (M + 3) min(block, n) floats.
    """
    _, nr, m = w.shape
    w = w.transpose(1, 2, 0)
    sums = sums.transpose(1, 0, 2)
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


def _m_step(sums, n, slabs):
    """Weights, mean directions and concentrations from the (3, entries) sums of :func:`_run_em_restarts`.

    Every step but the weights' normalization acts on each entry alone;
    that one sums each (entries, M) slab's (rows, M) weights over each row.
    """
    c, s, wsum = sums
    mus = np.arctan2(s, c)
    mus %= TWO_PI
    rbar = np.hypot(c, s)
    rbar /= np.maximum(wsum, 1e-300)
    kappas = inverse_mean_resultant_ratio(np.minimum(rbar, 1.0, out=rbar))
    # Guard against components that lost all support this iteration.
    alpha = np.maximum(wsum / n, 1e-300)
    for ents, m in slabs:
        slab = alpha[ents].reshape(-1, m)
        slab /= np.add.reduce(slab, axis=1, keepdims=True)
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
