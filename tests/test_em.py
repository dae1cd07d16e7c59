import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import i0e, logsumexp

from conftest import TWO_PI, circular_distance

from circkde import em, simulate
from circkde.bessel import KAPPA_CAP, is_saturated, mean_resultant_ratio
from circkde.catalogue import get_model
from circkde.em import (
    EmConfig,
    _initial_centers,
    _run_em_restarts,
    _sweep,
    _unit_vectors,
    aic_value,
    em_fit,
    fit_single_von_mises,
    log_likelihood,
    select_reference_mixture,
    select_reference_mixtures,
)
from circkde.models import VonMisesMixture, curvature_integral, wrap_angle
from circkde.rng import make_rng
from circkde.simulate import SMOKE_MODELS


@pytest.fixture(scope="module")
def m7_500():
    return get_model("M7").sample(500, make_rng(42, 7, 500))


@pytest.fixture(scope="module")
def m2_500():
    return get_model("M2").sample(500, make_rng(42, 2, 500))


def reference_em(x, mus0, cfg: EmConfig):
    """Textbook EM, one component at a time, with A^{-1} by Brent's method.

    Same start (unit weights, unit concentrations, the given centres) and
    the same stopping rule as ``em_fit``; returns (log-likelihood, n_iter,
    converged) for the final parameters.
    """
    m = len(mus0)
    alpha, mus, kappas = [1.0 / m] * m, list(mus0), [1.0] * m
    a_cap = mean_resultant_ratio(KAPPA_CAP)

    def log_dens():
        return np.array(
            [
                math.log(alpha[j]) + kappas[j] * (np.cos(x - mus[j]) - 1.0)
                - math.log(TWO_PI * i0e(kappas[j]))
                for j in range(m)
            ]
        )

    def a_inverse(rbar):
        if rbar <= 0.0:
            return 0.0
        if rbar >= a_cap:
            return KAPPA_CAP
        return brentq(
            lambda k: mean_resultant_ratio(k) - rbar, 1e-12, KAPPA_CAP, xtol=1e-14, rtol=1e-15
        )

    ll_prev, converged = -math.inf, False
    for it in range(1, cfg.max_iter + 1):
        logd = log_dens()
        lse = logsumexp(logd, axis=0)
        ll = float(lse.sum())
        for j in range(m):
            resp = np.exp(logd[j] - lse)
            w = resp.sum()
            c, s = (resp * np.cos(x)).sum(), (resp * np.sin(x)).sum()
            alpha[j] = w / x.size
            mus[j] = math.atan2(s, c) % TWO_PI
            kappas[j] = a_inverse(min(math.hypot(c, s) / w, 1.0))
        if it > 1 and abs(ll - ll_prev) <= cfg.rel_tol * max(abs(ll_prev), 1.0):
            converged = True
            break
        ll_prev = ll
    return float(logsumexp(log_dens(), axis=0).sum()), it, converged


def tied_chunk():
    """Four samples of n = 1,401: two tied clusters of 700 at 0 and pi with one point at pi / 2, then M20, M7, M5."""
    tied = np.concatenate([np.zeros(700), np.full(700, math.pi), [math.pi / 2]])
    return [tied] + [get_model(m).sample(1401, make_rng(4, i)) for i, m in enumerate(["M20", "M7", "M5"])]


def degenerate_sample():
    """A tight cluster plus one isolated point.

    Every mixture fit dedicates one saturated single-member component to
    the outlier, so no candidate M survives validity checks.
    """
    cluster = 0.05 + 0.0004 * np.arange(19)
    return np.concatenate([cluster, [math.pi]])


class TestSingleFit:
    def test_identical_observations_saturate(self):
        comp = fit_single_von_mises(np.full(10, 1.0))
        assert comp.kappa == KAPPA_CAP
        assert is_saturated(comp.kappa)
        assert comp.mu == pytest.approx(1.0, abs=1e-12)

    def test_perfect_symmetry_gives_zero(self):
        comp = fit_single_von_mises(np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]))
        assert comp.kappa == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_single_von_mises(np.array([]))

    def test_consistency(self):
        from circkde.models import VonMises

        draws = VonMises(mu=2.0, kappa=5.0).sample(10_000, make_rng(9))
        comp = fit_single_von_mises(draws)
        assert circular_distance(comp.mu, 2.0) < 0.05
        assert comp.kappa == pytest.approx(5.0, rel=0.05)


class TestEmFit:
    def test_m1_reduces_to_single(self, m7_500):
        single = fit_single_von_mises(m7_500)
        fit = em_fit(m7_500, 1, EmConfig(seed=0))
        mix = VonMisesMixture([1.0], [single.mu], [single.kappa])
        assert fit.log_likelihood == pytest.approx(log_likelihood(m7_500, mix), abs=1e-10)
        assert fit.mixture.mus[0] == single.mu
        assert fit.mixture.kappas[0] == single.kappa

    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_ascent(self, m7_500, M):
        fit = em_fit(m7_500, M, EmConfig(seed=1))
        trace = np.asarray(fit.ll_trace)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_parameter_recovery_m7(self):
        x = get_model("M7").sample(2000, make_rng(3, 7, 2000))
        fit = em_fit(x, 2, EmConfig(seed=2))
        mus = fit.mixture.mus
        # match components to the true centers circularly (up to relabeling)
        near_zero = int(np.argmin(circular_distance(mus, 0.0)))
        near_pi = 1 - near_zero
        assert circular_distance(mus[near_zero], 0.0) < 0.1
        assert circular_distance(mus[near_pi], math.pi) < 0.1
        assert np.all(np.abs(fit.mixture.weights - 0.5) < 0.05)
        assert np.all(np.abs(fit.mixture.kappas - 4.0) / 4.0 < 0.15)

    def test_permutation_invariance(self, m7_500):
        fit = em_fit(m7_500, 3, EmConfig(seed=4))
        mix = fit.mixture
        perm = [2, 0, 1]
        shuffled = VonMisesMixture(mix.weights[perm], mix.mus[perm], mix.kappas[perm])
        assert log_likelihood(m7_500, shuffled) == pytest.approx(fit.log_likelihood, abs=1e-9)
        assert aic_value(log_likelihood(m7_500, shuffled), 3) == pytest.approx(fit.aic, abs=1e-9)

    def test_rotation_equivariance(self, m7_500):
        phi = 1.1
        cfg = EmConfig(seed=6)
        a = em_fit(m7_500, 2, cfg)
        b = em_fit(wrap_angle(m7_500 + phi), 2, cfg)
        # match b's components to a's by circular proximity after unrotating
        unrot = wrap_angle(b.mixture.mus - phi)
        match = [int(np.argmin(circular_distance(unrot, mu))) for mu in a.mixture.mus]
        assert sorted(match) == [0, 1]
        np.testing.assert_allclose(a.mixture.weights, b.mixture.weights[match], atol=1e-6)
        np.testing.assert_allclose(a.mixture.kappas, b.mixture.kappas[match], rtol=1e-5)
        assert np.all(circular_distance(a.mixture.mus, unrot[match]) < 1e-6)

    @pytest.mark.parametrize("M", [2, 3, 5])
    def test_matches_reference_em(self, M):
        x = get_model("M7").sample(250, make_rng(21, 7, 250))
        cfg = EmConfig(n_restarts=1, seed=5)
        fit = em_fit(x, M, cfg)
        centers = _initial_centers(x, M, [make_rng(cfg.seed, M, 0)])[0]
        ll, n_iter, converged = reference_em(x, centers, cfg)
        assert (fit.n_iter, fit.converged) == (n_iter, converged)
        assert fit.log_likelihood == pytest.approx(ll, rel=1e-9)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            em_fit(np.linspace(0, 6, 5), 2, EmConfig(seed=0))

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_components_in_ascending_mean_direction(self, m7_500, M):
        fit = em_fit(m7_500, M, EmConfig(seed=3))
        mix = fit.mixture
        assert np.all(np.diff(mix.mus) >= 0)
        assert log_likelihood(m7_500, mix) == pytest.approx(fit.log_likelihood, rel=1e-12)
        # Relabelling moves nothing else: density and curvature are invariant.
        thetas = np.linspace(0.0, TWO_PI, 257)
        for perm in (np.arange(M)[::-1], np.roll(np.arange(M), 1)):
            other = VonMisesMixture(mix.weights[perm], mix.mus[perm], mix.kappas[perm])
            np.testing.assert_allclose(other.density(thetas), mix.density(thetas), rtol=1e-12)
            assert curvature_integral(other) == pytest.approx(curvature_integral(mix), rel=1e-12)

    def test_order_independent_of_winning_restart(self, m7_500):
        # Seeds 0 and 2 reach the same optimum from opposite labellings.
        fits = [em_fit(m7_500, 2, EmConfig(seed=seed)) for seed in range(6)]
        for fit in fits[1:]:
            np.testing.assert_allclose(fit.mixture.mus, fits[0].mixture.mus, atol=1e-3)


class TestRestarts:
    def test_each_restart_as_if_alone(self):
        # Eight restarts of one M = 4 fit: seven converge at iterations 34-39,
        # one stops at max_iter.
        x = get_model("M20").sample(250, make_rng(42, 20, 250))
        mus0 = _initial_centers(x, 4, [make_rng(0, 4, r) for r in range(8)])
        u, cfg = _unit_vectors(x), EmConfig(max_iter=60)
        alone = [_run_em_restarts(u, [mus0[[r]]], cfg)[0][0] for r in range(8)]
        assert len({f.n_iter for f in alone}) >= 5
        assert sorted(f.converged for f in alone) == [False] + [True] * 7
        lls = [f.log_likelihood for f in alone]
        assert len(set(lls)) == 8
        for r, solo in enumerate(alone):
            ll, n_iter, converged = reference_em(x, mus0[r], cfg)
            assert (solo.n_iter, solo.converged) == (n_iter, converged)
            assert solo.log_likelihood == pytest.approx(ll, rel=1e-9)
            # r wins a batch of itself and every restart it beats
            ((fit,),) = _run_em_restarts(u, [mus0[[q for q in range(8) if lls[q] <= lls[r]]]], cfg)
            for field in ("weights", "mus", "kappas"):
                np.testing.assert_array_equal(getattr(fit.mixture, field), getattr(solo.mixture, field))
            assert (fit.log_likelihood, fit.n_iter, fit.converged) == (solo.log_likelihood, solo.n_iter, solo.converged)
            assert fit.ll_trace == solo.ll_trace and len(fit.ll_trace) == solo.n_iter + 1

    def test_fit_alone_equals_fit_in_chunk(self, monkeypatch):
        """Each sample's M = 2 fit inside a chunk of four is, field for field, its fit alone.

        The first sample is two tied clusters of 700 at 0 and pi with one
        point at pi / 2: both components reach a concentration near 700,
        where that point's densities fall below 1e-304, so its sweeps take
        ``_shift_low_columns`` and, in the chunk, redo the other samples'
        columns unshifted. At ``max_iter`` = 25 the M5 sample's fit stops
        unconverged, and blocks of 500 observations make every sweep of
        the 1,401 observations a three-block sweep.
        """
        n, M, cfg = 1401, 2, EmConfig(max_iter=25)
        samples = tied_chunk()
        seeds = [11, 12, 13, 14]
        monkeypatch.setattr(em, "_CHUNK_CELLS", 500 * cfg.n_restarts * M)
        shifted = []
        real = em._shift_low_columns

        def spy(w, xb, d, s):
            shifted.append(d.shape[0])
            return real(w, xb, d, s)

        monkeypatch.setattr(em, "_shift_low_columns", spy)
        chunk = em._em_fit_groups(np.stack(samples), (M,), cfg, seeds)[M]
        assert shifted and max(shifted) == 4 * cfg.n_restarts  # every sample's rows in the shifted sweep
        assert [f.converged for f in chunk] == [True, True, True, False]
        assert chunk[3].n_iter == cfg.max_iter
        for sample, seed, fit in zip(samples, seeds, chunk):
            assert_same_fit(fit, em_fit(sample, M, replace(cfg, seed=seed)))

    def test_candidates_in_one_loop_equal_em_fit(self, monkeypatch):
        """Every M = 2..5 fit of a chunk of four, all in one loop, is, field for field, ``em_fit``'s.

        The tied sample of :meth:`test_fit_alone_equals_fit_in_chunk` makes
        the M = 2 group, and no other, take ``_shift_low_columns``. At
        ``max_iter`` = 25 most M >= 3 fits stop unconverged. Blocks of
        1,401 / (M / 2) observations sweep M = 2 in one block, M = 3 in two
        and M = 4, 5 in three.
        """
        n, cfg = 1401, EmConfig(max_iter=25)
        samples = tied_chunk()
        seeds = [11, 12, 13, 14]
        monkeypatch.setattr(em, "_CHUNK_CELLS", n * cfg.n_restarts * 2)
        loops, shifted = [], []
        real_run, real_shift = em._run_em_restarts, em._shift_low_columns

        def run_spy(x, mus0s, cfg):
            loops.append([m0.shape for m0 in mus0s])
            return real_run(x, mus0s, cfg)

        def shift_spy(w, xb, d, s):
            shifted.append(d.shape)
            return real_shift(w, xb, d, s)

        monkeypatch.setattr(em, "_run_em_restarts", run_spy)
        monkeypatch.setattr(em, "_shift_low_columns", shift_spy)
        fits = em._em_fit_groups(np.stack(samples), (2, 3, 4, 5), cfg, seeds)
        assert loops == [[(4 * cfg.n_restarts, m) for m in (2, 3, 4, 5)]]
        assert shifted and {shape[:2] for shape in shifted} == {(4 * cfg.n_restarts, 2)}
        assert {shape[2] for shape in shifted} == {n}
        assert [f.converged for f in fits[2]] == [True, True, True, False]
        assert sum(not f.converged for fs in fits.values() for f in fs) >= 8
        for m, fs in fits.items():
            for sample, seed, fit in zip(samples, seeds, fs, strict=True):
                assert_same_fit(fit, em_fit(sample, m, replace(cfg, seed=seed)))

    def test_candidates_of_a_small_sample_in_one_loop(self):
        """At n = 12 the chunk fits M = 2, 3, 4 in one loop, each equal to ``em_fit``, and rejects M = 5."""
        samples = [get_model(m).sample(12, make_rng(6, 12, i)) for i, m in enumerate(SMOKE_MODELS)]
        seeds = [200 + i for i in range(len(samples))]
        fits = em._em_fit_groups(np.stack(samples), (2, 3, 4), EmConfig(), seeds)
        for m, fs in fits.items():
            for sample, seed, fit in zip(samples, seeds, fs, strict=True):
                assert_same_fit(fit, em_fit(sample, m, EmConfig(seed=seed)))
        for sample, seed, sel in zip(samples, seeds, select_reference_mixtures(samples, seeds)):
            assert sel.rejected[5] == "sample too small for M=5" and set(sel.aic_table) == {2, 3, 4}
            alone = select_reference_mixture(sample, cfg=EmConfig(seed=seed))
            assert (sel.aic_table, sel.rejected, sel.convergence) == (alone.aic_table, alone.rejected, alone.convergence)

    @pytest.mark.parametrize("n", [5, 12])
    def test_one_sample_selection_equals_select_reference_mixture(self, n):
        """A chunk of one sample selects as ``select_reference_mixture``; at n = 5 it has no candidate M."""
        sample = get_model("M2").sample(n, make_rng(8, n))
        (sel,) = select_reference_mixtures([sample], [21])
        alone = select_reference_mixture(sample, cfg=EmConfig(seed=21))
        assert (sel.aic_table, sel.rejected, sel.convergence) == (alone.aic_table, alone.rejected, alone.convergence)
        assert sel.best_curvature == alone.best_curvature
        if n == 5:
            assert sel.best is None and not sel.aic_table and set(sel.rejected) == {2, 3, 4, 5}
        else:
            assert set(sel.aic_table) == {2, 3, 4}
            assert_same_fit(sel.best, alone.best)

    def test_loop_takes_the_candidates_that_fit_its_cells(self, monkeypatch):
        """Rows x n beyond ``_LOCKSTEP_CELLS`` split the candidates into loops; every fit is unchanged."""
        samples = np.stack([get_model(m).sample(100, make_rng(7, i)) for i, m in enumerate(SMOKE_MODELS)])
        seeds, cfg = range(6), EmConfig(max_iter=30)
        together = em._em_fit_groups(samples, (2, 3, 4, 5), cfg, seeds)
        loops = []
        real = em._run_em_restarts

        def spy(x, mus0s, cfg):
            loops.append([m0.shape[1] for m0 in mus0s])
            return real(x, mus0s, cfg)

        monkeypatch.setattr(em, "_run_em_restarts", spy)
        monkeypatch.setattr(em, "_LOCKSTEP_CELLS", 2 * samples.size * cfg.n_restarts + 1)
        split = em._em_fit_groups(samples, (2, 3, 4, 5), cfg, seeds)
        assert loops == [[2, 3], [4, 5]]
        for m in (2, 3, 4, 5):
            for a, b in zip(together[m], split[m], strict=True):
                assert_same_fit(a, b)

    @pytest.mark.parametrize("n", [20, 100])
    def test_selection_alone_equals_selection_in_chunk(self, n):
        """Every smoke model's sample and the degenerate sample, each candidate M fitted in one chunk."""
        samples = [get_model(m).sample(n, make_rng(6, n, i)) for i, m in enumerate(SMOKE_MODELS)]
        if n == 20:  # no valid fit: the fallback marker
            samples.append(degenerate_sample())
        seeds = [100 + i for i in range(len(samples))]
        chunk = select_reference_mixtures(samples, seeds)
        if n == 20:
            assert chunk[-1].best is None
        for sample, seed, sel in zip(samples, seeds, chunk):
            alone = select_reference_mixture(sample, cfg=EmConfig(seed=seed))
            assert (sel.aic_table, sel.rejected, sel.convergence) == (alone.aic_table, alone.rejected, alone.convergence)
            assert sel.best_curvature == alone.best_curvature
            if alone.best is None:
                assert sel.best is None
            else:
                assert_same_fit(sel.best, alone.best)


def assert_same_fit(a, b):
    """Two ``MixtureFit`` equal bit for bit, field for field."""
    for name in ("M", "log_likelihood", "ll_trace", "n_iter", "converged", "aic", "valid", "invalid_reason"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("weights", "mus", "kappas"):
        np.testing.assert_array_equal(getattr(a.mixture, name), getattr(b.mixture, name))


def sweep(theta, alpha, mus, kappas, block=None):
    """``_sweep`` on one sample, in blocks of ``block`` observations (default: one block)."""
    return _sweep(_unit_vectors(theta), alpha, mus, kappas, block or theta.size)


def reference_sweep(theta, alpha, mus, kappas):
    """Per-component log-sum-exp: log-likelihoods, responsibilities and the sweep's sums.

    Each log density is log alpha - log 2 pi - log i0e(kappa)
    - 2 kappa sin^2((theta - mu) / 2), which has no cancellation. Returns
    (ll, lse, sums, scale): ``sums`` and ``scale`` have the sweep's
    (restarts, 3, M) layout, ``scale`` holding sum r |cos theta|,
    sum r |sin theta| and sum r.
    """
    logd = (
        np.log(alpha) - math.log(TWO_PI) - np.log(i0e(kappas))
    )[:, :, None] - 2.0 * kappas[:, :, None] * np.sin(0.5 * (theta - mus[:, :, None])) ** 2
    lse = logsumexp(logd, axis=1)
    resp = np.exp(logd - lse[:, None, :])
    x = np.stack((np.cos(theta), np.sin(theta), np.ones_like(theta)))
    sums = np.einsum("kn,rmn->rkm", x, resp)
    scale = np.einsum("kn,rmn->rkm", np.abs(x), resp)
    return lse.sum(axis=1), lse, sums, scale


def log_density_error(alpha, kappas):
    """delta = 32 eps (1 + kappa + |log alpha|) per restart: see :func:`sweep_bounds`."""
    eps = np.finfo(float).eps
    return 32 * eps * (1.0 + kappas.max(axis=1) + np.abs(np.log(alpha)).max(axis=1))


def sweep_bounds(alpha, kappas, lse, scale):
    """Error bounds of ``_sweep`` against :func:`reference_sweep`, per restart and per sum.

    ``_sweep`` forms kappa cos(theta - mu) - kappa from products and sums
    of order kappa, so each of its log densities is off by a few rounding
    units of kappa + |log alpha| + log 2 pi + |log i0e(kappa)|; the
    reference's own error is a few units of kappa. delta = 32 eps (1 + kappa
    + |log alpha|) per restart covers both with room. ``exp`` turns that
    into a relative error of delta + eps in each density, so the column sum
    s is within delta + (M + 1) eps relative, and log s within that plus
    eps |log s| absolute. Summing n terms adds at most n eps times the sum
    of their sizes: the log-likelihood is within n (delta + (M + 1) eps)
    + (n + 1) eps sum |lse|. A responsibility D / s, taken as the product
    of D with (cos theta, sin theta, 1) / s, is within 2 delta + (M + 4) eps
    relative, and the two summations over n observations (the sweep's and
    the reference's) add 2 n eps: each sum is within
    (2 delta + (M + 4 + 2 n) eps) sum r |x|. The shifted columns are a
    log-sum-exp over the same log densities, within the same bounds.
    """
    n, m = lse.shape[1], kappas.shape[1]
    eps = np.finfo(float).eps
    delta = log_density_error(alpha, kappas)
    ll_bound = n * (delta + (m + 1) * eps) + (n + 1) * eps * np.abs(lse).sum(axis=1)
    sums_bound = (2 * delta + (m + 4 + 2 * n) * eps)[:, None, None] * scale
    return ll_bound, sums_bound


class TestEStep:
    KAPPAS = (0.0, 0.5, 3.0, 40.0, KAPPA_CAP)

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("n", [1, 7, 250])
    @pytest.mark.parametrize("M", [1, 2, 5])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_matches_per_component_logsumexp(self, restarts, M, n, kappa):
        """Log-likelihoods and the three per-component sums against :func:`reference_sweep`."""
        rng = make_rng(17, restarts, M, n, int(kappa))
        theta = rng.uniform(0.0, TWO_PI, n)
        alpha = rng.dirichlet(np.ones(M), restarts)
        mus = rng.uniform(0.0, TWO_PI, (restarts, M))
        # The first component carries the case's kappa; the others cycle
        # through the rest of the list, so large and small ones meet.
        start = self.KAPPAS.index(kappa)
        kappas = np.array(self.KAPPAS)[(start + np.arange(restarts * M)) % 5].reshape(restarts, M)
        mus.flat[0] = theta[0]  # one observation on a mode, where the density peaks

        ll, sums = sweep(theta, alpha, mus, kappas)

        ref_ll, lse, ref_sums, scale = reference_sweep(theta, alpha, mus, kappas)
        ll_bound, sums_bound = sweep_bounds(alpha, kappas, lse, scale)
        assert ll.shape == (restarts,) and sums.shape == (restarts, 3, M)
        assert np.all(np.abs(ll - ref_ll) <= ll_bound)
        assert np.all(np.abs(sums - ref_sums) <= sums_bound)

    def test_blocks_match_one_block(self, monkeypatch):
        """Blocks change the order of the sums over observations, and little else.

        A block's matmul may round a log density differently at the block's
        edge, within delta of :func:`sweep_bounds`, and each sum over n
        observations runs in another order, within n eps times the sum of
        its terms' sizes on each side. So the log-likelihoods agree within
        n delta + 2 n eps sum |lse|, and the sums within
        (2 delta + 2 n eps) sum r |x|.
        """
        rng = make_rng(18)
        n, restarts, M = 1000, 3, 4
        theta = rng.uniform(0.0, TWO_PI, n)
        alpha = rng.dirichlet(np.ones(M), restarts)
        mus = rng.uniform(0.0, TWO_PI, (restarts, M))
        kappas = rng.choice([0.5, 3.0, 40.0, 400.0], (restarts, M))
        one_ll, one_sums = sweep(theta, alpha, mus, kappas)
        _, lse, _, scale = reference_sweep(theta, alpha, mus, kappas)
        eps, delta = np.finfo(float).eps, log_density_error(alpha, kappas)
        for block in (7, 64, 999):
            ll, sums = sweep(theta, alpha, mus, kappas, block)
            assert np.all(np.abs(ll - one_ll) <= n * delta + 2 * n * eps * np.abs(lse).sum(axis=1))
            assert np.all(np.abs(sums - one_sums) <= (2 * delta + 2 * n * eps)[:, None, None] * scale)
        # Through em_fit: 250 observations of an M = 3 fit in blocks of 6.
        x = get_model("M20").sample(250, make_rng(42, 20, 250))
        cfg = EmConfig(seed=3)
        whole = em_fit(x, 3, cfg)
        monkeypatch.setattr(em, "_CHUNK_CELLS", 6 * cfg.n_restarts * 3)
        blocked = em_fit(x, 3, cfg)
        assert blocked.log_likelihood == pytest.approx(whole.log_likelihood, rel=1e-12)
        for field in ("n_iter", "converged", "valid"):
            assert getattr(blocked, field) == getattr(whole, field)

    def test_underflow_fallback(self, monkeypatch):
        """Columns whose densities all underflow are redone shifted; the others keep their bits.

        Restart 0 has two ``KAPPA_CAP`` components at 0 and 0.03, so
        observations past about 0.15 from both have every density below
        1e-290 (at 3 rad it is exp(-2e5), which is 0). Restart 1 has
        moderate concentrations and no such column.
        """
        theta = np.concatenate((np.linspace(0.0, 0.3, 31), [1.0, 3.0, 5.5]))
        alpha = np.array([[0.6, 0.4], [0.5, 0.5]])
        mus = np.array([[0.0, 0.03], [1.0, 4.0]])
        kappas = np.array([[KAPPA_CAP, KAPPA_CAP], [2.0, 5.0]])
        shifted = []
        real = em._shift_low_columns

        def spy(w, xb, d, s):
            shifted.append(int((s < em._SUM_FLOOR).sum()))
            return real(w, xb, d, s)

        monkeypatch.setattr(em, "_shift_low_columns", spy)
        ll, sums = sweep(theta, alpha, mus, kappas)
        assert shifted and 3 <= shifted[0] < theta.size
        ref_ll, lse, ref_sums, scale = reference_sweep(theta, alpha, mus, kappas)
        ll_bound, sums_bound = sweep_bounds(alpha, kappas, lse, scale)
        assert np.all(np.isfinite(ll)) and np.all(np.abs(ll - ref_ll) <= ll_bound)
        assert np.all(np.abs(sums - ref_sums) <= sums_bound)
        # Restart 1 alone takes the unshifted path and gives the same bits.
        alone_ll, alone_sums = sweep(theta, alpha[1:], mus[1:], kappas[1:])
        assert len(shifted) == 1
        assert alone_ll[0] == ll[1]
        np.testing.assert_array_equal(alone_sums[0], sums[1])


class TestMemory:
    def test_bounded_by_the_sample_not_restarts_times_m(self):
        # A fit holds the (3, n) unit vectors and the initial centres'
        # (restarts, n) distance arrays, at most 3 n + 3 * 5 n floats, plus
        # one sweep block of about _CHUNK_CELLS (M + 3) / M cells and its
        # column sums. The (restarts, M, n) responsibilities of this 5 x 5
        # fit would be 25 n floats alone.
        n = 50_000
        x = get_model("M16").sample(n, make_rng(9, 16))
        tracemalloc.start()
        try:
            em_fit(x, 5, EmConfig(max_iter=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (18 * n + 4 * em._CHUNK_CELLS)

    def test_chunk_bounded_by_rows_times_n(self):
        # The largest n at which a study chunk holds its full 16 samples,
        # 80 rows of an M = 5 fit. A chunk's EM holds the samples' stacked
        # unit vectors (3 / restarts floats per row and observation), the
        # running rows' gathered unit vectors (3), one sweep block's
        # densities and scaled unit vectors (M + 3, the block no longer than
        # n) and its column sums and their logs (2): at most
        # rows (M + 8.6) n floats, within 1.25 rows (M + 6) n.
        cfg, M = EmConfig(max_iter=3), 5
        n = em._LOCKSTEP_CELLS // (simulate._CHUNK_SAMPLES * cfg.n_restarts)
        samples = simulate._chunk_size(n, cfg.n_restarts)
        assert samples == simulate._CHUNK_SAMPLES and simulate._chunk_size(n + 1, cfg.n_restarts) < samples
        arrs = np.stack([get_model("M16").sample(n, make_rng(9, 16, i)) for i in range(samples)])
        rows = samples * cfg.n_restarts
        tracemalloc.start()
        try:
            em._em_fit_groups(arrs, (M,), cfg, range(samples))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * rows * (M + 6) * n


class TestInitialCenters:
    @staticmethod
    def one_sweep(arr, M, rng):
        """The per-restart farthest-point sweep that ``_initial_centers`` batches."""
        centers = [arr[int(rng.integers(arr.size))]]
        d = circular_distance(arr, centers[0])
        for _ in range(M - 1):
            far = int(np.argmax(d))
            centers.append(arr[far])
            d = np.minimum(d, circular_distance(arr, arr[far]))
        return np.asarray(centers)

    @pytest.mark.parametrize("n", [100, 250, 2000])
    @pytest.mark.parametrize("model", ["M1", "M2", "M5", "M7", "M12", "M20"])
    def test_batch_equals_each_restart(self, model, n):
        x = get_model(model).sample(n, make_rng(5, n))
        for M in (2, 3, 4, 5):
            rngs = [make_rng(7, M, r) for r in range(5)]
            batch = _initial_centers(x, M, rngs)
            rows = np.stack([self.one_sweep(x, M, make_rng(7, M, r)) for r in range(5)])
            np.testing.assert_array_equal(batch, rows)
            np.testing.assert_array_equal(_initial_centers(x, M, [make_rng(7, M, 2)])[0], rows[2])


class TestAic:
    def test_trivial_values(self):
        assert aic_value(0.0, 1) == 4.0
        assert aic_value(0.0, 2) == 10.0

    def test_fit_field_consistent(self, m7_500):
        fit = em_fit(m7_500, 2, EmConfig(seed=9))
        assert fit.aic == pytest.approx(2 * (3 * fit.M - 1) - 2 * fit.log_likelihood, abs=1e-12)

    def test_bimodal_truth_favors_two_components(self, m7_500):
        cfg = EmConfig(seed=10)
        assert em_fit(m7_500, 2, cfg).aic < em_fit(m7_500, 1, cfg).aic


class TestSelection:
    def test_no_valid_fit_marker(self):
        sel = select_reference_mixture(degenerate_sample(), cfg=EmConfig(seed=11))
        assert sel.best is None
        assert sel.best_curvature is None
        assert set(sel.rejected) == {2, 3, 4, 5}

    def test_seeded_m7_selects_two(self, m7_500):
        sel = select_reference_mixture(m7_500, cfg=EmConfig(seed=12))
        assert sel.best is not None
        assert sel.best.M == 2
        assert math.isfinite(sel.best_curvature)

    def test_seeded_m2_returns_valid_fit(self, m2_500):
        sel = select_reference_mixture(m2_500, cfg=EmConfig(seed=13))
        assert sel.best is not None
        assert sel.best.M in (2, 3, 4, 5)
        assert sel.best.valid
        assert math.isfinite(curvature_integral(sel.best.mixture))

    def test_small_sample_shrinks_candidates(self):
        x = get_model("M2").sample(10, make_rng(1, 2, 10))
        sel = select_reference_mixture(x, cfg=EmConfig(seed=14))
        assert 4 in sel.rejected and 5 in sel.rejected
        assert "too small" in sel.rejected[5]

    def test_aic_table_recorded(self, m7_500):
        sel = select_reference_mixture(m7_500, cfg=EmConfig(seed=15))
        assert set(sel.aic_table) == {2, 3, 4, 5}
        assert sel.aic_table[sel.best.M] == min(sel.aic_table.values())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iter=0)
        with pytest.raises(ValueError):
            EmConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            EmConfig(n_restarts=0)
        # A NaN tolerance would run every fit to max_iter, unconverged.
        for rel_tol in (math.nan, math.inf, -1e-6):
            with pytest.raises(ValueError):
                EmConfig(rel_tol=rel_tol)
        # Non-integer counts would fail later, inside range() or np.full.
        for bad in ({"max_iter": 2.5}, {"max_iter": 200.0}, {"n_restarts": 2.5}, {"n_restarts": "5"}):
            with pytest.raises(ValueError):
                EmConfig(**bad)
        assert EmConfig(max_iter=np.int64(3), n_restarts=np.int32(2)).max_iter == 3
        # make_rng would truncate a float seed, so 1.7 would fit exactly as 1 does.
        for seed in (1.7, 1.0, "1", None):
            with pytest.raises(ValueError):
                EmConfig(seed=seed)
        assert EmConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        assert EmConfig() == EmConfig(max_iter=200, rel_tol=1e-6, n_restarts=5, seed=0)
