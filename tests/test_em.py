import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import i0e, logsumexp

from conftest import TWO_PI, circular_distance

from circkde.bessel import KAPPA_CAP, is_saturated, mean_resultant_ratio
from circkde.catalogue import get_model
from circkde.em import (
    EmConfig,
    _initial_centers,
    aic_value,
    em_fit,
    fit_single_von_mises,
    log_likelihood,
    select_reference_mixture,
)
from circkde.models import VonMisesMixture, curvature_integral, wrap_angle
from circkde.rng import make_rng


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
        centers = _initial_centers(x, M, make_rng(cfg.seed, M, 0))
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
