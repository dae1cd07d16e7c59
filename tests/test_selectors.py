import collections
import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0e

from conftest import series_bessel_i

from test_em import degenerate_sample

from circkde import kde, selectors
from circkde.bessel import KAPPA_CAP, _order_count
from circkde.catalogue import get_model
from circkde.em import EmConfig, em_fit, fit_single_von_mises, log_likelihood, select_reference_mixture
from circkde.kde import KdeFit, density_grid_of, ise, kde_grid, oracle_mise_curve
from circkde.models import TWO_PI, VonMises, VonMisesMixture, curvature_integral, wrap_angle
from circkde.rng import make_rng
from circkde.selectors import (
    ORACLE,
    PI,
    RT,
    NuSearchDomain,
    amise,
    golden_section_minimize,
    lcv,
    lcv_objective,
    minimize_on_domain,
    plug_in,
    plug_in_chunk,
    rule_of_thumb,
    taylor_rule_nu,
)
from circkde.simulate import SMOKE_MODELS, ExperimentConfig, default_oracle_grid, run_experiment


def vm_curvature(kappa: float) -> float:
    """Closed-form integral of squared curvature for a single von Mises."""
    return (
        kappa**2
        * (2 * series_bessel_i(0, 2 * kappa) + series_bessel_i(2, 2 * kappa))
        / (8 * math.pi * series_bessel_i(0, kappa) ** 2)
    )


@pytest.fixture(scope="module")
def m7_500():
    return get_model("M7").sample(500, make_rng(42, 7, 500))


@pytest.fixture(scope="module")
def m2_100():
    return get_model("M2").sample(100, make_rng(42, 2, 100))


# One sample per smoke model at n = 250, and the fit-large model at n = 2000.
LCV_CASES = [(m, 250) for m in SMOKE_MODELS] + [("M16", 2000)]


@functools.cache
def lcv_sample(case):
    model, n = case
    return get_model(model).sample(n, make_rng(43, int(model[1:]), n))


@functools.cache
def direct_objective(case, nu):
    """lcv_objective, cached: the moment and reference runs visit the same nu."""
    return lcv_objective(lcv_sample(case), nu)


def lcv_evaluations(monkeypatch, sample):
    """Run lcv, recording each (nu, log-likelihood) its optimizer evaluates."""
    seen = []
    real = selectors.minimize_on_domain

    def spy(f, domain):
        def recorded(nu):
            value = f(nu)
            seen.append((nu, -value))
            return value

        return real(recorded, domain)

    monkeypatch.setattr(selectors, "minimize_on_domain", spy)
    return lcv(sample), seen


class TestAmise:
    def test_zero_curvature_reduces_to_variance(self):
        for nu in (0.5, 2.0, 10.0):
            expected = series_bessel_i(0, 2 * nu) / (
                2 * 100 * math.pi * series_bessel_i(0, nu) ** 2
            )
            assert amise(nu, 100, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_variance_term_increasing(self):
        nus = np.linspace(1.0, 100.0, 150)
        vals = [amise(nu, 100, 0.0) for nu in nus]
        assert np.all(np.diff(vals) > 0)

    def test_frozen_regression_value(self):
        # bias + variance from series-oracle Bessels, frozen
        nu, n, curv = 4.0, 100, 0.05131
        bias = (1 - series_bessel_i(2, nu) / series_bessel_i(0, nu)) ** 2 / 16 * curv
        var = series_bessel_i(0, 2 * nu) / (2 * n * math.pi * series_bessel_i(0, nu) ** 2)
        assert amise(nu, n, curv) == pytest.approx(bias + var, rel=1e-12)
        assert amise(nu, n, curv) == pytest.approx(0.005925236651395, rel=1e-12)

    def test_large_nu_asymptotic_surrogate(self):
        nu, n, curv = 400.0, 100, 0.05131
        surrogate = curv / (4 * nu**2) + math.sqrt(nu) / (2 * math.sqrt(math.pi) * n)
        assert amise(nu, n, curv) == pytest.approx(surrogate, rel=0.01)

    def test_interior_minimum_and_brute_force_agreement(self):
        n, curv = 250, 0.9
        f = lambda v: amise(v, n, curv)
        domain = NuSearchDomain.for_sample_size(n)
        x, fx, _ = minimize_on_domain(f, domain)
        assert domain.nu_min * 1.5 < x < domain.nu_max / 1.5
        grid = np.geomspace(domain.nu_min, domain.nu_max, 2000)
        brute = min(f(v) for v in grid)
        # exact search can only improve on the brute-force grid
        assert fx <= brute * (1 + 1e-8)

    def test_edge_hit_flags_the_last_probe(self):
        domain = NuSearchDomain.for_sample_size(250)
        _, _, interior = minimize_on_domain(lambda v: amise(v, 250, 0.9), domain)
        x, _, edge = minimize_on_domain(lambda v: -v, domain)
        assert interior["edge_hit"] is False
        assert edge["edge_hit"] is True and edge["best_probe"] == domain.probes()[-1]
        assert x == pytest.approx(domain.nu_max, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            amise(0.0, 100, 1.0)
        with pytest.raises(ValueError):
            amise(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            amise(1.0, 100, math.inf)


class TestGoldenSection:
    def test_quadratic(self):
        x, fx, _ = golden_section_minimize(lambda t: (t - 3.2) ** 2, 0.1, 10.0, rel_tol=1e-6)
        assert x == pytest.approx(3.2, rel=1e-4)
        assert fx == pytest.approx(0.0, abs=1e-7)

    def test_requires_ordered_bracket(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t, 2.0, 1.0)


class TestRuleOfThumb:
    def test_symmetric_sample_gives_zero(self):
        res = rule_of_thumb(np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]))
        assert res.nu == 0.0
        assert res.selector == RT

    def test_injected_kappa_formula(self):
        # independent series-oracle evaluation of the closed form
        expected = (
            3 * 100 * series_bessel_i(2, 2.0) / (4 * math.sqrt(math.pi) * series_bessel_i(0, 1.0) ** 2)
        ) ** 0.4
        assert taylor_rule_nu(1.0, 100) == pytest.approx(expected, rel=1e-12)
        assert taylor_rule_nu(1.0, 100) == pytest.approx(3.191, abs=1e-3)

    def test_rotation_invariant(self, m2_100):
        base = rule_of_thumb(m2_100).nu
        rotated = rule_of_thumb(wrap_angle(m2_100 + 2.2)).nu
        assert rotated == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestPlugIn:
    def test_fallback_on_degenerate_input(self):
        sample = degenerate_sample()
        res = plug_in(sample, EmConfig(seed=11))
        rt = rule_of_thumb(sample)
        assert res.fallback
        assert res.selector == PI
        assert res.nu == rt.nu
        assert res.diagnostics["fallback_reason"] == "no valid reference mixture"

    def test_chunk_equals_plug_in_alone(self):
        # Six smoke samples and the degenerate one, which falls back to RT.
        samples = [get_model(m).sample(20, make_rng(8, i)) for i, m in enumerate(SMOKE_MODELS)]
        samples.append(degenerate_sample())
        seeds = [40 + i for i in range(len(samples))]
        results = plug_in_chunk(samples, seeds, EmConfig(max_iter=50))
        assert results[-1].fallback and not results[0].fallback
        for sample, seed, res in zip(samples, seeds, results):
            assert res == plug_in(sample, EmConfig(max_iter=50, seed=seed))

    def test_no_fallback_flag_on_success(self, m7_500):
        res = plug_in(m7_500, EmConfig(seed=12))
        assert not res.fallback
        assert res.selected_m in (2, 3, 4, 5)
        assert set(res.aic_table) <= {2, 3, 4, 5}
        assert res.objective is not None

    @pytest.mark.parametrize("path", ["fitted", "fallback"])
    def test_em_convergence_in_diagnostics(self, path, m7_500):
        sample = m7_500 if path == "fitted" else degenerate_sample()
        cfg = EmConfig(seed=16)
        res = plug_in(sample, cfg)
        assert res.fallback == (path == "fallback")
        fits = {m: em_fit(sample, m, cfg) for m in (2, 3, 4, 5)}
        assert res.diagnostics["em"] == {m: (f.n_iter, f.converged) for m, f in fits.items()}
        assert res.diagnostics["em"] == select_reference_mixture(sample, cfg=cfg).convergence

    def test_beats_rule_of_thumb_on_antipodal_modes(self, m7_500):
        truth = density_grid_of(get_model("M7"))
        pi_res = plug_in(m7_500, EmConfig(seed=13))
        rt_res = rule_of_thumb(m7_500)
        ise_pi = ise(kde_grid(KdeFit(m7_500, pi_res.nu)), truth)
        ise_rt = ise(kde_grid(KdeFit(m7_500, rt_res.nu)), truth)
        assert ise_pi < ise_rt

    def test_injected_curvature_near_asymptotic_minimizer(self):
        # The closed-form (2 sqrt(pi) n R)^(2/5) is the large-nu limit of the
        # exact minimizer; tight agreement needs the optimum far out.
        n, curv = 500, 300.0
        domain = NuSearchDomain(0.01, 1000.0, 80)
        x, _, _ = minimize_on_domain(lambda v: amise(v, n, curv), domain)
        asymptotic = (2 * math.sqrt(math.pi) * n * curv) ** 0.4
        assert x == pytest.approx(asymptotic, rel=0.05)
        # at kappa=1 reference curvature the optimum sits near nu ~ 4 where
        # the expansion is loose; agreement is only qualitative there
        curv_small = vm_curvature(1.0)
        x_small, _, _ = minimize_on_domain(
            lambda v: amise(v, 100, curv_small), NuSearchDomain.for_sample_size(100)
        )
        asym_small = (2 * math.sqrt(math.pi) * 100 * curv_small) ** 0.4
        assert x_small == pytest.approx(asym_small, rel=0.35)

    def test_single_component_reference_beats_closed_form(self, m2_100):
        # exact minimization of the objective can only improve on the
        # closed-form approximation, evaluated with the same curvature
        fit = em_fit(m2_100, 1, EmConfig(seed=14))
        assert fit.valid and fit.M == 1
        curv = curvature_integral(fit.mixture)
        n = m2_100.size
        x, fx, _ = minimize_on_domain(
            lambda v: amise(v, n, curv), NuSearchDomain.for_sample_size(n)
        )
        nu_rt = rule_of_thumb(m2_100).nu
        assert fx <= amise(nu_rt, n, curv) + 1e-12

    def test_rotation_invariant(self, m2_100):
        cfg = EmConfig(seed=15)
        a = plug_in(m2_100, cfg)
        b = plug_in(wrap_angle(m2_100 + 1.7), cfg)
        assert b.nu == pytest.approx(a.nu, rel=1e-6)
        assert b.selected_m == a.selected_m


class TestLcv:
    def test_two_point_uniform_baseline(self):
        sample = np.array([0.0, math.pi])
        baseline = 2 * math.log(1.0 / TWO_PI)
        assert lcv_objective(sample, 1e-9) == pytest.approx(baseline, abs=1e-6)
        res = lcv(sample, NuSearchDomain(1e-3, 100.0, 50))
        # supremum sits at nu -> 0; the maximizer approaches the baseline
        assert res.objective >= baseline - 1e-2
        assert res.objective <= baseline + 1e-9

    def test_brute_force_grid_agreement(self, m2_100):
        domain = NuSearchDomain.for_sample_size(m2_100.size)
        res = lcv(m2_100, domain)
        grid = np.geomspace(domain.nu_min, domain.nu_max, 2000)
        brute = max(lcv_objective(m2_100, v) for v in grid)
        # refinement never does worse than the dense grid
        assert res.objective >= brute - 1e-6

    def test_rotation_invariant(self, m2_100):
        a = lcv(m2_100)
        b = lcv(wrap_angle(m2_100 + 0.9))
        assert b.nu == pytest.approx(a.nu, rel=1e-6)

    def test_wraps_its_sample_once_on_entry(self, m2_100):
        # Tables, guard rows and ties all see the wrapped angles, so whole turns
        # added to the sample change no bit of the result.
        shifted = m2_100 - 3 * TWO_PI
        a, b = lcv(shifted), lcv(wrap_angle(shifted))
        assert (a.nu, a.objective, a.diagnostics) == (b.nu, b.objective, b.diagnostics)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            lcv(np.array([1.0]))

    @pytest.mark.parametrize("case", LCV_CASES, ids=lambda c: f"{c[0]}-n{c[1]}")
    def test_moment_objective_matches_direct(self, monkeypatch, case):
        sample = lcv_sample(case)
        res, seen = lcv_evaluations(monkeypatch, sample)
        assert len(seen) == res.diagnostics["optimizer"]["n_evals"]
        for nu, value in seen:
            assert value == pytest.approx(direct_objective(case, nu), rel=1e-12)

    @pytest.mark.parametrize("case", LCV_CASES, ids=lambda c: f"{c[0]}-n{c[1]}")
    def test_nu_matches_direct_reference(self, case):
        sample = lcv_sample(case)
        domain = NuSearchDomain.for_sample_size(sample.size)
        ref, neg, _ = minimize_on_domain(lambda v: -direct_objective(case, v), domain)
        res = lcv(sample)
        assert res.nu == pytest.approx(ref, rel=1e-9)
        assert res.objective == pytest.approx(-neg, rel=1e-12)

    def test_isolated_points_use_direct_sums(self, monkeypatch):
        # 12 outliers 0.36 apart opposite 1988 concentrated points: at the
        # largest nu their leave-one-out sums (about 3e-6) are far below the
        # moment form's rounding noise relative to 1
        outliers = np.pi + np.linspace(-2.0, 2.0, 12)
        sample = np.concatenate([VonMises(mu=0.0, kappa=50.0).sample(1988, make_rng(8)), outliers])
        res, seen = lcv_evaluations(monkeypatch, sample)
        assert res.diagnostics["direct_rows"] > 0
        for nu, value in seen:
            assert value == pytest.approx(lcv_objective(sample, nu), rel=1e-12)

    @pytest.mark.parametrize("case", ["M2-100", "M16-2000", "outliers"])
    def test_probe_rows_match_rows_one_nu_at_a_time(self, monkeypatch, case):
        """The probes' coefficient rows come from one grid call, and give every bit that one-nu rows give.

        The outliers sample takes direct rows at its largest probes.
        """
        if case == "outliers":
            outliers = np.pi + np.linspace(-2.0, 2.0, 12)
            sample = np.concatenate([VonMises(mu=0.0, kappa=50.0).sample(1988, make_rng(8)), outliers])
        else:
            model, n = case.split("-")
            sample = lcv_sample((model, int(n)))
        real_grid, real = selectors._grid_coefficients, selectors._kernel_coefficients
        grids, sizes = [], []

        def grid_spy(nus):
            grids.append(nus.size)
            return real_grid(nus)

        def spy(nus, orders):
            sizes.append(nus.size)
            return real(nus, orders)

        monkeypatch.setattr(selectors, "_grid_coefficients", grid_spy)
        monkeypatch.setattr(selectors, "_kernel_coefficients", spy)
        batched = lcv(sample)
        domain = NuSearchDomain.for_sample_size(sample.size)
        assert grids == [domain.n_probes] and set(sizes) == {1}
        assert (case == "outliers") == (batched.diagnostics["direct_rows"] > 0)

        def one_at_a_time(nus):
            orders = _order_count(float(nus.max()))
            return np.stack([real(np.array([nu]), orders)[0] for nu in nus])

        monkeypatch.setattr(selectors, "_grid_coefficients", one_at_a_time)
        alone = lcv(sample)
        assert (batched.nu, batched.objective, batched.diagnostics) == (alone.nu, alone.objective, alone.diagnostics)

    def test_direct_objective_at_large_nu(self):
        # Twins 3e-8 to 6e-7 apart: at nu = 1e5 each leave-one-out sum is
        # the twin's kernel value exp(-nu d^2 / 2), nu d^2 / 2 from 4.5e-11
        # to 1.8e-8. cos d rounds to within 5.6e-17 of 1 - d^2 / 2, so
        # nu (cos d - 1) would be off by up to 5.6e-12.
        base = np.linspace(0.0, TWO_PI, 20, endpoint=False) + 0.3
        sample = np.concatenate([base, base + 3e-8 * np.arange(1, 21)])
        nu = 1e5
        x = sample.astype(np.longdouble)
        w = np.exp(nu * (np.cos(x[:, None] - x[None, :]) - 1))
        np.fill_diagonal(w, 0)
        ref = np.log(w.sum(axis=1) / ((x.size - 1) * TWO_PI * np.longdouble(i0e(nu)))).sum()
        assert lcv_objective(sample, nu) == pytest.approx(float(ref), rel=1e-13)

    def test_diagnostics(self, m2_100):
        res = lcv(m2_100)
        domain = NuSearchDomain.for_sample_size(m2_100.size)
        assert res.diagnostics["orders"] == _order_count(domain.nu_max)
        assert res.diagnostics["direct_rows"] == 0

    def test_ties_on_10_degree_rounding(self, m7_500):
        # M7 rounded to 10 degree sectors: 497 of 500 share a sector; 360 wraps onto 0
        sectors = np.round(np.rad2deg(m7_500) / 10.0)
        counts = collections.Counter(int(k) % 36 for k in sectors)
        expected = sum(c for c in counts.values() if c > 1)
        assert (expected, (sectors == 36).any()) == (497, True)
        assert lcv(np.deg2rad(10.0 * sectors)).diagnostics["ties"] == expected

    def test_ties_with_one_singleton(self, m7_500):
        # every 10 degree sector that holds two or more points, plus one point off the sectors
        sectors = np.round(np.rad2deg(m7_500) / 10.0) % 36
        values, counts = np.unique(sectors, return_counts=True)
        shared = np.deg2rad(10.0 * np.repeat(values[counts > 1], counts[counts > 1]))
        sample = np.append(shared, np.deg2rad(5.0))
        assert lcv(sample).diagnostics["ties"] == sample.size - 1

    def test_no_ties_on_continuous_data(self, m2_100):
        assert lcv(m2_100).diagnostics["ties"] == 0

    def test_refuses_nu_beyond_table(self, monkeypatch, m2_100):
        # the table drops orders that are negligible only up to domain.nu_max
        def overshoot(f, domain):
            return f(domain.nu_max * 1.01), 0.0, {}

        monkeypatch.setattr(selectors, "minimize_on_domain", overshoot)
        with pytest.raises(AssertionError):
            lcv(m2_100)

    def test_memory_linear_in_n(self):
        # LCV holds the two trigonometric tables, 2 (B + Q) n floats (9.3 MB
        # here, B = 15, Q = 14). A K x n table of cosine sums alone would
        # take 32.6 MB, and one n x n float64 matrix 3.2 GB.
        n = 20_000
        sample = get_model("M16").sample(n, make_rng(9, 16))
        orders = _order_count(NuSearchDomain.for_sample_size(n).nu_max)
        base, groups, _ = kde._table_layout(orders)
        tracemalloc.start()
        try:
            lcv(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (orders, base, groups) == (204, 15, 14)
        assert peak < 8 * (2 * (base + groups) * n + 4 * n + 4 * kde._CHUNK_CELLS)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "selector", [rule_of_thumb, lambda s: plug_in(s, EmConfig(seed=3)), lcv],
        ids=["RT", "PI", "LCV"],
    )
    def test_rejected(self, selector, bad):
        with pytest.raises(ValueError, match="finite"):
            selector([0.1, bad, 0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "layer",
        [
            fit_single_von_mises,
            lambda s: em_fit(s, 2, EmConfig(seed=3)),
            lambda s: select_reference_mixture(s, cfg=EmConfig(seed=3)),
            lambda s: log_likelihood(s, VonMisesMixture([1.0], [0.0], [1.0])),
            lambda s: KdeFit(s, 5.0),
            lambda s: oracle_mise_curve([s], density_grid_of(get_model("M2"), 64), np.array([1.0])),
        ],
        ids=["fit_single_von_mises", "em_fit", "select_reference_mixture", "log_likelihood",
             "KdeFit", "oracle_mise_curve"],
    )
    def test_rejected_below_selectors(self, layer, bad):
        sample = np.linspace(0.1, 6.0, 12)
        sample[3] = bad
        with pytest.raises(ValueError, match="finite"):
            layer(sample)


class TestDomain:
    def test_defaults_scale_with_n(self):
        d = NuSearchDomain.for_sample_size(100)
        assert d.nu_min == 0.01
        assert d.nu_max == pytest.approx(10 * 100**0.4)
        assert d.probes().size == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            NuSearchDomain(1.0, 0.5)
        with pytest.raises(ValueError):
            NuSearchDomain(0.1, 1.0, 1)
        # Past the cap, and at inf, lcv's order count has no answer.
        for nu_max in (math.inf, math.nan, 2.0 * KAPPA_CAP):
            with pytest.raises(ValueError):
                NuSearchDomain(0.01, nu_max)
        assert NuSearchDomain(0.01, KAPPA_CAP).nu_max == KAPPA_CAP
        # A fractional count would fail later, inside np.geomspace.
        for n_probes in (2.5, 50.0):
            with pytest.raises(ValueError):
                NuSearchDomain(0.1, 1.0, n_probes)
        assert NuSearchDomain(0.1, 1.0, np.int64(3)).probes().size == 3

    def test_amise_minimizer_nondecreasing_in_n(self):
        curv = vm_curvature(1.0)  # the M2 truth curvature
        minimizers = []
        for n in (100, 250, 500):
            x, _, _ = minimize_on_domain(
                lambda v: amise(v, n, curv), NuSearchDomain.for_sample_size(n)
            )
            minimizers.append(x)
        assert minimizers[0] <= minimizers[1] <= minimizers[2]


class TestOracle:
    def test_curve_matches_replicate_nu_loop(self):
        model = get_model("M7")
        truth = density_grid_of(model, 1024)
        rng = make_rng(6, 7)
        samples = [model.sample(n, rng) for n in (1, 30, 250)]
        nu_grid = NuSearchDomain.for_sample_size(250).probes()
        curve = oracle_mise_curve(samples, truth, nu_grid)
        expected = [[ise(kde_grid(KdeFit(s, nu), 1024), truth) for nu in nu_grid] for s in samples]
        np.testing.assert_allclose(curve, expected, rtol=1e-12, atol=0)

    def test_uniform_truth_prefers_smallest_nu(self):
        cfg = ExperimentConfig(
            models=("M1",), sample_sizes=(500,), replicates=40, selectors=(ORACLE,), base_seed=4
        )
        cell = run_experiment(cfg).cell("M1", 500, ORACLE)
        assert cell.oracle_nu == default_oracle_grid(500)[0]
        assert cell.mean_ise < 1e-4
