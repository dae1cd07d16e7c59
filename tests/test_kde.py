import math

import numpy as np
import pytest
from scipy.special import i0e

from conftest import series_bessel_i

from circkde.catalogue import get_model
from circkde.kde import (
    DensityGrid,
    KdeFit,
    _kernel_coefficients,
    density_grid_of,
    grid_thetas,
    ise,
    kde_evaluate,
    kde_grid,
    oracle_mise_curve,
)
from circkde.models import TWO_PI, VonMises, VonMisesMixture, wrap_angle
from circkde.rng import make_rng


@pytest.fixture(scope="module")
def m2_sample():
    return get_model("M2").sample(100, make_rng(5, 2))


class TestEvaluate:
    def test_single_point_is_kernel(self):
        fit = KdeFit(np.array([1.3]), 2.5)
        vm = VonMises(mu=1.3, kappa=2.5)
        for theta in (0.0, 1.0, 4.0):
            assert kde_evaluate(fit, theta) == pytest.approx(vm.density(theta), rel=1e-14)

    def test_zero_concentration_is_uniform(self, m2_sample):
        fit = KdeFit(m2_sample, 0.0)
        vals = kde_evaluate(fit, np.linspace(0, TWO_PI, 33))
        np.testing.assert_allclose(vals, 1.0 / TWO_PI, rtol=1e-14)

    def test_three_point_hand_sum(self):
        # n=3 sample {0,1,2}, nu=2, theta=1, against the direct 3-term sum
        fit = KdeFit(np.array([0.0, 1.0, 2.0]), 2.0)
        i02 = series_bessel_i(0, 2.0)
        expected = (
            math.exp(2 * math.cos(1.0)) + math.exp(2.0) + math.exp(2 * math.cos(-1.0))
        ) / (3 * TWO_PI * i02)
        assert kde_evaluate(fit, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_positive_everywhere(self, m2_sample):
        fit = KdeFit(m2_sample, 50.0)
        assert np.all(kde_evaluate(fit, np.linspace(0, TWO_PI, 257)) > 0.0)

    def test_mixture_identity(self, m2_sample):
        # the estimator is an equal-weight von Mises mixture on the sample
        nu = 3.7
        fit = KdeFit(m2_sample, nu)
        n = m2_sample.size
        mix = VonMisesMixture(np.full(n, 1.0 / n), m2_sample, np.full(n, nu))
        thetas = np.linspace(0.0, TWO_PI, 65)
        np.testing.assert_allclose(
            kde_evaluate(fit, thetas), mix.density(thetas), rtol=1e-12
        )

    def test_rotation_equivariance(self, m2_sample):
        nu = 4.0
        phi = 1.234
        thetas = np.linspace(0.0, TWO_PI, 29)
        base = kde_evaluate(KdeFit(m2_sample, nu), thetas)
        rotated = kde_evaluate(KdeFit(wrap_angle(m2_sample + phi), nu), wrap_angle(thetas + phi))
        np.testing.assert_allclose(rotated, base, rtol=1e-12)

    def test_mass_concentrates_with_nu(self, m2_sample):
        at_first = lambda nu: kde_evaluate(KdeFit(m2_sample, nu), m2_sample[0])
        assert at_first(1e3) > at_first(1e2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KdeFit(np.array([]), 1.0)
        with pytest.raises(ValueError):
            KdeFit(np.array([0.1]), -1.0)


class TestGrid:
    def test_constant_for_zero_nu(self, m2_sample):
        grid = kde_grid(KdeFit(m2_sample, 0.0), 64)
        np.testing.assert_allclose(grid.values, 1.0 / TWO_PI, rtol=1e-14)

    def test_matches_pointwise(self, m2_sample):
        fit = KdeFit(m2_sample, 3.0)
        grid = kde_grid(fit, 128)
        np.testing.assert_array_equal(grid.values, kde_evaluate(fit, grid.thetas))

    def test_integral_close_to_one(self, m2_sample):
        grid = kde_grid(KdeFit(m2_sample, 3.0), 1024)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nu", [0.5, 5.0, 100.0, 1000.0])
    def test_normalization_across_nu(self, m2_sample, nu):
        grid = kde_grid(KdeFit(m2_sample, nu), 1024)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    def test_gridsize_validation(self):
        with pytest.raises(ValueError):
            kde_grid(KdeFit(np.array([0.1]), 1.0), 4)
        with pytest.raises(ValueError):
            DensityGrid(np.ones(100))  # not a power of two

    def test_chunked_matches_direct(self):
        sample = get_model("M7").sample(600, make_rng(2, 7))
        fit = KdeFit(sample, 8.0)
        import circkde.kde as kmod

        old = kmod._CHUNK_CELLS
        try:
            kmod._CHUNK_CELLS = 4096
            chunked = kde_grid(fit, 256)
        finally:
            kmod._CHUNK_CELLS = old
        np.testing.assert_allclose(chunked.values, kde_grid(fit, 256).values, rtol=1e-15)


    def test_large_nu_matches_longdouble(self):
        # exp(nu (cos d - 1)) loses nu * 1e-16 in the exponent to cancellation;
        # the sin^2(d / 2) form keeps the relative error near the exponent's size
        # times 1e-16. Nodes below 1e-100 are where float64 nears underflow.
        sample = get_model("M20").sample(100, make_rng(8, 20))
        nu = 1e5
        fit = KdeFit(sample, nu)
        got = kde_grid(fit, 64).values
        d = grid_thetas(64).astype(np.longdouble)[:, None] - fit.sample.astype(np.longdouble)
        ref = np.exp(-2 * np.longdouble(nu) * np.sin(d / 2) ** 2).mean(axis=1)
        ref /= TWO_PI * i0e(nu)
        kept = ref > 1e-100
        assert kept.sum() >= 32
        np.testing.assert_allclose(got[kept], ref[kept].astype(float), rtol=1e-13, atol=0)


class TestIse:
    def test_identical_grids(self, m2_sample):
        g = kde_grid(KdeFit(m2_sample, 2.0), 256)
        assert ise(g, g) == 0.0

    def test_uniform_vs_von_mises_analytic(self):
        # integral of (g - 1/2pi)^2 = I0(2)/(2 pi I0(1)^2) - 1/(2 pi)
        vm = VonMises(mu=0.0, kappa=1.0)
        expected = series_bessel_i(0, 2.0) / (
            TWO_PI * series_bessel_i(0, 1.0) ** 2
        ) - 1.0 / TWO_PI
        uniform = DensityGrid(np.full(1024, 1.0 / TWO_PI))
        truth = density_grid_of(vm, 1024)
        got = ise(uniform, truth)
        assert got == pytest.approx(expected, rel=1e-10)
        # refinement stability
        got2 = ise(DensityGrid(np.full(2048, 1.0 / TWO_PI)), density_grid_of(vm, 2048))
        assert abs(got - got2) < 1e-8

    def test_gridsize_mismatch(self):
        with pytest.raises(ValueError):
            ise(DensityGrid(np.ones(64)), DensityGrid(np.ones(128)))

    def test_doubling_stability_for_smooth_inputs(self, m2_sample):
        truth = get_model("M2")
        fit = KdeFit(m2_sample, 3.0)
        v1 = ise(kde_grid(fit, 1024), density_grid_of(truth, 1024))
        v2 = ise(kde_grid(fit, 2048), density_grid_of(truth, 2048))
        assert abs(v1 - v2) < 1e-8


MOMENT_NUS = (0.01, 1.0, 30.0, 500.0, 1e5)


def direct_ise(sample, nu, truth):
    return ise(kde_grid(KdeFit(sample, nu), truth.gridsize), truth)


class TestMomentIse:
    @pytest.mark.parametrize("gridsize", [64, 512, 1024])
    @pytest.mark.parametrize("mid", ["M1", "M2", "M7", "M16", "M20"])
    def test_matches_grid_ise(self, mid, gridsize):
        model = get_model(mid)
        truth = density_grid_of(model, gridsize)
        sample = model.sample(100, make_rng(8, int(mid[1:])))
        expected = np.array([direct_ise(sample, nu, truth) for nu in MOMENT_NUS])
        # all nu at once (orders sized by the largest) and each nu alone
        together = oracle_mise_curve([sample], truth, np.array(MOMENT_NUS))[0]
        alone = [oracle_mise_curve([sample], truth, np.array([nu]))[0, 0] for nu in MOMENT_NUS]
        np.testing.assert_allclose(together, expected, rtol=1e-10, atol=0)
        np.testing.assert_allclose(alone, expected, rtol=1e-10, atol=0)

    def test_zero_nu_against_uniform_truth(self, m2_sample):
        truth = density_grid_of(get_model("M1"), 1024)
        (got,) = oracle_mise_curve([m2_sample], truth, np.array([0.0]))[0]
        assert direct_ise(m2_sample, 0.0, truth) == 0.0
        assert abs(got) <= 1e-15

    def test_orders_beyond_half_grid_are_folded(self, m2_sample):
        # at gridsize 64 and nu = 500 the retained orders alias onto the 33 bins
        assert _kernel_coefficients(np.array([500.0])).shape[1] > 64
        truth = density_grid_of(get_model("M2"), 64)
        got = oracle_mise_curve([m2_sample], truth, np.array([500.0]))[0, 0]
        assert got == pytest.approx(direct_ise(m2_sample, 500.0, truth), rel=1e-12)

    def test_truncation_floor(self):
        rho = _kernel_coefficients(np.array([0.5, 30.0]))
        np.testing.assert_allclose(rho[:, 0], 1.0, rtol=1e-15)
        assert rho[1, -1] > 1e-17  # last order kept at the largest nu
        assert np.all(np.diff(rho, axis=1) <= 0)  # falls with the order
        assert _kernel_coefficients(np.array([0.0])).shape == (1, 1)

    def test_validation(self, m2_sample):
        truth = density_grid_of(get_model("M2"), 64)
        with pytest.raises(ValueError):
            oracle_mise_curve([m2_sample], truth, np.array([-1.0]))
        with pytest.raises(ValueError):
            oracle_mise_curve([m2_sample], truth, np.array([]))
        with pytest.raises(ValueError):
            oracle_mise_curve([np.array([])], truth, np.array([1.0]))
