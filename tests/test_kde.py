import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0e

from conftest import series_bessel_i

import circkde.kde as kmod
from circkde.bessel import _kernel_coefficients, _order_count
from circkde.catalogue import get_model
from circkde.kde import (
    DensityGrid,
    KdeFit,
    density_grid_of,
    grid_thetas,
    ise,
    kde_evaluate,
    kde_grid,
    oracle_mise_curve,
)
from circkde.models import TWO_PI, VonMises, VonMisesMixture, wrap_angle
from circkde.rng import make_rng
from circkde.selectors import NuSearchDomain


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
        # the grid comes from the spectrum (see TestSpectralGrid), evaluation is direct
        fit = KdeFit(m2_sample, 3.0)
        grid = kde_grid(fit, 128)
        np.testing.assert_allclose(grid.values, kde_evaluate(fit, grid.thetas), rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("gridsize", [12, 100, 1024.0, 0, -8])
    def test_kde_grid_rejects_gridsize_before_any_work(self, monkeypatch, gridsize):
        def no_work(*args):
            raise AssertionError("kde_grid sized its orders before checking the grid")

        monkeypatch.setattr(kmod, "_order_count", no_work)
        with pytest.raises(ValueError, match="power of two >= 8"):
            kde_grid(KdeFit(np.array([0.1]), 1.0), gridsize)

    def test_chunked_matches_direct(self, monkeypatch):
        # _kernel_sums' in-place passes over blocks of rows give the same bits
        # as the whole G x n kernel matrix built in one expression, at any
        # block size, and so does _kernel_mean built on them.
        sample = get_model("M7").sample(600, make_rng(2, 7))
        fit = KdeFit(sample, 8.0)
        thetas = grid_thetas(256)
        d = 0.5 * thetas[:, None] - 0.5 * fit.sample[None, :]
        w = np.exp(np.sin(d) ** 2 * (-2.0 * fit.nu))
        sums, direct = w.sum(axis=1), w.mean(axis=1) / (TWO_PI * i0e(fit.nu))
        for cells in (kmod._CHUNK_CELLS, 4096):
            monkeypatch.setattr(kmod, "_CHUNK_CELLS", cells)
            np.testing.assert_array_equal(kmod._kernel_sums(thetas, fit.sample, fit.nu), sums)
            np.testing.assert_array_equal(kmod._kernel_mean(thetas, fit.sample, fit.nu), direct)

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


CONTRACT_NUS = np.logspace(-3, 5, 25)
CONTRACT_SIZES = (64, 1024, 4096)


def kernel_means(sample, nus, rows=256):
    """``_kernel_mean`` on the 4096-node grid for every nu, sharing sin^2 across nu.

    The rows of the 1024- and 64-node grids are every 4th and 64th row:
    their nodes are the same floats. Per row and nu the passes are the
    ones ``_kernel_sums`` makes, and the mean divides their sum by n, so
    the bits are the same.
    """
    g = CONTRACT_SIZES[-1]
    half_thetas, half_sample = 0.5 * grid_thetas(g), 0.5 * sample
    out = np.empty((nus.size, g))
    for lo in range(0, g, rows):
        sin2 = np.sin(half_thetas[lo : lo + rows, None] - half_sample[None, :]) ** 2
        for j, nu in enumerate(nus):
            out[j, lo : lo + rows] = np.exp(sin2 * (-2.0 * nu)).mean(axis=1)
    return out / (TWO_PI * i0e(nus))[:, None]


class TestSpectralGrid:
    """``kde_grid`` from the spectrum: within 1e-12 of ``_kernel_mean`` on every cell."""

    @pytest.mark.parametrize("mid", [f"M{i}" for i in range(1, 21)])
    def test_matches_kernel_mean(self, mid):
        paths = set()
        for n in (50, 250, 2000):
            fit = KdeFit(get_model(mid).sample(n, make_rng(3, int(mid[1:]), n)), 1.0)
            ref = kernel_means(fit.sample, CONTRACT_NUS)
            some = grid_thetas(4096)[::97]
            for j in (0, 12, 24):  # the reference is _kernel_mean, bit for bit
                np.testing.assert_array_equal(
                    ref[j, ::97], kmod._kernel_mean(some, fit.sample, CONTRACT_NUS[j])
                )
            for nu, row in zip(CONTRACT_NUS, ref):
                orders = _order_count(nu)
                for g in CONTRACT_SIZES:
                    paths.add(2 * orders <= g)
                    got = kde_grid(KdeFit(fit.sample, nu), g).values
                    want = row[:: 4096 // g]
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"n={n} nu={nu} G={g}")
        assert paths == {True, False}  # both sides of the spectral/direct rule

    def test_guard_cells_are_direct(self):
        # A tight cluster of 2000 points and three isolated ones: near an isolated
        # point the estimator is about peak / n, below the guard, and far from
        # every point it is so small that the inverse FFT's rounding goes negative.
        rng = make_rng(4, 1)
        sample = np.concatenate(
            [VonMises(mu=1.0, kappa=400.0).sample(2000, rng), [3.0, 3.6, 5.0]]
        )
        nu, g = 300.0, 1024
        assert 2 * _order_count(nu) <= g
        fit = KdeFit(sample, nu)
        got = kde_grid(fit, g).values
        ref = kmod._kernel_mean(grid_thetas(g), fit.sample, nu)
        rho = _kernel_coefficients(np.array([nu]), _order_count(nu))
        phi = kmod._sample_moments([fit.sample], rho.shape[1])[0]
        unguarded = np.fft.irfft(rho[0] * phi, g) * (g / TWO_PI)
        guard = kmod._GUARD / (TWO_PI * i0e(nu))
        guarded = unguarded < guard
        assert (unguarded < 0).any()
        assert ((ref > 1e-10) & guarded).sum() >= 10  # near the isolated points
        np.testing.assert_array_equal(got[guarded], ref[guarded])
        assert (got >= 0).all()
        assert guarded.sum() < g - 10 and (got[~guarded] >= guard).all()


def longdouble_harmonics(theta, lo, hi):
    """cos and sin(m theta) for m = lo..hi-1, with m theta and both functions in long double."""
    angles = np.arange(lo, hi, dtype=np.longdouble)[:, None] * wrap_angle(theta).astype(np.longdouble)
    return np.cos(angles), np.sin(angles)


def longdouble_moments(theta, orders, rows=32):
    """``_sample_moments`` of one sample in long double, ``rows`` orders at a time."""
    out = np.empty(orders, dtype=complex)
    for lo in range(0, orders, rows):
        hi = min(lo + rows, orders)
        cos, sin = longdouble_harmonics(theta, lo, hi)
        out.real[lo:hi] = cos.mean(axis=1)
        out.imag[lo:hi] = -sin.mean(axis=1)
    return out


def longdouble_cos_sum_table(theta, orders):
    """T[m, i] = sum_j cos(m (Theta_i - Theta_j)), m < orders, in long double."""
    cos, sin = longdouble_harmonics(theta, 0, orders)
    return cos * cos.sum(axis=1, keepdims=True) + sin * sin.sum(axis=1, keepdims=True)


def assert_cosine_sums(theta, orders):
    """``_cosine_sums`` against coef @ T in long double, for LCV's rows at three nu and a random row.

    Each T[m, i] is 2 n products of harmonics, each within the harmonic
    bound, so S = coef @ T is within sum |coef_m| 2 n of that bound.
    """
    table = longdouble_cos_sum_table(theta, orders)
    coefs = _kernel_coefficients(np.array([0.5, 20.0, 1e3]), orders)
    coefs[:, 1:] *= 2.0
    coefs = np.vstack([coefs, make_rng(7, orders).uniform(-1.0, 1.0, orders)])
    sums = kmod._cosine_sums(theta, orders)
    for coef in coefs:
        ref = (coef.astype(np.longdouble) @ table).astype(float)
        atol = np.abs(coef).sum() * 2 * theta.size * harmonic_bound(orders)
        np.testing.assert_allclose(sums(coef), ref, rtol=0, atol=atol)


def harmonic_bound(orders):
    """Absolute error allowed in cos and sin(m theta), m < orders, 0 <= theta < 2 pi.

    Rounding m theta to float64 moves it by up to pi m eps, so the direct
    np.cos(m * theta) cannot do better. The tables round B theta instead
    (pi g B eps after the g-th power) and add up to 4 (g + j) eps in their
    powers (``_trig_table``), so where both worst cases meet they could
    pass this bound by about 4 g eps; the moments here use at most 9% of it.
    """
    return (np.pi * orders + 4) * np.finfo(float).eps


class TestBlocks:
    """Each blocked reduction in kde, in blocks, against a whole-matrix reference.

    ``_CHUNK_CELLS`` is patched to 1000 cells, so that n = 250 runs in kernel
    blocks of 4 rows and the last block is partial. With 30 orders the
    tables hold B = 6 low and Q = 5 high orders, and ``_table_pieces`` cuts
    the sample into 8 pieces of 33 observations, the last partial.
    """

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kmod, "_CHUNK_CELLS", 1000)
        return get_model("M12").sample(250, make_rng(3, 12))

    def test_harmonic_blocks(self, small_blocks):
        """cos and sin(m Theta_i), m = g B + j, by angle addition from one
        observation's columns of its piece's two tables, and their sums over
        the pieces of ``_table_pieces``."""
        orders = 30
        base, groups, _ = kmod._table_layout(orders)
        pieces = list(kmod._table_pieces([small_blocks], orders))
        assert [high.shape[1] for _, high, _ in pieces] == [33] * 7 + [19]
        cos, sin = longdouble_harmonics(small_blocks, 0, base * groups)
        bound = harmonic_bound(base * groups)
        for start, (_, high, low) in zip(range(0, 250, 33), pieces):
            for k in range(high.shape[1]):
                c, s = kmod._angle_addition(high[:, k : k + 1] @ low[:, k : k + 1].T)
                np.testing.assert_allclose(c.ravel(), cos[:, start + k].astype(float), rtol=0, atol=bound)
                np.testing.assert_allclose(s.ravel(), sin[:, start + k].astype(float), rtol=0, atol=bound)
        c, s = kmod._angle_addition(sum(high @ low.T for _, high, low in pieces))
        atol = small_blocks.size * bound
        np.testing.assert_allclose(c.ravel(), cos.sum(axis=1).astype(float), rtol=0, atol=atol)
        np.testing.assert_allclose(s.ravel(), sin.sum(axis=1).astype(float), rtol=0, atol=atol)

    def test_trig_moments(self, small_blocks):
        orders = 30
        got = kmod._sample_moments([small_blocks], orders)[0]
        np.testing.assert_allclose(got, longdouble_moments(small_blocks, orders), rtol=0, atol=harmonic_bound(orders))
        assert got[0] == 1.0

    def test_cos_sum_table(self, small_blocks):
        assert kmod._table_layout(30) == (6, 5, 33)  # B, Q and 8 blocks of observations
        assert_cosine_sums(small_blocks, 30)

    @pytest.mark.parametrize("nu", [8.0, 1e3])
    def test_direct_sums(self, small_blocks, nu):
        # descending and strided, so block k's rows are not rows k*4 .. k*4+3
        rows = np.arange(3, small_blocks.size, 7)[::-1]
        assert (kmod._CHUNK_CELLS // small_blocks.size, rows.size) == (4, 36)  # 9 blocks of 4 rows
        d = 0.5 * small_blocks[rows, None] - 0.5 * small_blocks[None, :]
        w = np.exp(np.sin(d) ** 2 * (-2.0 * nu))
        ref = np.where(rows[:, None] == np.arange(small_blocks.size), 0.0, w).sum(axis=1)
        got = kmod._kernel_sums(small_blocks[rows], small_blocks, nu, rows)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(kmod._kernel_sums(small_blocks[rows], small_blocks, nu), w.sum(axis=1))


class TestTrigTables:
    """The moments and LCV's cosine sums at the largest orders and samples, with default blocks."""

    @pytest.mark.parametrize("orders,n", [(2799, 50), (2799, 100), (281, 20000)])
    def test_trig_moments(self, orders, n):
        # K = 2799 is _order_count(KAPPA_CAP); 281 is LCV's K at n = 100,000.
        theta = get_model("M16").sample(n, make_rng(6, 16, n))
        got = kmod._sample_moments([theta], orders)[0]
        np.testing.assert_allclose(got, longdouble_moments(theta, orders), rtol=0, atol=harmonic_bound(orders))

    @pytest.mark.parametrize("orders,n", [(2799, 50), (2799, 100)])
    def test_cos_sum_table(self, orders, n):
        assert_cosine_sums(get_model("M16").sample(n, make_rng(6, 16, n)), orders)

    def test_trig_moments_memory(self):
        # Unblocked, the two tables would take 2 (B + Q) n floats (54 MB here)
        # and the K x n harmonics 225 MB each; blocked, the sample's copies dominate.
        theta = get_model("M16").sample(100_000, make_rng(6, 16))
        tracemalloc.start()
        try:
            kmod._sample_moments([theta], 281)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * theta.nbytes + 4 * 8 * kmod._CHUNK_CELLS

    @pytest.mark.parametrize("count,step", [(53, 1), (53, 53), (17, 17), (1, 9)])
    def test_table_rows_match_longdouble(self, count, step):
        # Row k within k (pi step + 4) eps, the bound in _trig_table's docstring;
        # 53 is B and Q at K = 2799. Angles near 2 pi round step theta the most.
        rng = make_rng(9, count, step)
        near_top = np.nextafter(TWO_PI, 0.0) - rng.uniform(0.0, 1e-3, 20)
        theta = np.concatenate([rng.uniform(0.0, TWO_PI, 300), near_top])
        table = kmod._trig_table(theta, count, step)
        angles = (step * np.arange(count, dtype=np.longdouble))[:, None] * theta.astype(np.longdouble)
        err = np.maximum(
            np.abs(table[:count] - np.cos(angles)), np.abs(table[count:] - np.sin(angles))
        ).max(axis=1)
        k = np.arange(count)
        assert err[0] == 0.0
        assert (err <= k * (np.pi * step + 4) * np.finfo(float).eps).all(), err

    def test_table_blocks_are_bit_identical(self, monkeypatch):
        # 1000 cells hold 58 observations of a 17-row table, so 2000 run in 35 blocks, the last partial
        theta = wrap_angle(get_model("M16").sample(2000, make_rng(6, 16, 2000)))
        whole = [kmod._trig_table(theta, 17, 17), kmod._trig_table(theta, 17, 1)]
        monkeypatch.setattr(kmod, "_CHUNK_CELLS", 1000)
        np.testing.assert_array_equal(kmod._trig_table(theta, 17, 17), whole[0])
        np.testing.assert_array_equal(kmod._trig_table(theta, 17, 1), whole[1])

    def test_table_memory(self):
        # LCV's two tables at n = 100,000 (K = 281, B = Q = 17): 2 (B + Q) n floats
        # plus one complex scratch block; unblocked, the scratch would add 27 MB per table.
        theta = get_model("M16").sample(100_000, make_rng(6, 16))
        base, groups, _ = kmod._table_layout(281)
        tracemalloc.start()
        try:
            high = kmod._trig_table(theta, groups, base)
            low = kmod._trig_table(theta, base, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (base, groups) == (17, 17)
        assert peak < high.nbytes + low.nbytes + 3 * 16 * kmod._CHUNK_CELLS


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
    # nu = 1e5 keeps 2,799 orders, more than half of every gridsize here, and
    # nu = 30 keeps 53, so at 8 and 64 those pairs raise (at 8 every pair does).
    @pytest.mark.parametrize("gridsize", [8, 64, 512, 1024])
    @pytest.mark.parametrize("mid", ["M1", "M2", "M7", "M16", "M20"])
    def test_matches_grid_ise(self, mid, gridsize):
        model = get_model(mid)
        truth = density_grid_of(model, gridsize)
        sample = model.sample(100, make_rng(8, int(mid[1:])))
        nus = [nu for nu in MOMENT_NUS if 2 * _order_count(nu) <= gridsize]
        for nu in MOMENT_NUS:
            if nu not in nus:
                with pytest.raises(ValueError, match=f"G = {gridsize} "):
                    oracle_mise_curve([sample], truth, np.array([nu]))
        expected = np.array([direct_ise(sample, nu, truth) for nu in nus])
        # each nu alone and all at once (orders sized by the largest)
        alone = [oracle_mise_curve([sample], truth, np.array([nu]))[0, 0] for nu in nus]
        np.testing.assert_allclose(alone, expected, rtol=1e-10, atol=0)
        if nus:
            together = oracle_mise_curve([sample], truth, np.array(nus))[0]
            np.testing.assert_allclose(together, expected, rtol=1e-10, atol=0)

    def test_zero_nu_against_uniform_truth(self, m2_sample):
        truth = density_grid_of(get_model("M1"), 1024)
        (got,) = oracle_mise_curve([m2_sample], truth, np.array([0.0]))[0]
        assert direct_ise(m2_sample, 0.0, truth) == 0.0
        assert abs(got) <= 1e-15

    def test_aliased_orders_raise(self, m2_sample):
        # K = 200 at nu = 500 aliases at every gridsize here, so the whole curve,
        # the small nu too, is refused.
        nus = np.array([0.5, 30.0, 500.0])
        assert _order_count(500.0) == 200
        for g in (8, 64, 128, 256):
            truth = density_grid_of(get_model("M2"), g)
            with pytest.raises(ValueError, match=f"K = 200 orders at nu = 500 alias on a truth grid of G = {g} "):
                oracle_mise_curve([m2_sample, m2_sample[:37]], truth, nus)
        assert oracle_mise_curve([m2_sample], density_grid_of(get_model("M2"), 512), nus).shape == (1, 3)

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


def parseval_curve(samples, truth, nus):
    """The ISE curve one replicate at a time, by Parseval over the unfolded spectrum rho phi (2 K <= G)."""
    g = truth.gridsize
    rho = _kernel_coefficients(nus)
    gamma = np.fft.rfft(truth.values) * (TWO_PI / g)
    weights = np.full(g // 2 + 1, 2.0)
    weights[[0, g // 2]] = 1.0
    spectrum = np.zeros((nus.size, g // 2 + 1), dtype=complex)
    out = []
    for sample in samples:
        spectrum[:, : rho.shape[1]] = rho * kmod._sample_moments([sample], rho.shape[1])[0]
        diff = spectrum - gamma
        out.append((diff.real**2 + diff.imag**2) @ weights / TWO_PI)
    return np.array(out)


class TestOracleBlocks:
    """``oracle_mise_curve``'s quadratic form and its blocks of replicates."""

    @pytest.mark.parametrize("n", [100, 250, 500])
    @pytest.mark.parametrize("mid", ["M1", "M2", "M7", "M17", "M20"])
    def test_quadratic_form_matches_fold_loop(self, mid, n):
        model = get_model(mid)
        truth = density_grid_of(model, 1024)
        samples = [model.sample(n, make_rng(20260810, int(mid[1:]), n, r)) for r in range(20)]
        nus = NuSearchDomain.for_sample_size(n).probes()
        assert 2 * _order_count(nus.max()) <= truth.gridsize  # no aliasing
        got = oracle_mise_curve(samples, truth, nus)
        np.testing.assert_allclose(got, parseval_curve(samples, truth, nus), rtol=1e-12, atol=0)

    def test_blocks_are_bit_identical(self, monkeypatch):
        # At nu <= 5 (K = 26, B = 6, Q = 5) and 1000 cells, a product and a table
        # pass take at most 33 observations, so these replicates, 1 to 33 long, are
        # one product each at both sizes: only the table passes they share change.
        model = get_model("M7")
        rng = make_rng(4, 7)
        samples = [model.sample(int(n), rng) for n in rng.integers(1, 34, 80)]
        nus = np.geomspace(0.05, 5.0, 12)
        truth = density_grid_of(model, 1024)
        whole = oracle_mise_curve(samples, truth, nus)
        monkeypatch.setattr(kmod, "_CHUNK_CELLS", 1000)
        assert kmod._table_layout(_order_count(5.0)) == (6, 5, 33)
        np.testing.assert_array_equal(oracle_mise_curve(samples, truth, nus), whole)

    def test_moments_do_not_depend_on_the_batch(self):
        # Each sample is cut into the same products alone or among others
        # (n = 2000 into three), so its moments keep their bits.
        model = get_model("M7")
        samples = [model.sample(n, make_rng(5, n)) for n in (1, 30, 250, 2000, 7)]
        got = kmod._sample_moments(samples, 87)
        assert kmod._table_layout(87)[2] < 2000
        for row, sample in zip(got, samples):
            np.testing.assert_array_equal(row, kmod._sample_moments([sample], 87)[0])

    def test_curve_memory(self):
        # 1,000 replicates of 500 observations: unblocked, the two tables would take
        # 2 (B + Q) n floats, 160 MB; blocked, one copy of the angles (4 MB) and
        # the per-replicate products and moments dominate (9.3 MB in all).
        model = get_model("M20")
        samples = [model.sample(500, make_rng(7, r)) for r in range(1000)]
        truth = density_grid_of(model, 1024)
        nus = NuSearchDomain.for_sample_size(500).probes()
        tracemalloc.start()
        try:
            curve = oracle_mise_curve(samples, truth, nus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        angles = 8 * 500 * 1000
        assert curve.shape == (1000, nus.size)
        assert peak < 3 * angles, peak
