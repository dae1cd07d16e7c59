import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e, ive

from conftest import series_bessel_i

from circkde import bessel
from circkde.bessel import (
    KAPPA_CAP,
    OVERFLOW_THRESHOLD,
    _BATCH_NUS,
    _R_NODES,
    _RHO_FLOOR,
    _check_concentration,
    _kernel_coefficients,
    _newton_start,
    _order_count,
    bessel_i,
    inverse_mean_resultant_ratio,
    is_saturated,
    mean_resultant_ratio,
)
from circkde.em import log_likelihood
from circkde.kde import KdeFit, kde_evaluate
from circkde.models import TWO_PI, VonMises, VonMisesMixture
from circkde.selectors import amise
from circkde.simulate import default_oracle_grid


class TestBesselI:
    def test_order_zero_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0

    def test_order_one_at_zero(self):
        assert bessel_i(1, 0.0) == 0.0

    @pytest.mark.parametrize("r,x", [(0, 1.0), (2, 2.0), (1, 0.5), (2, 10.0)])
    def test_matches_power_series(self, r, x):
        assert bessel_i(r, x) == pytest.approx(series_bessel_i(r, x), rel=1e-12)

    def test_series_accuracy_over_range(self):
        for r in (0, 1, 2):
            for x in np.linspace(0.1, 50.0, 40):
                assert bessel_i(r, x) == pytest.approx(series_bessel_i(r, x), rel=1e-12)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            bessel_i(0, OVERFLOW_THRESHOLD + 10.0)

    def test_nan_rejected(self):
        # NaN fails every comparison, so it must not slip through as I_r(NaN) = NaN
        with pytest.raises(ValueError):
            bessel_i(0, math.nan)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -0.5)

    @given(
        r=st.integers(min_value=0, max_value=3),
        x1=st.floats(min_value=1e-3, max_value=49.0),
        bump=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_argument(self, r, x1, bump):
        assert bessel_i(r, x1 + bump) > bessel_i(r, x1)

    @given(x=st.floats(min_value=1e-6, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_order_decreasing(self, x):
        i0, i1, i2 = (bessel_i(r, x) for r in (0, 1, 2))
        assert i0 > i1 > i2

    def test_recurrence_identity(self):
        # I0(x) - I2(x) == (2/x) I1(x)
        for x in np.linspace(0.1, 50.0, 60):
            lhs = bessel_i(0, x) - bessel_i(2, x)
            rhs = 2.0 / x * bessel_i(1, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestScaled:
    """exp(-x) I_r(x) where the library uses it: normalizers, A(kappa), AMISE."""

    def test_at_zero(self):
        # i0e(0) = 1: the nu = 0 kernel estimate is exactly uniform
        assert kde_evaluate(KdeFit([1.0], 0.0), 2.0) == 1.0 / TWO_PI

    def test_scaled_value_example(self):
        # the mode of vM(0, 1) is exp(1) / (2 pi I0(1))
        assert VonMises(0.0, 1.0).density(0.0) == pytest.approx(
            math.exp(1.0) / (TWO_PI * series_bessel_i(0, 1.0)), rel=1e-12
        )

    def test_large_argument_via_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        expected = float(mp.besseli(1, 50) / mp.besseli(0, 50))
        assert mean_resultant_ratio(50.0) == pytest.approx(expected, rel=1e-12)
        n, curvature = 100, 3.0
        bias = (1 - mp.besseli(2, 50) / mp.besseli(0, 50)) ** 2 / 16 * curvature
        variance = mp.besseli(0, 100) / (2 * n * mp.pi * mp.besseli(0, 50) ** 2)
        assert amise(50.0, n, curvature) == pytest.approx(float(bias + variance), rel=1e-12)

    def test_finite_for_huge_arguments(self):
        for kappa in (1e3, 1e4, KAPPA_CAP):
            mode = VonMises(0.0, kappa).density(0.0)
            # 1 / (2 pi i0e(kappa)) ~ sqrt(kappa / (2 pi)) (1 - 1 / (8 kappa))
            assert mode == pytest.approx(math.sqrt(kappa / TWO_PI), rel=1e-3)
            assert kde_evaluate(KdeFit([0.0], kappa), 0.0) == pytest.approx(mode, rel=1e-15)
            assert 0.0 <= VonMises(0.0, kappa).density(math.pi) < 1e-300

    def test_scaling_consistency(self):
        for x in np.linspace(0.1, 50.0, 40):
            assert mean_resultant_ratio(x) == pytest.approx(
                bessel_i(1, x) / bessel_i(0, x), rel=1e-10
            )

    def test_log_property(self):
        # log vM(0, 30) at its mode is 30 - log(2 pi) - log I0(30)
        mix = VonMisesMixture([1.0], [0.0], [30.0])
        expected = 30.0 - math.log(TWO_PI) - math.log(series_bessel_i(0, 30.0))
        assert log_likelihood([0.0], mix) == pytest.approx(expected, rel=1e-12)


class TestMeanResultantRatio:
    def test_zero(self):
        assert mean_resultant_ratio(0.0) == 0.0

    def test_series_value(self):
        expected = series_bessel_i(1, 1.0) / series_bessel_i(0, 1.0)
        assert mean_resultant_ratio(1.0) == pytest.approx(expected, rel=1e-12)

    def test_large_kappa_asymptotic(self):
        # A(kappa) ~ 1 - 1/(2 kappa)
        a = mean_resultant_ratio(100.0)
        assert 0.99 < a < 1.0
        assert a == pytest.approx(1.0 - 1.0 / 200.0, abs=2e-5)

    def test_strictly_increasing(self):
        ks = np.linspace(0.0, 50.0, 200)
        vals = mean_resultant_ratio(ks)
        assert np.all(np.diff(vals) > 0)

    def test_vectorized(self):
        out = mean_resultant_ratio(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)

    def test_infinite_kappa_is_one(self):
        # i1e and i0e both vanish at infinity; A(inf) is the limit 1, with no warning
        assert mean_resultant_ratio(math.inf) == 1.0
        np.testing.assert_array_equal(
            mean_resultant_ratio(np.array([1.0, math.inf])), [mean_resultant_ratio(1.0), 1.0]
        )

    def test_negative_rejected(self):
        for kappa in (-0.1, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError):
                mean_resultant_ratio(kappa)


class TestInverse:
    def test_zero(self):
        assert inverse_mean_resultant_ratio(0.0) == 0.0

    def test_known_point(self):
        assert inverse_mean_resultant_ratio(0.4463899658965345) == pytest.approx(1.0, rel=1e-8)

    def test_saturation(self):
        k = inverse_mean_resultant_ratio(0.999999)
        assert k == KAPPA_CAP
        assert is_saturated(k)
        assert inverse_mean_resultant_ratio(1.0) == KAPPA_CAP

    def test_negative_rejected(self):
        # NaN fails every comparison, so it must not slip through as kappa = 0
        for rbar in (-0.1, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                inverse_mean_resultant_ratio(rbar)

    def test_round_trip(self):
        for kappa in np.geomspace(0.01, 100.0, 60):
            rbar = mean_resultant_ratio(kappa)
            assert inverse_mean_resultant_ratio(rbar) == pytest.approx(kappa, rel=1e-6)

    def test_solver_tolerance(self):
        for rbar in np.linspace(0.01, 0.99, 50):
            k = inverse_mean_resultant_ratio(rbar)
            assert abs(mean_resultant_ratio(k) - rbar) < 1e-10

    def test_vectorized_matches_scalar(self):
        # Entry-wise iteration counts differ, so agreement is to solver tol.
        rbars = np.array([0.0, 0.2, 0.7, 0.95])
        vec = inverse_mean_resultant_ratio(rbars)
        for r, k in zip(rbars, vec):
            assert k == pytest.approx(inverse_mean_resultant_ratio(float(r)), rel=1e-9, abs=1e-12)

    def test_empty_gives_empty(self):
        out = inverse_mean_resultant_ratio(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("rbar", [0.0, 0.3, 1.0])
    def test_scalar_gives_float(self, rbar):
        for arg in (rbar, np.asarray(rbar), np.float64(rbar)):
            out = inverse_mean_resultant_ratio(arg)
            assert type(out) is float
            assert out == inverse_mean_resultant_ratio(np.array([rbar]))[0]

    @pytest.mark.parametrize("rbar", [[[0.1, 0.5, 0.9], [0.2, 0.3, 0.4]], [[0.0, 0.5], [1.0, 0.7]]])
    def test_2d_keeps_shape(self, rbar):
        r = np.array(rbar)
        out = inverse_mean_resultant_ratio(r)
        assert out.shape == r.shape
        np.testing.assert_array_equal(out.ravel(), inverse_mean_resultant_ratio(r.ravel()))

    def test_interior_batch_as_with_zero_and_saturated(self):
        # All-interior input and the same entries between a zero and a
        # saturated value run the same Newton batch, so agree bit for bit.
        r = np.random.default_rng(3).uniform(1e-9, 0.999, 40)
        both = inverse_mean_resultant_ratio(np.concatenate(([0.0], r, [1.0])))
        assert both[0] == 0.0 and both[-1] == KAPPA_CAP
        np.testing.assert_array_equal(both[1:-1], inverse_mean_resultant_ratio(r))


    @pytest.fixture(scope="class")
    def sweep(self):
        """A dense sweep over (0, A(KAPPA_CAP)), geometric below 1e-3.

        It includes every interior node of the start table and every
        interval's midpoint, where the interpolated start is farthest off.
        """
        a_cap = mean_resultant_ratio(KAPPA_CAP)
        nodes = _R_NODES
        r = np.sort(np.concatenate([
            np.geomspace(1e-300, 1e-3, 2000, endpoint=False),
            np.linspace(1e-3, a_cap, 200_001)[:-1],
            nodes[1:-1],
            0.5 * (nodes[:-1] + nodes[1:]),
        ]))
        assert r.size == 204_047 and r[-1] < a_cap
        return r, inverse_mean_resultant_ratio(r)

    def test_sweep_meets_tolerance_and_is_monotone(self, sweep):
        r, k = sweep
        assert np.all(np.abs(mean_resultant_ratio(k) - r) < 1e-12)
        assert np.all(np.diff(k) >= 0)

    def test_tabulated_start_is_close(self, sweep):
        # A^{-1} takes one Newton step from this start, which lies within 1e-6 of its result.
        r, k = sweep
        np.testing.assert_allclose(_newton_start(r), k, rtol=1e-6, atol=0)

    def test_newton_step_stays_near_its_start(self):
        # The step moves no start by more than 1e-6 of itself, from the smallest
        # subnormal to the last double below A(KAPPA_CAP), so kappa stays positive
        # with no floor under the iterate.
        a_cap = mean_resultant_ratio(KAPPA_CAP)
        nodes = _R_NODES
        r = np.unique(np.concatenate([
            [5e-324, np.nextafter(a_cap, 0.0)],
            np.geomspace(5e-324, 1e-3, 1000, endpoint=False),
            np.linspace(1e-3, a_cap, 20_001)[:-1],
            a_cap - np.geomspace(1e-6, 1e-16, 2000),
            nodes[1:-1],
            0.5 * (nodes[:-1] + nodes[1:]),
        ]))
        assert r[0] == 5e-324 and r[-1] == np.nextafter(a_cap, 0.0)
        start = _newton_start(r)
        k = inverse_mean_resultant_ratio(r)
        assert np.all(np.abs(k - start) <= 1e-6 * start)
        assert np.all(k > 0.0) and np.all(k <= KAPPA_CAP)

    # One Newton step from a start within 1e-6 relative squares that error;
    # the docstring's 2.4e-14 is checked at small rbar below, 1e-10 here.
    @pytest.mark.parametrize(
        "rbar", [1e-6, 0.01, 0.1, 0.3, 0.45, 0.53, 0.7, 0.85, 0.9, 0.95, 0.99]
    )
    def test_matches_mpmath_root(self, rbar):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        k = inverse_mean_resultant_ratio(rbar)
        root = mp.findroot(lambda x: mp.besseli(1, x) / mp.besseli(0, x) - rbar, k)
        assert k == pytest.approx(float(root), rel=1e-10)

    @pytest.mark.parametrize("rbar", [1e-9, 1e-7, 1e-5])
    def test_newton_step_alone_and_batched(self, rbar):
        # Every value takes the step: kappa does not depend on the values beside
        # it, and keeps no start that is already close in A but not in kappa.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        k = inverse_mean_resultant_ratio(rbar)
        assert inverse_mean_resultant_ratio(np.array([rbar, 0.5]))[0] == k
        root = mp.findroot(lambda x: mp.besseli(1, x) / mp.besseli(0, x) - rbar, k)
        assert k == pytest.approx(float(root), rel=1e-14)

    def test_table_nodes_alone_and_batched(self):
        nodes = _R_NODES[1:-1]
        batched = inverse_mean_resultant_ratio(np.column_stack([nodes, np.full(nodes.size, 0.5)]))[:, 0]
        np.testing.assert_array_equal([inverse_mean_resultant_ratio(r) for r in nodes.tolist()], batched)

    @pytest.mark.parametrize("rbar", [5e-324, 1e-310, 1e-300, 1e-20])
    def test_tiny_rbar_is_twice_rbar(self, rbar):
        # A(kappa) = kappa / 2 + O(kappa^3); no overflow from a 1 / r term.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = inverse_mean_resultant_ratio(rbar)
        assert k == pytest.approx(2.0 * rbar, rel=1e-12)


class TestOrderCount:
    @staticmethod
    def full_scan(nu: float) -> int:
        """First order with rho_m(nu) <= the floor, from one pass over 4,096 orders."""
        rho = ive(np.arange(4096), nu) / i0e(nu)
        return int(np.flatnonzero(rho <= _RHO_FLOOR)[0])

    def test_matches_full_scan(self):
        nus = np.append(np.logspace(-3, math.log10(KAPPA_CAP), 401), [91.0, 209.0])
        got = [_order_count(nu) for nu in nus]
        assert got == [self.full_scan(nu) for nu in nus]
        # The grid reaches the first and the last order of the block [64, 128).
        assert {64, 127} <= set(got)
        assert got[400] == 2799  # at KAPPA_CAP

    @pytest.mark.parametrize("nu", [0.0, 5e-324])
    def test_one_order_at_zero_and_least_subnormal_nu(self, nu):
        # rho_1 is 0 at nu = 0 and underflows at 5e-324, where 2 m / nu overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _order_count(nu) == 1 == self.full_scan(nu)

    def test_search_runs_on_recurrence_rows(self, monkeypatch):
        # ive seeds each row with one pair of orders; it never scans a range of them.
        calls = []

        def spy(order, nu):
            calls.append(np.ndim(order))
            return ive(order, nu)

        monkeypatch.setattr(bessel, "ive", spy)
        assert _order_count(KAPPA_CAP) == 2799
        assert calls and not any(calls)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -1.0, KAPPA_CAP * (1 + 1e-15)])
    def test_outside_range_rejected(self, nu):
        # At NaN or inf no order meets the floor, and the scan would grow without end.
        with pytest.raises(ValueError):
            _order_count(nu)


class TestCheckConcentration:
    @pytest.mark.parametrize("value", [0.0, 5e-324, 1.0, KAPPA_CAP, np.array([0.0, 3.0, KAPPA_CAP]), np.empty(0)])
    def test_inside_accepted(self, value):
        _check_concentration(value, "kappa")

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, -5e-324, KAPPA_CAP * (1 + 1e-15), np.array([[1.0, 2.0], [math.nan, 3.0]])],
    )
    def test_outside_rejected(self, value):
        with pytest.raises(ValueError, match=r"kappa must lie in \[0, 100000.0\]"):
            _check_concentration(value, "kappa")


# nu where rho is checked against mpmath: small, the ORACLE and LCV ranges, and the cap.
RHO_NUS = (0.01, 0.3, 1.0, 7.7, 63.1, 91.0, 209.1, 1500.0, 1e4, KAPPA_CAP)


@pytest.fixture(scope="module")
def mpmath_rho():
    """{nu: (orders, rho at those orders)} to 30 digits, orders sampled up to _order_count(KAPPA_CAP).

    mpmath's I_m series needs about nu terms when m is near K, which takes
    seconds per order at nu = KAPPA_CAP. There the reference is the integral
    I_m(nu) e^-nu = (1 / pi) int_0^pi e^{nu (cos t - 1)} cos(m t) dt, whose
    integrand is below 1e-78 past t = 0.06.
    """
    mp = pytest.importorskip("mpmath")
    top = _order_count(KAPPA_CAP)
    out = {}
    with mp.workdps(40):
        for nu in RHO_NUS:
            own = _order_count(nu)
            orders = np.unique(np.r_[np.linspace(0, own - 1, 9), np.linspace(0, top - 1, 9)].astype(int))
            if nu < 1e5:
                i0 = mp.besseli(0, nu)
                ref = [mp.besseli(int(m), nu, maxterms=10**6) / i0 for m in orders]
            else:
                nodes = mp.linspace(0, 0.06, 61)

                def scaled(m):
                    return mp.quad(lambda t: mp.exp(nu * (mp.cos(t) - 1)) * mp.cos(m * t), nodes)

                i0 = scaled(0)
                ref = [scaled(int(m)) / i0 for m in orders]
            out[nu] = orders, np.array([float(r) for r in ref])
    return out


class TestKernelCoefficients:
    @staticmethod
    def assert_close(got, ref, rel):
        """Relative error <= rel where rho >= 1e-280, absolute error <= 1e-15 everywhere."""
        err = np.abs(got - ref)
        kept = ref >= 1e-280
        assert np.all(err[kept] <= rel * ref[kept])
        assert np.all(err <= 1e-15)

    @pytest.mark.parametrize("nu", RHO_NUS)
    def test_one_nu_matches_mpmath(self, nu, mpmath_rho):
        orders, ref = mpmath_rho[nu]
        own = orders < _order_count(nu)
        self.assert_close(_kernel_coefficients(np.array([nu]))[0][orders[own]], ref[own], 5e-14)

    def test_batch_matches_mpmath(self, mpmath_rho):
        # One batch of all ten at the cap's order count: small nu reach far below 1e-280.
        assert len(RHO_NUS) >= _BATCH_NUS  # the vectorized loop
        rho = _kernel_coefficients(np.array(RHO_NUS))
        assert rho.shape[1] == _order_count(KAPPA_CAP)
        for row, nu in zip(rho, RHO_NUS):
            orders, ref = mpmath_rho[nu]
            own = orders < _order_count(nu)
            self.assert_close(row[orders[own]], ref[own], 5e-14)
            # Past a nu's own order count the start pair's error, which is
            # ive's (8e-13 at nu = 1e4, K = 2,799), reaches the last orders,
            # where rho is below 1e-17.
            self.assert_close(row[orders[~own]], ref[~own], 1e-12)

    @pytest.mark.parametrize("n", [100, 250])
    def test_oracle_batch_rows_equal_one_nu_rows(self, n):
        nus = default_oracle_grid(n)
        assert nus.size >= _BATCH_NUS
        batch = _kernel_coefficients(nus)
        alone = np.array([_kernel_coefficients(np.array([nu]), batch.shape[1])[0] for nu in nus])
        assert np.array_equal(batch, alone)

    def test_curvature_input_equal_on_both_loops(self, monkeypatch):
        kappas = np.array([0.5, 40.0, KAPPA_CAP])
        by_float = _kernel_coefficients(kappas)
        alone = [_kernel_coefficients(kappas[i : i + 1], by_float.shape[1])[0] for i in range(3)]
        monkeypatch.setattr(bessel, "_BATCH_NUS", 1)
        assert np.array_equal(_kernel_coefficients(kappas), by_float)
        assert np.array_equal(by_float, alone)

    @pytest.mark.parametrize("size", [2, 12])
    def test_zero_nu_row(self, size):
        unit = np.zeros(5)
        unit[0] = 1.0
        assert np.array_equal(_kernel_coefficients(np.array([0.0]), 5), [unit])
        assert np.array_equal(_kernel_coefficients(np.array([0.0])), [[1.0]])
        nus = np.geomspace(0.1, 10.0, size)
        nus[size // 2] = 0.0
        rho = _kernel_coefficients(nus, 5)
        assert np.array_equal(rho[size // 2], unit)
        others = np.delete(nus, size // 2)
        assert np.array_equal(np.delete(rho, size // 2, axis=0), _kernel_coefficients(others, 5))

    def test_one_order(self):
        assert np.array_equal(_kernel_coefficients(np.array([0.5, 3.0]), 1), [[1.0], [1.0]])

    def test_no_warning_where_ive_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = _kernel_coefficients(np.array([0.01]), _order_count(KAPPA_CAP))
            rho = _kernel_coefficients(np.geomspace(0.01, KAPPA_CAP, 50))
        assert small[0, -1] == 0.0 and np.all(np.isfinite(rho))
        assert np.array_equal(small[0], rho[0])


def test_kappa_cap_large_enough():
    assert KAPPA_CAP >= 1e4
