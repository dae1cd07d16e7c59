import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_bessel_i

from circkde.bessel import (
    KAPPA_CAP,
    OVERFLOW_THRESHOLD,
    _newton_start,
    bessel_i,
    inverse_mean_resultant_ratio,
    is_saturated,
    mean_resultant_ratio,
)
from circkde.em import log_likelihood
from circkde.kde import KdeFit, kde_evaluate
from circkde.models import TWO_PI, VonMises, VonMisesMixture
from circkde.selectors import amise


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
        with pytest.raises(ValueError):
            inverse_mean_resultant_ratio(-0.1)

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


    @pytest.fixture(scope="class")
    def sweep(self):
        """A dense sweep over (0, A(KAPPA_CAP)), geometric below 1e-3."""
        a_cap = mean_resultant_ratio(KAPPA_CAP)
        r = np.concatenate(
            [np.geomspace(1e-300, 1e-3, 2000, endpoint=False), np.linspace(1e-3, a_cap, 200_001)[:-1]]
        )
        return r, inverse_mean_resultant_ratio(r)

    def test_sweep_meets_tolerance_and_is_monotone(self, sweep):
        r, k = sweep
        assert np.all(np.abs(mean_resultant_ratio(k) - r) < 1e-12)
        assert np.all(np.diff(k) >= 0)

    def test_tabulated_start_is_close(self, sweep):
        # One Newton step from within 1e-6 meets the 1e-12 stop rule.
        r, k = sweep
        np.testing.assert_allclose(_newton_start(r), k, rtol=1e-6, atol=0)

    # The stop rule bounds kappa's error by 1e-12 / A'(kappa), about
    # 2 kappa^2 1e-12: 1e-10 relative up to kappa = 50 (rbar = 0.99).
    @pytest.mark.parametrize(
        "rbar", [1e-6, 0.01, 0.1, 0.3, 0.45, 0.53, 0.7, 0.85, 0.9, 0.95, 0.99]
    )
    def test_matches_mpmath_root(self, rbar):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        k = inverse_mean_resultant_ratio(rbar)
        root = mp.findroot(lambda x: mp.besseli(1, x) / mp.besseli(0, x) - rbar, k)
        assert k == pytest.approx(float(root), rel=1e-10)

    @pytest.mark.parametrize("rbar", [5e-324, 1e-310, 1e-300, 1e-20])
    def test_tiny_rbar_is_twice_rbar(self, rbar):
        # A(kappa) = kappa / 2 + O(kappa^3); no overflow from a 1 / r term.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = inverse_mean_resultant_ratio(rbar)
        assert k == pytest.approx(2.0 * rbar, rel=1e-12)


def test_kappa_cap_large_enough():
    assert KAPPA_CAP >= 1e4
