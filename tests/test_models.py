import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import chi_square_gof_pvalue, circular_distance, series_bessel_i

from circkde.bessel import KAPPA_CAP, mean_resultant_ratio
from circkde.catalogue import CATALOGUE, MODEL_IDS, catalogue_json, get_model
from circkde.models import (
    Cardioid,
    CircularUniform,
    ModelSpec,
    TWO_PI,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
    WrappedNormal,
    WrappedSkewNormal,
    curvature_integral,
    wrap_angle,
)
from circkde.rng import make_rng


def grid(m=4096):
    return np.arange(m) * (TWO_PI / m)


def integral(model, m=4096):
    return float(np.atleast_1d(model.density(grid(m))).sum() * TWO_PI / m)


@given(theta=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_wrap_angle_idempotent(theta):
    w = wrap_angle(theta)
    assert 0.0 <= w < TWO_PI
    assert wrap_angle(w) == w


class TestDensities:
    def test_uniform_constant(self):
        assert get_model("M1").density(1.234) == pytest.approx(1.0 / TWO_PI, rel=1e-15)

    def test_von_mises_at_mode(self):
        # vM(pi, 1) at pi: e / (2 pi I0(1)), I0 from the series oracle
        expected = math.e / (TWO_PI * series_bessel_i(0, 1.0))
        assert get_model("M2").density(math.pi) == pytest.approx(expected, rel=1e-12)

    def test_m7_at_zero(self):
        i04 = series_bessel_i(0, 4.0)
        expected = 0.5 * math.exp(4.0) / (TWO_PI * i04) + 0.5 * math.exp(-4.0) / (TWO_PI * i04)
        assert get_model("M7").density(0.0) == pytest.approx(expected, rel=1e-12)

    def test_wrapped_cauchy_closed_form(self):
        wc = WrappedCauchy(mu=0.3, rho=0.8)
        theta = 1.1
        c = math.cos(theta - 0.3)
        expected = (1 - 0.64) / (TWO_PI * (1 + 0.64 - 1.6 * c))
        assert wc.density(theta) == pytest.approx(expected, rel=1e-14)

    def test_cardioid_form(self):
        cd = Cardioid(mu=0.0, rho=0.5)
        assert cd.density(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert cd.density(0.0) == pytest.approx(2.0 / TWO_PI, rel=1e-14)

    def test_wrapped_normal_against_wider_wrap_sum(self):
        wn = WrappedNormal(mu=0.0, rho=0.9)
        sigma = wn.sigma
        for theta in (0.0, 0.4, 3.0, 5.9):
            wide = sum(
                math.exp(-((theta + TWO_PI * k) ** 2) / (2 * sigma**2))
                / (sigma * math.sqrt(TWO_PI))
                for k in range(-12, 13)
            )
            assert wn.density(theta) == pytest.approx(wide, rel=1e-12)

    def test_wrapped_skew_normal_against_quadrature_normalization(self):
        wsn = WrappedSkewNormal(xi=0.0, eta=1.0, lam=20.0)
        val, _ = quad(lambda t: float(wsn.density(t)), 0.0, TWO_PI, limit=400)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_normalization(self, mid):
        assert integral(get_model(mid)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_non_negative(self, mid):
        assert np.all(np.atleast_1d(get_model(mid).density(grid())) >= 0.0)

    @pytest.mark.parametrize("mid", ["M2", "M5", "M7", "M15", "M20"])
    def test_rotation_equivariance(self, mid):
        model = get_model(mid)
        thetas = np.linspace(0, TWO_PI, 17)
        for phi in (0.3, 2.0, 5.1):
            # shift each part's location: xi for the skew-Normal, mu otherwise
            parts = tuple(
                replace(p, xi=p.xi + phi) if isinstance(p, WrappedSkewNormal) else replace(p, mu=p.mu + phi)
                for p in model.parts
            )
            rotated = ModelSpec(model.id, model.weights, parts)
            np.testing.assert_allclose(
                rotated.density(wrap_angle(thetas + phi)),
                model.density(thetas),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Cardioid(0.0, 0.6)
        with pytest.raises(ValueError):
            WrappedNormal(0.0, 1.0)
        with pytest.raises(ValueError):
            WrappedCauchy(0.0, -0.1)
        with pytest.raises(ValueError):
            WrappedSkewNormal(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            VonMises(0.0, -1.0)
        with pytest.raises(ValueError):
            VonMisesMixture([0.6, 0.6], [0.0, 1.0], [1.0, 1.0])


class TestSamplers:
    def test_empty_sample(self):
        assert get_model("M7").sample(0, make_rng(1)).size == 0

    @pytest.mark.parametrize("mid", ["M1", "M7", "M15"])
    def test_deterministic(self, mid):
        model = get_model(mid)
        a = model.sample(50, make_rng(123, 1))
        b = model.sample(50, make_rng(123, 1))
        np.testing.assert_array_equal(a, b)

    def test_von_mises_moments(self):
        vm = VonMises(mu=math.pi / 2, kappa=5.0)
        x = vm.sample(100_000, make_rng(7))
        z = np.exp(1j * x).mean()
        assert circular_distance(np.angle(z) % TWO_PI, math.pi / 2) < 0.01
        assert abs(abs(z) - mean_resultant_ratio(5.0)) < 0.01

    def test_range(self):
        for mid in MODEL_IDS:
            x = get_model(mid).sample(500, make_rng(5, int(mid[1:])))
            assert np.all((0.0 <= x) & (x < TWO_PI))

    # Per-family parameters chosen so every one of the 36 arcs has expected
    # count >= 5 at n = 10^4, keeping the unpooled statistic valid.
    @pytest.mark.parametrize(
        "family",
        [
            CircularUniform(),
            VonMises(mu=math.pi / 2, kappa=2.0),
            Cardioid(mu=3.0, rho=0.35),
            WrappedNormal(mu=1.0, rho=0.5),
            WrappedCauchy(mu=0.0, rho=0.8),
            WrappedSkewNormal(xi=0.0, eta=2.0, lam=2.0),
        ],
        ids=lambda f: type(f).__name__,
    )
    def test_goodness_of_fit_primitives(self, family):
        x = family.sample(10_000, make_rng(11, hash(type(family).__name__) % 1000))
        assert chi_square_gof_pvalue(x, family, arcs=36) > 0.001

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_goodness_of_fit_catalogue(self, mid):
        # Peaked models have near-empty arcs; pool to keep chi^2 valid.
        model = get_model(mid)
        x = model.sample(20_000, make_rng(13, int(mid[1:])))
        assert chi_square_gof_pvalue(x, model, arcs=36, pool_min_expected=5.0) > 0.001


class TestSecondDerivative:
    def test_uniform_component_zero(self):
        mix = VonMisesMixture([1.0], [0.5], [0.0])
        assert np.all(mix.second_derivative(grid(64)) == 0.0)

    def test_von_mises_at_mode(self):
        # at the mode the sine term vanishes: g'' = -kappa * g
        mix = VonMisesMixture([1.0], [0.0], [2.0])
        expected = -2.0 * math.exp(2.0) / (TWO_PI * series_bessel_i(0, 2.0))
        assert mix.second_derivative(0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "mix",
        [
            VonMisesMixture([0.5, 0.5], [0.0, math.pi], [4.0, 4.0]),
            VonMisesMixture([0.2, 0.3, 0.5], [0.3, 2.0, 4.5], [1.0, 8.0, 0.5]),
        ],
        ids=["two", "three"],
    )
    def test_matches_finite_differences(self, mix):
        # abs floor covers FD cancellation noise (~eps * g / h^2) where g'' ~ 0
        h = 1e-5
        for theta in np.linspace(0.1, TWO_PI - 0.1, 25):
            fd = (mix.density(theta + h) - 2 * mix.density(theta) + mix.density(theta - h)) / h**2
            exact = mix.second_derivative(theta)
            assert exact == pytest.approx(fd, rel=1e-4, abs=5e-6)


class TestCurvatureIntegral:
    def test_uniform_zero(self):
        assert curvature_integral(VonMisesMixture([1.0], [1.0], [0.0])) == 0.0

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0])
    def test_single_von_mises_closed_form(self, kappa):
        # integral of (g'')^2 = kappa^2 (2 I0(2k) + I2(2k)) / (8 pi I0(k)^2)
        expected = (
            kappa**2
            * (2 * series_bessel_i(0, 2 * kappa) + series_bessel_i(2, 2 * kappa))
            / (8 * math.pi * series_bessel_i(0, kappa) ** 2)
        )
        got = curvature_integral(VonMisesMixture([1.0], [0.0], [kappa]))
        assert got == pytest.approx(expected, rel=1e-8)

    def test_against_adaptive_quadrature(self):
        mix = VonMisesMixture([0.5, 0.5], [0.0, math.pi], [4.0, 4.0])
        ref, _ = quad(lambda t: mix.second_derivative(t) ** 2, 0.0, TWO_PI, limit=400)
        assert curvature_integral(mix) == pytest.approx(ref, rel=1e-7)

    def test_m7_exceeds_its_single_component_reference(self):
        # The antipodal mixture nearly cancels the resultant, so the single
        # von Mises moment match is almost uniform with near-zero curvature;
        # the true mixture curvature is far larger.
        mix = VonMisesMixture([0.5, 0.5], [0.0, math.pi], [4.0, 4.0])
        m7_curv = curvature_integral(mix)
        flat = curvature_integral(VonMisesMixture([1.0], [0.0], [0.05]))
        assert m7_curv > 100 * flat
        assert m7_curv == pytest.approx(3.0021549559, rel=1e-6)

    def test_rotation_invariant(self):
        mix = VonMisesMixture([0.4, 0.6], [1.0, 3.5], [3.0, 7.0])
        base = curvature_integral(mix)
        for phi in (0.7, 2.9):
            rotated = VonMisesMixture(mix.weights, mix.mus + phi, mix.kappas)
            assert curvature_integral(rotated) == pytest.approx(base, rel=1e-8)

    def test_non_convergence_marker(self):
        # With the refinement cap pulled down the integral cannot stabilize.
        mix = VonMisesMixture([1.0], [0.0], [1e4])
        assert curvature_integral(mix, start_power=4, max_power=5) == math.inf


class TestCatalogue:
    def test_twenty_models(self):
        assert MODEL_IDS == tuple(f"M{i}" for i in range(1, 21))

    def test_m19_has_five_components_summing_to_one(self):
        rows = CATALOGUE["M19"]
        assert len(rows) == 5
        assert sum(w for w, _, _ in rows) == pytest.approx(1.0, abs=1e-15)

    def test_m14_equal_quarter_weights(self):
        rows = CATALOGUE["M14"]
        assert [w for w, _, _ in rows] == [0.25] * 4
        assert all(p["kappa"] == 12.0 for _, _, p in rows)

    def test_m2_parameters(self):
        ((w, family, params),) = CATALOGUE["M2"]
        assert (w, family) == (1.0, "vonmises")
        assert params == {"mu": math.pi, "kappa": 1.0}

    def test_json_stable(self):
        assert catalogue_json() == catalogue_json()

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_model("M21")


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        VonMisesMixture([], [], [])
    with pytest.raises(ValueError):
        VonMisesMixture([1.0], [0.0], [KAPPA_CAP * 2])


@pytest.mark.parametrize(
    "weights,mus,kappas",
    [
        ([1.0], [0.0], [math.nan]),
        ([math.nan], [0.0], [1.0]),
        ([1.0], [math.nan], [1.0]),
        ([0.5, 0.5], [0.0, math.inf], [1.0, 1.0]),
        ([0.5, 0.5], [0.0, 1.0], [1.0, -math.inf]),
    ],
    ids=["nan-kappa", "nan-weight", "nan-mu", "inf-mu", "neg-inf-kappa"],
)
def test_mixture_non_finite_rejected(weights, mus, kappas):
    with pytest.raises(ValueError, match="finite"):
        VonMisesMixture(weights, mus, kappas)
