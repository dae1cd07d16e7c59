"""Bandwidth selectors for the von Mises-kernel estimator.

Three data-driven selectors, which ``simulate.select`` dispatches by name:

* ``rule_of_thumb`` - closed-form bandwidth from a single fitted von Mises.
* ``plug_in``       - AIC-sized von Mises mixture reference, its curvature
                      integral plugged into the asymptotic MISE, minimized
                      over ``NuSearchDomain.for_sample_size(n)``. Falls
                      back to the rule of thumb when no valid reference
                      mixture exists. ``plug_in_chunk`` gives the same
                      result for each of several equal-size samples, their
                      EM run in one lockstep.
* ``lcv``           - maximizes the leave-one-out log-likelihood, with the
                      leave-one-out sums taken from the sample's two
                      trigonometric tables (``kde._cosine_sums``): O((B + Q) n)
                      memory, B + Q about 2 sqrt(K), and O(K n) time per nu,
                      not O(n^2). Its guard rows use ``kde._kernel_sums``.

The simulation oracle's ISE curve is ``kde.oracle_mise_curve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e, ive

from .bessel import KAPPA_CAP, _kernel_coefficients, _order_count
from .em import (
    EmConfig,
    MixtureSelection,
    fit_single_von_mises,
    select_reference_mixture,
    select_reference_mixtures,
)
# Unused here, but perfbench/tracing.py wraps selectors.kde_grid and selectors.ise.
from .kde import ise, kde_grid  # noqa: F401
from .kde import _cosine_sums, _kernel_sums
from .models import TWO_PI, _as_sample, wrap_angle

RT = "RT"
PI = "PI"
LCV = "LCV"
ORACLE = "ORACLE"
SELECTORS = (RT, PI, LCV, ORACLE)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# LCV rows whose moment-form leave-one-out sum falls below this are
# recomputed by the direct sum. The moment form subtracts the self-term 1
# from a total of about 1 + sum, so an isolated point at large nu would
# keep only the rounding noise of that subtraction.
_DIRECT_BELOW = 1e-3


@dataclass(frozen=True)
class BandwidthResult:
    """A selected concentration parameter plus selector diagnostics."""

    nu: float
    selector: str
    fallback: bool = False
    selected_m: int | None = None
    aic_table: dict[int, float] | None = None
    objective: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NuSearchDomain:
    """Search interval and probe count for the one-dimensional optimizers."""

    nu_min: float = 0.01
    nu_max: float = 100.0
    n_probes: int = 50

    def __post_init__(self):
        if not 0 < self.nu_min < self.nu_max <= KAPPA_CAP:  # also catches NaN and inf
            raise ValueError(f"need 0 < nu_min < nu_max <= {KAPPA_CAP}")
        if not isinstance(self.n_probes, (int, np.integer)) or self.n_probes < 2:
            raise ValueError(f"need an integer of at least 2 probes, got {self.n_probes!r}")

    @classmethod
    def for_sample_size(cls, n: int) -> "NuSearchDomain":
        # Ten times the rule-of-thumb growth rate bounds plausible optima.
        return cls(nu_min=0.01, nu_max=10.0 * n ** 0.4, n_probes=50)

    def probes(self) -> np.ndarray:
        return np.geomspace(self.nu_min, self.nu_max, self.n_probes)


def golden_section_minimize(f, lo: float, hi: float, rel_tol: float = 1e-4):
    """Golden-section minimum of a unimodal f on [lo, hi].

    Returns (x, f(x), n_evals). Interval shrinks until its width falls
    below ``rel_tol`` relative to the midpoint.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    evals = 2
    while hi - lo > rel_tol * max(abs(lo + hi) / 2.0, 1e-12):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        evals += 1
    x = (lo + hi) / 2.0
    return x, f(x), evals + 1


def minimize_on_domain(f, domain: NuSearchDomain):
    """Probe the domain on a log grid, then golden-section around the best probe.

    Never returns a point worse than the best probe. The trace's
    ``edge_hit`` is set when the best probe is the last one, where the
    minimum may lie beyond ``nu_max``.
    """
    probes = domain.probes()
    values = np.array([f(p) for p in probes])
    best = int(np.argmin(values))
    lo = probes[max(best - 1, 0)]
    hi = probes[min(best + 1, probes.size - 1)]
    x, fx, evals = golden_section_minimize(f, lo, hi)
    if values[best] < fx:
        x, fx = float(probes[best]), float(values[best])
    trace = {
        "n_evals": int(probes.size + evals),
        "best_probe": float(probes[best]),
        "bracket": (float(lo), float(hi)),
        "edge_hit": best == probes.size - 1,
    }
    return float(x), float(fx), trace


def amise(nu: float, n: int, curvature: float) -> float:
    """Asymptotic MISE of the estimator at concentration nu.

    Squared-bias term scaled by the curvature functional of the reference
    density plus the variance term; all Bessel ratios computed from
    exponentially scaled functions so no factor overflows.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (curvature >= 0 and math.isfinite(curvature)):
        raise ValueError("curvature must be finite and non-negative")
    bias = (1.0 - ive(2, nu) / i0e(nu)) ** 2 / 16.0 * curvature
    variance = ive(0, 2.0 * nu) / (2.0 * n * math.pi * i0e(nu) ** 2)
    return float(bias + variance)


def taylor_rule_nu(kappa: float, n: int) -> float:
    """The closed-form rule-of-thumb bandwidth for a fitted concentration.

    Taylor's (2008) published rule: the minimiser of the large-``nu``
    AMISE, nu = (2 sqrt(pi) n R)^(2/5), with the von Mises curvature taken
    as R = 3 kappa^2 I2(2 kappa) / (8 pi I0(kappa)^2). That R is the
    large-kappa limit of the exact single von Mises curvature
    kappa^2 (2 I0(2 kappa) + I2(2 kappa)) / (8 pi I0(kappa)^2), which
    :func:`circkde.models.curvature_integral` gives (as the Bessel-ratio
    series (1/pi) sum_m m^4 rho_m(kappa)^2) and PI uses. The constant is
    kept as published so that RT reproduces the reference tables.
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if kappa == 0.0:
        return 0.0
    num = 3.0 * n * kappa**2 * ive(2, 2.0 * kappa)
    den = 4.0 * math.sqrt(math.pi) * i0e(kappa) ** 2
    return float(min((num / den) ** 0.4, KAPPA_CAP))


def rule_of_thumb(sample) -> BandwidthResult:
    """Rule-of-thumb bandwidth from the single von Mises MLE."""
    arr = _as_sample(sample)
    comp = fit_single_von_mises(arr)
    nu = taylor_rule_nu(comp.kappa, arr.size)
    return BandwidthResult(
        nu=nu,
        selector=RT,
        diagnostics={"kappa_hat": comp.kappa, "mu_hat": comp.mu},
    )


def plug_in(sample, cfg: EmConfig | None = None) -> BandwidthResult:
    """Plug-in bandwidth: mixture reference, curvature integral, AMISE minimum.

    The AMISE is minimized over ``NuSearchDomain.for_sample_size(n)``.
    When every candidate reference mixture fails (a degenerate EM fit, or
    too few observations) the rule-of-thumb bandwidth is returned with the
    fallback flag set. On both paths ``diagnostics["em"]`` maps each
    fitted candidate M to its EM ``(n_iter, converged)``.
    """
    arr = _as_sample(sample)
    return _plug_in_result(arr, select_reference_mixture(arr, cfg=cfg or EmConfig()))


def plug_in_chunk(samples, seeds, cfg: EmConfig) -> list[BandwidthResult]:
    """:func:`plug_in` of each of several samples of one size, sample i with EM seed ``seeds[i]``.

    The reference mixtures come from ``em.select_reference_mixtures``,
    which fits every candidate M for the whole chunk in one lockstep; every
    step after EM is ``plug_in``'s, so each result equals ``plug_in(sample,
    replace(cfg, seed=seeds[i]))`` bit for bit.
    """
    arrs = [_as_sample(s) for s in samples]
    selections = select_reference_mixtures(arrs, seeds, cfg=cfg)
    return [_plug_in_result(arr, selection) for arr, selection in zip(arrs, selections)]


def _plug_in_result(arr: np.ndarray, selection: MixtureSelection) -> BandwidthResult:
    """PI's bandwidth from the sample's reference-mixture selection: RT fallback or AMISE minimum."""
    n = arr.size
    if selection.best is None:
        rt = rule_of_thumb(arr)
        return BandwidthResult(
            nu=rt.nu,
            selector=PI,
            fallback=True,
            aic_table=selection.aic_table,
            diagnostics={
                "fallback_reason": "no valid reference mixture",
                "rejected": dict(selection.rejected),
                "kappa_hat": rt.diagnostics["kappa_hat"],
                "em": selection.convergence,
            },
        )

    curvature = selection.best_curvature
    nu, obj, trace = minimize_on_domain(lambda v: amise(v, n, curvature), NuSearchDomain.for_sample_size(n))
    return BandwidthResult(
        nu=nu,
        selector=PI,
        selected_m=selection.best.M,
        aic_table=selection.aic_table,
        objective=obj,
        diagnostics={"curvature": curvature, "optimizer": trace, "em": selection.convergence},
    )


def lcv_objective(sample, nu: float) -> float:
    """Leave-one-out log-likelihood of the estimator at concentration nu.

    Computed by the direct O(n^2) kernel sum, in blocks of rows.
    """
    arr = _as_sample(sample)
    return _lcv_from_sums(_kernel_sums(arr, arr, nu, np.arange(arr.size)), arr.size, nu)


def lcv(sample, domain: NuSearchDomain | None = None) -> BandwidthResult:
    """Likelihood cross-validation bandwidth.

    Maximizes the leave-one-out log-likelihood over the probe grid, then
    refines with golden-section search around the best probe. The
    objective is ``lcv_objective`` up to rounding. With
    K = ``bessel._order_count(domain.nu_max)``, the kernel's expansion
    exp(nu cos x) = I_0(nu) (1 + 2 sum_m rho_m(nu) cos(m x)) gives each
    row's leave-one-out sum as i0e(nu) S_i - 1, where
    S_i = sum_m rho~_m sum_j cos(m (Theta_i - Theta_j)) and
    rho~ = (1, 2 rho_1, 2 rho_2, ...). ``kde._cosine_sums`` keeps the
    sample's two trigonometric tables and gives S for each
    nu in O(K n) time and 2 (B + Q) n floats, B + Q about 2 sqrt(K). The
    probes' coefficient rows come from one ``_kernel_coefficients`` call,
    whose rows are bit for bit those of one-nu calls; each golden-section
    point takes a one-nu call. Rows whose sum falls below ``_DIRECT_BELOW``
    are recomputed by the direct sum. The sample is wrapped once, on
    entry, for the tables, those rows and ``ties``. ``diagnostics`` holds
    ``orders`` (K), ``direct_rows`` (recomputed rows, summed over all
    evaluations) and ``ties``: the observations whose wrapped value
    another observation shares. When every value is tied the objective
    grows without bound in nu; ``ties`` does not change the pick.
    """
    arr = wrap_angle(_as_sample(sample))
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 observations for cross-validation")
    domain = domain or NuSearchDomain.for_sample_size(n)
    orders = _order_count(domain.nu_max)
    cosine_sums = _cosine_sums(arr, orders)
    probes = domain.probes()
    probe_coef = _kernel_coefficients(probes, orders)
    probe_coef[:, 1:] *= 2.0
    probe_rows = dict(zip(probes.tolist(), probe_coef))
    direct_rows = 0

    def objective(nu: float) -> float:
        nonlocal direct_rows
        # Orders from K on were dropped for nu_max; at a larger nu they need not be negligible.
        assert nu <= domain.nu_max, f"nu {nu} above the nu_max {domain.nu_max} of its orders"
        coef = probe_rows.get(nu)
        if coef is None:
            coef = _kernel_coefficients(np.array([nu]), orders)[0]
            coef[1:] *= 2.0
        sums = i0e(nu) * cosine_sums(coef) - 1.0
        low = np.flatnonzero(sums < _DIRECT_BELOW)
        if low.size:
            sums[low] = _kernel_sums(arr[low], arr, nu, low)
            direct_rows += low.size
        return -_lcv_from_sums(sums, n, nu)

    nu, neg, trace = minimize_on_domain(objective, domain)
    counts = np.unique(arr, return_counts=True)[1]
    ties = counts[counts > 1].sum()
    return BandwidthResult(
        nu=nu,
        selector=LCV,
        objective=-neg,
        diagnostics={"optimizer": trace, "orders": orders, "direct_rows": direct_rows, "ties": int(ties)},
    )


def _lcv_from_sums(sums: np.ndarray, n: int, nu: float) -> float:
    loo = sums / ((n - 1) * TWO_PI * i0e(nu))
    with np.errstate(divide="ignore"):  # full underflow => -inf, a fair score
        return float(np.log(loo).sum())
