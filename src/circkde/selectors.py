"""Bandwidth selectors for the von Mises-kernel estimator.

Three data-driven selectors, which ``simulate.select`` dispatches by name:

* ``rule_of_thumb`` - closed-form bandwidth from a single fitted von Mises.
* ``plug_in``       - AIC-sized von Mises mixture reference, its curvature
                      integral plugged into the asymptotic MISE, minimized
                      numerically. Falls back to the rule of thumb when no
                      valid reference mixture exists.
* ``lcv``           - maximizes the leave-one-out log-likelihood, with the
                      leave-one-out sums taken from a table of cosine sums
                      built on ``kde``'s harmonic blocks: O(K n) memory and
                      time per nu, not O(n^2). Its guard rows use ``kde``'s
                      kernel blocks.

The simulation oracle's ISE curve is ``kde.oracle_mise_curve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e, ive

from .bessel import KAPPA_CAP, _kernel_coefficients, _order_count
from .em import EmConfig, fit_single_von_mises, select_reference_mixture
# Unused here, but perfbench/tracing.py wraps selectors.kde_grid and selectors.ise.
from .kde import ise, kde_grid  # noqa: F401
from .kde import _harmonic_blocks, _kernel_blocks
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
        if not 0 < self.nu_min < self.nu_max:
            raise ValueError("need 0 < nu_min < nu_max")
        if self.n_probes < 2:
            raise ValueError("need at least 2 probes")

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


def minimize_on_domain(f, domain: NuSearchDomain, rel_tol: float = 1e-4):
    """Probe the domain on a log grid, then golden-section around the best probe.

    Never returns a point worse than the best probe.
    """
    probes = domain.probes()
    values = np.array([f(p) for p in probes])
    best = int(np.argmin(values))
    lo = probes[max(best - 1, 0)]
    hi = probes[min(best + 1, probes.size - 1)]
    x, fx, evals = golden_section_minimize(f, lo, hi, rel_tol)
    if values[best] < fx:
        x, fx = float(probes[best]), float(values[best])
    trace = {
        "n_evals": int(probes.size + evals),
        "best_probe": float(probes[best]),
        "bracket": (float(lo), float(hi)),
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


def plug_in(
    sample,
    cfg: EmConfig | None = None,
    domain: NuSearchDomain | None = None,
) -> BandwidthResult:
    """Plug-in bandwidth: mixture reference, curvature integral, AMISE minimum.

    When every candidate reference mixture fails (degenerate EM fit or
    non-finite curvature) the rule-of-thumb bandwidth is returned with the
    fallback flag set. On both paths ``diagnostics["em"]`` maps each
    fitted candidate M to its EM ``(n_iter, converged)``.
    """
    arr = _as_sample(sample)
    n = arr.size
    cfg = cfg or EmConfig()
    domain = domain or NuSearchDomain.for_sample_size(n)

    selection = select_reference_mixture(arr, cfg=cfg)
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
    nu, obj, trace = minimize_on_domain(lambda v: amise(v, n, curvature), domain)
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
    return _lcv_from_sums(_direct_sums(arr, np.arange(arr.size), nu), arr.size, nu)


def lcv(sample, domain: NuSearchDomain | None = None) -> BandwidthResult:
    """Likelihood cross-validation bandwidth.

    Maximizes the leave-one-out log-likelihood over the probe grid, then
    refines with golden-section search around the best probe. The
    objective is ``lcv_objective`` up to rounding, computed from the K x n
    table T[m, i] = sum_j cos(m (Theta_i - Theta_j)), built once per call
    with K = ``bessel._order_count(domain.nu_max)``. The kernel's expansion
    exp(nu cos x) = I_0(nu) (1 + 2 sum_m rho_m(nu) cos(m x)) gives each
    row's leave-one-out sum as i0e(nu) (rho~ @ T)_i - 1, with
    rho~ = (1, 2 rho_1, 2 rho_2, ...), so each nu costs O(K n). Rows whose
    sum falls below ``_DIRECT_BELOW`` are recomputed by the direct sum.
    ``diagnostics`` holds ``orders`` (K) and ``direct_rows`` (recomputed
    rows, summed over all evaluations).
    """
    arr = _as_sample(sample)
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 observations for cross-validation")
    domain = domain or NuSearchDomain.for_sample_size(n)
    orders = _order_count(domain.nu_max)
    table = _cos_sum_table(arr, orders)
    direct_rows = 0

    def objective(nu: float) -> float:
        nonlocal direct_rows
        # Orders from K on were dropped for nu_max; at a larger nu they need not be negligible.
        assert nu <= domain.nu_max, f"nu {nu} above the table's nu_max {domain.nu_max}"
        coef = _kernel_coefficients(np.array([nu]), orders)[0]
        coef[1:] *= 2.0
        sums = i0e(nu) * (coef @ table) - 1.0
        low = np.flatnonzero(sums < _DIRECT_BELOW)
        if low.size:
            sums[low] = _direct_sums(arr, low, nu)
            direct_rows += low.size
        return -_lcv_from_sums(sums, n, nu)

    nu, neg, trace = minimize_on_domain(objective, domain)
    return BandwidthResult(
        nu=nu,
        selector=LCV,
        objective=-neg,
        diagnostics={"optimizer": trace, "orders": orders, "direct_rows": direct_rows},
    )


def _direct_sums(arr: np.ndarray, rows: np.ndarray, nu: float) -> np.ndarray:
    """sum over j != i of exp(nu (cos(Theta_i - Theta_j) - 1)), for each i in rows."""
    out = np.empty(rows.size)
    for lo, hi, block in _kernel_blocks(arr[rows], arr, nu):
        # Zero the self-term rather than subtracting it afterwards: the
        # subtraction would cancel any contribution below one ulp of 1.
        block[np.arange(hi - lo), rows[lo:hi]] = 0.0
        out[lo:hi] = block.sum(axis=1)
    return out


def _cos_sum_table(arr: np.ndarray, orders: int) -> np.ndarray:
    """T[m, i] = a_m cos(m Theta_i) + b_m sin(m Theta_i), m = 0..orders-1.

    a_m and b_m are the sample's cosine and sine sums, so T[m, i] is
    sum_j cos(m (Theta_i - Theta_j)). Built from ``kde._harmonic_blocks``,
    so that besides T only its two small tables (2 (B + Q) n floats,
    B + Q about 2 sqrt(K)) and one block of cosines and of sines are alive.
    """
    table = np.empty((orders, arr.size))
    for lo, hi, cos, sin in _harmonic_blocks(wrap_angle(arr), orders):
        cos *= cos.sum(axis=1, keepdims=True)
        sin *= sin.sum(axis=1, keepdims=True)
        np.add(cos, sin, out=table[lo:hi])
    return table


def _lcv_from_sums(sums: np.ndarray, n: int, nu: float) -> float:
    loo = sums / ((n - 1) * TWO_PI * i0e(nu))
    with np.errstate(divide="ignore"):  # full underflow => -inf, a fair score
        return float(np.log(loo).sum())
