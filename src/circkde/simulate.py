"""Monte Carlo harness: replicated sampling, selector ISE, table regression.

One cell of the study is a (model, sample size, selector) triple; its
replicates share samples (common random numbers) so selector comparisons
are paired. ``select`` turns a selector name into a bandwidth for the study
and for ``circkde fit``; ORACLE minimizes the replicate-averaged ISE over
``default_oracle_grid(n)``. Reference values transcribed from the published
study ship as a JSON data file and drive the regression gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

import numpy as np

from . import catalogue
from .em import EmConfig
from .kde import DEFAULT_GRIDSIZE, KdeFit, density_grid_of, ise, kde_grid, oracle_mise_curve
from .rng import derive_seed, make_rng
from .selectors import (
    LCV,
    ORACLE,
    PI,
    RT,
    SELECTORS,
    BandwidthResult,
    NuSearchDomain,
    lcv,
    plug_in,
    rule_of_thumb,
)

# Desk-scale defaults: a smoke subset of the catalogue and 200 replicates
# keep the full regression run in the minutes range.
SMOKE_MODELS: tuple[str, ...] = ("M1", "M2", "M5", "M7", "M12", "M20")
DEFAULT_REPLICATES = 200

# Extra allowance on top of the Monte Carlo window: implementation details
# of the reference study (EM package internals, optimizer tolerances) are
# not reproducible exactly.
DEFAULT_K_SIGMA = 3.0
DEFAULT_ABS_SLACK = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[str, ...] = SMOKE_MODELS
    sample_sizes: tuple[int, ...] = (100, 250)
    replicates: int = DEFAULT_REPLICATES
    selectors: tuple[str, ...] = (RT, PI, LCV)
    base_seed: int = 20260810
    gridsize: int = DEFAULT_GRIDSIZE
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        empty = [k for k in ("models", "sample_sizes", "selectors") if not getattr(self, k)]
        if empty:  # a study of no cells would pass any reference gate
            raise ValueError(f"{', '.join(empty)} must not be empty")
        small = [n for n in self.sample_sizes if n < 2]
        if small:  # LCV needs two observations
            raise ValueError(f"sample sizes must be >= 2, got {small}")
        unknown = [m for m in self.models if m not in catalogue.CATALOGUE]
        if unknown:
            raise ValueError(f"unknown model ids: {unknown}")
        bad = [s for s in self.selectors if s not in SELECTORS]
        if bad:
            raise ValueError(f"unknown selectors: {bad}")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class CellResult:
    model: str
    n: int
    selector: str
    mean_ise: float
    sd_ise: float
    replicates: int
    fallback_count: int = 0
    mean_selected_m: float | None = None
    oracle_nu: float | None = None
    errors: int = 0
    # The first failing replicate: its replay key (model, n, replicate,
    # em_seed) and the exception's message.
    first_error: dict | None = None


@dataclass(frozen=True)
class SimulationReport:
    cells: tuple[CellResult, ...]
    metadata: dict

    def cell(self, model: str, n: int, selector: str) -> CellResult:
        for c in self.cells:
            if (c.model, c.n, c.selector) == (model, n, selector):
                return c
        raise KeyError((model, n, selector))

    def to_dict(self) -> dict:
        return {"cells": [asdict(c) for c in self.cells], "metadata": dict(self.metadata)}

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_table(self) -> str:
        """Aligned text table, one block per sample size, MISE x100 (sd x100)."""
        lines: list[str] = []
        sizes = sorted({c.n for c in self.cells})
        models = sorted({c.model for c in self.cells}, key=lambda m: int(m[1:]))
        sels = [s for s in SELECTORS if any(c.selector == s for c in self.cells)]
        for n in sizes:
            lines.append(f"n={n}")
            header = "model".ljust(7) + "".join(s.rjust(20) for s in sels)
            lines.append(header)
            for m in models:
                row = m.ljust(7)
                for s in sels:
                    try:
                        c = self.cell(m, n, s)
                    except KeyError:
                        row += "-".rjust(20)
                        continue
                    row += f"{100 * c.mean_ise:.4f} ({100 * c.sd_ise:.4f})".rjust(20)
                lines.append(row)
            lines.append("")
        return "\n".join(lines)


def default_oracle_grid(n: int) -> np.ndarray:
    return NuSearchDomain.for_sample_size(n).probes()


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> SimulationReport:
    """Run the full protocol for one configuration.

    Deterministic for a fixed config regardless of ``workers``: replicate
    streams are derived from (base_seed, model, n, replicate) and results
    are aggregated by replicate index.
    """
    t0 = time.perf_counter()
    cells: list[CellResult] = []
    pool = None
    if workers > 1:
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        for model_id in cfg.models:
            model = catalogue.get_model(model_id)
            midx = catalogue.model_index(model_id)
            truth = density_grid_of(model, cfg.gridsize)
            for n in cfg.sample_sizes:
                samples = [
                    model.sample(n, make_rng(cfg.base_seed, midx, n, rep))
                    for rep in range(cfg.replicates)
                ]
                data_driven = tuple(s for s in cfg.selectors if s != ORACLE)
                if data_driven:
                    tasks = [
                        (samples[rep], data_driven, truth,
                         derive_seed(cfg.base_seed, midx, n, rep, 97), cfg.em)
                        for rep in range(cfg.replicates)
                    ]
                    if pool is not None:
                        outcomes = list(pool.map(_replicate_outcome, tasks, chunksize=4))
                    else:
                        outcomes = [_replicate_outcome(t) for t in tasks]
                    for selector in data_driven:
                        cells.append(_aggregate_cell(model_id, n, selector, outcomes))
                if ORACLE in cfg.selectors:
                    cells.append(_oracle_cell(model_id, n, samples, truth))
    finally:
        if pool is not None:
            pool.shutdown()
    meta = {
        "base_seed": cfg.base_seed,
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return SimulationReport(cells=tuple(cells), metadata=meta)


def select(name: str, sample, em: EmConfig) -> BandwidthResult:
    """RT, PI (fitting with ``em`` as given, seed included) or LCV on one sample.

    The selectors are this module's globals, looked up at call time, so
    rebinding ``simulate.plug_in`` (as perfbench/tracing.py does) reaches
    every caller.
    """
    if name == RT:
        return rule_of_thumb(sample)
    if name == PI:
        return plug_in(sample, em)
    if name == LCV:
        return lcv(sample)
    raise ValueError(f"unknown selector {name!r}")


def _replicate_outcome(task) -> dict:
    """All data-driven selectors on one replicate sample; shared truth grid."""
    sample, selectors, truth, em_seed, em = task
    em = replace(em, seed=em_seed)
    out: dict = {}
    for selector in selectors:
        try:
            res = select(selector, sample, em)
            grid = kde_grid(KdeFit(sample, res.nu), truth.gridsize)
            out[selector] = {
                "ise": ise(grid, truth),
                "fallback": res.fallback,
                "selected_m": res.selected_m,
            }
        except Exception as exc:
            out[selector] = {"error": f"{type(exc).__name__}: {exc}", "em_seed": em_seed}
    return out


def _aggregate_cell(model_id, n, selector, outcomes) -> CellResult:
    ises = [o[selector]["ise"] for o in outcomes if "ise" in o[selector]]
    errors = sum(1 for o in outcomes if "error" in o[selector])
    fallbacks = sum(1 for o in outcomes if o[selector].get("fallback"))
    selected = [
        o[selector]["selected_m"]
        for o in outcomes
        if o[selector].get("selected_m") is not None
    ]
    mean, sd = _mean_sd(ises)
    return CellResult(
        model=model_id,
        n=n,
        selector=selector,
        mean_ise=mean,
        sd_ise=sd,
        replicates=len(ises),
        fallback_count=fallbacks,
        mean_selected_m=float(np.mean(selected)) if selected else None,
        errors=errors,
        first_error=next(
            (
                {"model": model_id, "n": n, "replicate": rep,
                 "em_seed": o[selector]["em_seed"], "message": o[selector]["error"]}
                for rep, o in enumerate(outcomes)
                if "error" in o[selector]
            ),
            None,
        ),
    )


def _oracle_cell(model_id, n, samples, truth) -> CellResult:
    nu_grid = default_oracle_grid(n)
    curve = oracle_mise_curve(samples, truth, nu_grid)
    means = curve.mean(axis=0)
    best = int(np.argmin(means))
    mean, sd = _mean_sd(curve[:, best])
    return CellResult(
        model=model_id,
        n=n,
        selector=ORACLE,
        mean_ise=mean,
        sd_ise=sd,
        replicates=len(samples),
        oracle_nu=float(nu_grid[best]),
    )


def _mean_sd(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


# -- reference-table regression ---------------------------------------------


@dataclass(frozen=True)
class ReferenceCell:
    model: str
    n: int
    selector: str
    mise_x100: float
    sd_x100: float | None


@dataclass(frozen=True)
class CellComparison:
    model: str
    n: int
    selector: str
    observed_x100: float
    reference_x100: float | None
    window: float | None
    z_score: float | None
    passed: bool | None  # None: no reference cell available
    incomplete: str | None = None  # why the cell fails whatever its window says
    first_error: dict | None = None  # CellResult.first_error

    def describe(self) -> str:
        if self.passed is None:
            return f"{self.model} n={self.n} {self.selector}: no reference value"
        verdict = "pass" if self.passed else "FAIL"
        if self.incomplete:
            verdict += f" ({self.incomplete})"
        line = (
            f"{self.model} n={self.n} {self.selector}: {verdict} "
            f"observed={self.observed_x100:.4f} reference={self.reference_x100:.4f} "
            f"window=+/-{self.window:.4f} z={self.z_score:.2f}"
        )
        if self.first_error and not self.passed:
            e = self.first_error
            line += (
                f"; first error at model={e['model']} n={e['n']} replicate={e['replicate']} "
                f"em_seed={e['em_seed']}: {e['message']}"
            )
        return line


def load_reference_table() -> dict[tuple[str, int, str], ReferenceCell]:
    """Published MISE x100 values keyed by (model, n, selector)."""
    blob = resources.files("circkde.data").joinpath("reference_tables.json").read_text()
    out = {}
    for entry in json.loads(blob):
        cell = ReferenceCell(**entry)
        out[(cell.model, cell.n, cell.selector)] = cell
    return out


def compare_to_reference(
    report: SimulationReport,
    reference: dict[tuple[str, int, str], ReferenceCell] | None = None,
    k_sigma: float = DEFAULT_K_SIGMA,
    abs_slack: float = DEFAULT_ABS_SLACK,
) -> list[CellComparison]:
    """Check every report cell against the published table.

    A cell passes when |observed - reference| (x100 scale) stays within
    k_sigma Monte Carlo standard errors of the reference, widened by
    ``abs_slack`` relative slack, and no replicate was lost: a cell with
    selector errors, or with fewer replicates than the report's config
    asks for, fails whatever its mean. Missing reference cells are
    flagged, not fatal.
    """
    if reference is None:
        reference = load_reference_table()
    configured = report.metadata.get("config", {}).get("replicates")
    out: list[CellComparison] = []
    for cell in report.cells:
        key = (cell.model, cell.n, cell.selector)
        obs = 100.0 * cell.mean_ise
        ref = reference.get(key)
        if ref is None:
            out.append(CellComparison(cell.model, cell.n, cell.selector, obs, None, None, None, None))
            continue
        lost = []
        if cell.errors:
            lost.append(f"{cell.errors} selector errors")
        if configured is not None and cell.replicates < configured:
            lost.append(f"{cell.replicates} of {configured} replicates")
        se = ref.sd_x100 / math.sqrt(cell.replicates) if ref.sd_x100 and cell.replicates else 0.0
        window = k_sigma * se + abs_slack * ref.mise_x100
        diff = obs - ref.mise_x100
        z = diff / se if se > 0 else (0.0 if diff == 0 else math.inf * np.sign(diff))
        out.append(
            CellComparison(
                model=cell.model,
                n=cell.n,
                selector=cell.selector,
                observed_x100=obs,
                reference_x100=ref.mise_x100,
                window=window,
                z_score=float(z),
                passed=bool(abs(diff) <= window) and not lost,
                incomplete="; ".join(lost) or None,
                first_error=cell.first_error,
            )
        )
    return out
