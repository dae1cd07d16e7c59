"""Monte Carlo harness: replicated sampling, selector ISE, table regression.

One cell of the study is a (model, sample size, selector) triple; its
replicates share samples (common random numbers) so selector comparisons
are paired. ``select`` turns a selector name into a bandwidth for
``circkde fit`` and the study's RT and LCV; the study's PI fits a chunk
of samples at once (``run_experiment``). ORACLE minimizes the
replicate-averaged ISE over ``default_oracle_grid(n)``. Reference values
transcribed from the published study ship as a JSON data file and drive
the regression gate.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

import numpy as np

from . import catalogue
from .bessel import _order_count
from .em import EmConfig
from .em import _LOCKSTEP_CELLS
from .kde import DEFAULT_GRIDSIZE, KdeFit, density_grid_of, ise, kde_grid, oracle_mise_curve
from .models import ModelSpec
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
    plug_in_chunk,
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

# A study chunk holds at most this many samples of one size, and at most
# em._LOCKSTEP_CELLS EM rows x n for each candidate M (see _chunk_size).
# Neither depends on the worker count, so neither do the results.
_CHUNK_SAMPLES = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo study: its grid of cells, replicate count, seed and settings.

    ``em`` sets PI's EM fits, but only its ``max_iter``, ``rel_tol`` and
    ``n_restarts`` take effect: every replicate replaces ``em.seed`` with
    ``derive_seed(base_seed, model index, n, replicate, 97)``, so that its
    fits do not depend on the other replicates. ``em.seed`` still enters
    ``config_hash``. The truth grid is no setting: :func:`_truth_gridsize`.
    """

    models: tuple[str, ...] = SMOKE_MODELS
    sample_sizes: tuple[int, ...] = (100, 250)
    replicates: int = DEFAULT_REPLICATES
    selectors: tuple[str, ...] = (RT, PI, LCV)
    base_seed: int = 20260810
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise ValueError(f"replicates must be >= 1 and an integer, got {self.replicates!r}")
        if not isinstance(self.base_seed, (int, np.integer)):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        non_integer = [n for n in self.sample_sizes if not isinstance(n, (int, np.integer))]
        if non_integer:
            raise ValueError(f"sample sizes must be integers, got {non_integer}")
        small = [n for n in self.sample_sizes if n < 2]
        if small:  # LCV needs two observations
            raise ValueError(f"sample sizes must be >= 2, got {small}")
        unknown = [m for m in self.models if m not in catalogue.CATALOGUE]
        if unknown:
            raise ValueError(f"unknown model ids: {unknown}")
        bad = [s for s in self.selectors if s not in SELECTORS]
        if bad:
            raise ValueError(f"unknown selectors: {bad}")
        for name in ("models", "sample_sizes", "selectors"):
            values = getattr(self, name)
            if not values:  # a study of no cells would pass any reference gate
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):  # each copy would run and be gated again
                raise ValueError(f"{name} must not repeat an entry, got {values!r}")

    def config_hash(self) -> str:
        # default=int: numpy integers, which the integer fields accept, are not JSON numbers.
        blob = json.dumps(asdict(self), sort_keys=True, default=int).encode()
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
    # ORACLE cells: whether the replicate-mean minimum is the grid's last
    # (largest) nu, so the true minimum may lie beyond the grid.
    oracle_edge_hit: bool | None = None
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
        """Aligned text table, one block per sample size, MISE x100 (sd x100).

        An ORACLE cell whose minimum is the grid's largest nu is marked with
        ``*`` and explained in a footnote.
        """
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
                    mark = "*" if c.oracle_edge_hit else ""
                    row += f"{100 * c.mean_ise:.4f} ({100 * c.sd_ise:.4f}){mark}".rjust(20)
                lines.append(row)
            lines.append("")
        if any(c.oracle_edge_hit for c in self.cells):
            lines.append(f"* {ORACLE} minimum at the largest nu of its grid: the true minimum may lie beyond it.")
            lines.append("")
        return "\n".join(lines)


def default_oracle_grid(n: int) -> np.ndarray:
    return NuSearchDomain.for_sample_size(n).probes()


@functools.cache
def _truth_gridsize(n: int) -> int:
    """The study's truth grid at n: 1,024 points, or more once 2 K > 1,024 at the top nu of n's ORACLE grid."""
    orders = _order_count(float(default_oracle_grid(n)[-1]))
    return max(DEFAULT_GRIDSIZE, 1 << (2 * orders - 1).bit_length())


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> SimulationReport:
    """Run the full protocol for one configuration.

    The data-driven selectors run on chunks: each sample size's (model,
    replicate) samples, in config order, cut into runs of at most
    :func:`_chunk_size` samples. A chunk fits PI's reference mixtures for
    every candidate M in one EM lockstep loop (``selectors.plug_in_chunk``),
    each M with its own sweep kernels and block length; RT and LCV, and
    every KDE grid and ISE, run per sample, on the ORACLE's truth grid
    (:func:`_truth_gridsize`). Up to ``workers`` processes, one per chunk,
    map the chunks. Deterministic for a fixed config
    regardless of ``workers``: replicate streams are derived from
    (base_seed, model, n, replicate), the chunks do not depend on
    ``workers``, a sample's results do not depend on its chunk, and
    results are aggregated by replicate index.
    """
    t0 = time.perf_counter()
    models = {m: catalogue.get_model(m) for m in cfg.models}
    grid = functools.cache(lambda m, g: density_grid_of(models[m], g))  # one per model and grid size
    truths = {(m, n): grid(m, _truth_gridsize(n)) for m in cfg.models for n in cfg.sample_sizes}
    data_driven = tuple(s for s in cfg.selectors if s != ORACLE)
    tasks = []
    if data_driven:
        for n in cfg.sample_sizes:
            keys = [(m, rep) for m in cfg.models for rep in range(cfg.replicates)]
            size = _chunk_size(n, cfg.em.n_restarts)
            for lo in range(0, len(keys), size):
                chunk = keys[lo : lo + size]
                tasks.append((n, chunk, cfg.base_seed, {m: truths[m, n] for m, _ in chunk}, data_driven, cfg.em))
    workers = min(workers, len(tasks))  # a forking pool starts all its processes at the first submit
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_outcomes, tasks))
    else:
        results = [_chunk_outcomes(t) for t in tasks]
    outcomes = {
        (model_id, n, rep): out
        for (n, chunk, *_), outs in zip(tasks, results)
        for (model_id, rep), out in zip(chunk, outs)
    }
    cells: list[CellResult] = []
    for model_id in cfg.models:
        for n in cfg.sample_sizes:
            reps = [outcomes[model_id, n, rep] for rep in range(cfg.replicates)] if data_driven else []
            for selector in data_driven:
                cells.append(_aggregate_cell(model_id, n, selector, reps))
            if ORACLE in cfg.selectors:
                samples = [_replicate_sample(cfg.base_seed, models[model_id], n, rep) for rep in range(cfg.replicates)]
                cells.append(_oracle_cell(model_id, n, samples, truths[model_id, n]))
    meta = {
        "base_seed": cfg.base_seed,
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return SimulationReport(cells=tuple(cells), metadata=meta)


def _chunk_size(n: int, n_restarts: int) -> int:
    """Samples of size n per study chunk: at most ``_CHUNK_SAMPLES``, and rows x n within ``em._LOCKSTEP_CELLS``.

    A chunk's EM advances samples x ``n_restarts`` rows for each candidate
    M, and memory proportional to rows x n (the gathered unit vectors and
    the sweep's block), so large samples make smaller chunks. The EM loop
    takes the candidates together only while all their rows x n stay
    within the same cap (``em._em_fit_groups``).
    """
    return max(1, min(_CHUNK_SAMPLES, _LOCKSTEP_CELLS // (n_restarts * n)))


def select(name: str, sample, em: EmConfig) -> BandwidthResult:
    """RT, PI (fitting with ``em`` as given, seed included) or LCV on one sample.

    ``circkde fit`` and the study's RT and LCV call this; the study's PI
    calls it when a chunk's ``plug_in_chunk`` raised. The selectors are
    this module's globals, looked up at call time, so rebinding
    ``simulate.plug_in`` (as perfbench/tracing.py does) reaches every
    caller.
    """
    if name == RT:
        return rule_of_thumb(sample)
    if name == PI:
        return plug_in(sample, em)
    if name == LCV:
        return lcv(sample)
    raise ValueError(f"unknown selector {name!r}")


def _replicate_sample(base_seed: int, model: ModelSpec, n: int, rep: int) -> np.ndarray:
    return model.sample(n, make_rng(base_seed, catalogue.model_index(model.id), n, rep))


def _chunk_outcomes(task) -> list[dict]:
    """All data-driven selectors on each sample of one chunk, against its model's truth grid.

    PI runs for the whole chunk through ``plug_in_chunk``. If that raises,
    each sample re-runs PI alone through ``select``, so that an error
    keeps its own message and replay key.
    """
    n, chunk, base_seed, truths, selectors, em = task
    models = {m: catalogue.get_model(m) for m in truths}
    samples = [_replicate_sample(base_seed, models[model_id], n, rep) for model_id, rep in chunk]
    seeds = [derive_seed(base_seed, catalogue.model_index(model_id), n, rep, 97) for model_id, rep in chunk]
    try:
        pi = plug_in_chunk(samples, seeds, em) if PI in selectors else None
    except Exception as exc:  # each sample re-runs PI alone below
        warnings.warn(
            f"PI on a chunk of {len(chunk)} samples of n={n} raised {type(exc).__name__}: {exc}; "
            "re-running it one sample at a time",
            stacklevel=2,
        )
        pi = None
    outcomes = []
    for i, ((model_id, _), sample, em_seed) in enumerate(zip(chunk, samples, seeds)):
        truth = truths[model_id]
        out: dict = {}
        for selector in selectors:
            try:
                if selector == PI and pi is not None:
                    res = pi[i]
                else:
                    res = select(selector, sample, replace(em, seed=em_seed))
                grid = kde_grid(KdeFit(sample, res.nu), truth.gridsize)
                out[selector] = {
                    "ise": ise(grid, truth),
                    "fallback": res.fallback,
                    "selected_m": res.selected_m,
                }
            except Exception as exc:
                out[selector] = {"error": f"{type(exc).__name__}: {exc}", "em_seed": em_seed}
        outcomes.append(out)
    return outcomes


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
        oracle_edge_hit=best == nu_grid.size - 1,
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
) -> list[CellComparison]:
    """Check every report cell against the published table.

    A cell passes when |observed - reference| (x100 scale) stays within
    ``DEFAULT_K_SIGMA`` Monte Carlo standard errors of the reference plus
    ``DEFAULT_ABS_SLACK`` times the reference mean (a relative slack), and
    no replicate was lost: a cell with selector errors, or with fewer
    replicates than the report's config asks for, fails whatever its mean.
    Missing reference cells are flagged, not fatal.
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
        window = DEFAULT_K_SIGMA * se + DEFAULT_ABS_SLACK * ref.mise_x100
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
