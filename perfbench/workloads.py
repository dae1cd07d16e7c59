"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Each workload has ``setup(seed, workdir) -> inputs``; ``run(inputs, op)
-> output``, timed operation number ``op`` through the public API at
``workers=1``; ``check(inputs, output) -> Verdict``; and
``work_per_op(inputs)``, the work units one operation completes.
``tiny()`` returns the same workload at toy size, for warm-up and the
self-test.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from circkde import cli, simulate
from circkde.rng import derive_seed
from circkde.selectors import LCV, ORACLE, PI, RT

STUDY_DEFAULT_SEED = simulate.ExperimentConfig().base_seed


def op_seed(seed: int, op: int) -> int:
    """Seed of operation ``op``: the workload seed itself, then seeds derived from it.

    Fresh inputs per operation make a run average over many samples, so
    its timing depends little on any one of them.
    """
    return seed if op == 0 else derive_seed(seed, op)


@dataclass
class Verdict:
    """Correctness of one operation's output."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    info: dict = field(default_factory=dict)


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def study_fingerprint(report: simulate.SimulationReport) -> str:
    """sha256 of the cells and metadata, with ``wall_time_s`` excluded."""
    meta = {k: v for k, v in report.metadata.items() if k != "wall_time_s"}
    return _sha256({"cells": [asdict(c) for c in report.cells], "metadata": meta})


@dataclass(frozen=True)
class StudyWorkload:
    """``run_experiment`` on a fixed grid of models x sizes x selectors."""

    name: str
    models: tuple[str, ...]
    sizes: tuple[int, ...]
    replicates: int
    selectors: tuple[str, ...]
    alias: str  # the throughput's name in the human-readable summary
    root_span: str = "simulate"

    def tiny(self) -> "StudyWorkload":
        return replace(self, models=self.models[:2], sizes=(60,), replicates=1)

    def setup(self, seed: int, workdir: Path) -> simulate.ExperimentConfig:
        return simulate.ExperimentConfig(
            models=self.models,
            sample_sizes=self.sizes,
            replicates=self.replicates,
            selectors=self.selectors,
            base_seed=seed,
        )

    def run(self, cfg: simulate.ExperimentConfig, op: int) -> simulate.SimulationReport:
        return simulate.run_experiment(replace(cfg, base_seed=op_seed(cfg.base_seed, op)), workers=1)

    def work_per_op(self, cfg: simulate.ExperimentConfig) -> int:
        """Replicates through every selector; for ORACLE, (replicate, nu) ISE evaluations."""
        if self.selectors == (ORACLE,):
            per_cell = [simulate.default_oracle_grid(n).size for n in cfg.sample_sizes]
            return len(cfg.models) * cfg.replicates * sum(per_cell)
        return len(cfg.models) * len(cfg.sample_sizes) * cfg.replicates

    def attempted_per_op(self, cfg: simulate.ExperimentConfig) -> int:
        """Selector calls: one per (cell, replicate)."""
        return len(cfg.models) * len(cfg.sample_sizes) * len(cfg.selectors) * cfg.replicates

    def check(self, cfg: simulate.ExperimentConfig, report: simulate.SimulationReport) -> Verdict:
        """Every cell present with its full replicate count and no selector error.

        Cells are not judged on the replicates that survived: a cell short
        of replicates is a failure whatever its mean. The reference-window
        verdicts are recorded but do not decide correctness, because the
        window is a statistical test that a correct program fails at some
        seeds.
        """
        problems = []
        failed = 0
        expected = {(m, n, s) for m in cfg.models for n in cfg.sample_sizes for s in cfg.selectors}
        missing = expected - {(c.model, c.n, c.selector) for c in report.cells}
        if missing:
            problems.append(f"cells missing from the report: {sorted(missing)}")
            failed += len(missing) * cfg.replicates
        for c in report.cells:
            lost = max(c.errors, cfg.replicates - c.replicates)
            failed += lost
            if lost:
                problems.append(
                    f"{c.model} n={c.n} {c.selector}: {c.replicates}/{cfg.replicates} "
                    f"replicates, {c.errors} selector errors"
                )
            elif not math.isfinite(c.mean_ise):
                problems.append(f"{c.model} n={c.n} {c.selector}: mean ISE {c.mean_ise}")
                failed += cfg.replicates
        verdicts = {
            f"{c.model}/{c.n}/{c.selector}": {None: "no reference", True: "pass", False: "FAIL"}[c.passed]
            for c in simulate.compare_to_reference(report)
        }
        return Verdict(
            attempted=self.attempted_per_op(cfg),
            failed=failed,
            problems=problems,
            fingerprint=study_fingerprint(report),
            info={
                "selector_errors": sum(c.errors for c in report.cells),
                "reference_outside": sum(v == "FAIL" for v in verdicts.values()),
                "reference": verdicts,
            },
        )


@dataclass(frozen=True)
class FitInputs:
    angle_files: tuple[Path, ...]
    output_dir: Path
    seed: int


@dataclass(frozen=True)
class FitWorkload:
    """``circkde fit`` on one large angle file per operation.

    Set-up writes ``files`` angle files; operation ``op`` fits file
    ``op % files``, drawn with ``op_seed(seed, op % files)``.
    """

    name: str
    model: str
    n: int
    files: int = 16
    selectors: tuple[str, ...] = (RT, PI, LCV)
    alias: str = "fit.wall_s"
    root_span: str = "cli.main"

    def tiny(self) -> "FitWorkload":
        return replace(self, n=300)

    def setup(self, seed: int, workdir: Path) -> FitInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k in range(self.files):
            path = workdir / f"{self.model.lower()}_n{self.n}_{k}.txt"
            argv = ["sample", self.model, str(self.n), "--seed", str(op_seed(seed, k)), "--output", str(path)]
            code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"circkde sample exited with {code}")
            paths.append(path)
        return FitInputs(tuple(paths), workdir / "fit", seed)

    def run(self, inputs: FitInputs, op: int) -> int:
        shutil.rmtree(inputs.output_dir, ignore_errors=True)
        argv = [
            "fit", str(inputs.angle_files[op % len(inputs.angle_files)]),
            "--selectors", ",".join(s.lower() for s in self.selectors),
            "--seed", str(inputs.seed),
            "--output-dir", str(inputs.output_dir),
        ]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def work_per_op(self, inputs: FitInputs) -> int:
        return 1

    def attempted_per_op(self, inputs: FitInputs) -> int:
        return 1

    def check(self, inputs: FitInputs, exit_code: int) -> Verdict:
        problems = check_fit_output(inputs.output_dir, self.selectors) if exit_code == 0 else [
            f"circkde fit exited with {exit_code}"
        ]
        fingerprint = None
        if not problems:
            report = json.loads((inputs.output_dir / "fit_report.json").read_text())
            densities = {
                s: hashlib.sha256((inputs.output_dir / f"density_{s}.csv").read_bytes()).hexdigest()
                for s in self.selectors
            }
            fingerprint = _sha256({"selectors": report["selectors"], "densities": densities})
        return Verdict(attempted=1, failed=int(bool(problems)), problems=problems, fingerprint=fingerprint)


def check_fit_output(outdir: Path, selectors) -> list[str]:
    """Finite nu per selector, unit-mass density CSVs, every selector reported."""
    try:
        report = json.loads((outdir / "fit_report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"fit_report.json unreadable: {exc}"]
    problems = []
    listed = sorted(report.get("selectors", {}))
    if listed != sorted(selectors):
        problems.append(f"fit_report.json lists selectors {listed}, expected {sorted(selectors)}")
    for name, entry in report.get("selectors", {}).items():
        if not math.isfinite(float(entry.get("nu", math.nan))):
            problems.append(f"{name}: nu {entry.get('nu')!r} is not finite")
    for name in selectors:
        path = outdir / f"density_{name}.csv"
        try:
            dens = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            continue
        mass = float(dens.sum() * (2.0 * math.pi / dens.size))
        if not abs(mass - 1.0) <= 1e-6:
            problems.append(f"{path.name} integrates to {mass!r}, not 1 within 1e-6")
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's study: PI/EM and Bessel inversion dominate, KDE is ~4%.
        StudyWorkload(
            name="study-smoke",
            models=simulate.SMOKE_MODELS,
            sizes=(100, 250),
            replicates=1,
            selectors=(RT, PI, LCV),
            alias="study.replicates_per_s",
        ),
        # Oracle curve only: KDE grid + ISE at 50 nu per replicate, no EM.
        StudyWorkload(
            name="oracle-m2",
            models=("M2",),
            sizes=(100, 250),
            replicates=8,
            selectors=(ORACLE,),
            alias="oracle.ise_evals_per_s",
        ),
        # One large user file: LCV's n^2 time and memory, CLI file I/O. At
        # n=4000 each LCV evaluation page-faults in fresh 128 MB matrices, and
        # that kernel work swings by up to 1.8x with the machine's load; at
        # n=2000 the 32 MB matrices are reused and the fit is CPU-bound.
        FitWorkload(name="fit-large", model="M16", n=2000),
    )
}
