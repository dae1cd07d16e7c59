"""Command-line interface: fit user data, sample models, run experiments.

Commands
--------
fit       estimate a density from a file of angles, one per line
sample    draw from a catalogue model into an angle file
simulate  run the Monte Carlo study, optionally gated against the
          published reference table
models    print the model catalogue as JSON

Exit codes: 0 success, 1 usage or input error, 2 reference-regression
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalogue
from .em import EmConfig
from .kde import KdeFit, kde_grid
from .models import TWO_PI, wrap_angle
from .rng import derive_seed, make_rng
from .selectors import LCV, ORACLE, PI, RT
# Unused here, but perfbench/tracing.py wraps cli.rule_of_thumb, cli.plug_in and cli.lcv.
from .selectors import lcv, plug_in, rule_of_thumb  # noqa: F401
from .simulate import ExperimentConfig, compare_to_reference, run_experiment, select

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGRESSION = 2


class CliError(Exception):
    """Input or usage problem; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def read_angle_file(path: str, degrees: bool = False) -> np.ndarray:
    """One finite angle per line; blank lines and '#' comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise CliError(f"{path}: line {lineno}: not a number: {line!r}") from None
        if not math.isfinite(value):
            raise CliError(f"{path}: line {lineno}: non-finite value: {line!r}")
        values.append(value)
    arr = np.asarray(values, dtype=float)
    if degrees:
        arr = np.deg2rad(arr)
    return wrap_angle(arr)


def write_angle_file(path, angles: np.ndarray, header: str, degrees: bool = False) -> None:
    out = np.rad2deg(angles) if degrees else angles
    lines = [f"# {header}", f"# unit={'degrees' if degrees else 'radians'}"]
    lines += [f"{a:.12g}" for a in out]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_selectors(raw: str, allowed=(RT, PI, LCV)) -> tuple[str, ...]:
    names = [s.strip().upper() for s in raw.split(",") if s.strip()]
    bad = [s for s in names if s not in allowed]
    if bad:
        raise CliError(f"unknown selectors: {', '.join(bad)} (choose from {', '.join(allowed)})")
    if not names:
        raise CliError("no selectors given")
    return tuple(dict.fromkeys(names))


def _power_of_two(text: str) -> int:
    value = int(text)
    if value < 8 or value & (value - 1):
        raise argparse.ArgumentTypeError(f"gridsize must be a power of two >= 8, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="circkde", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a circular density to an angle file")
    p_fit.add_argument("input", help="angle file, one value per line")
    p_fit.add_argument("--degrees", action="store_true", help="input angles are degrees")
    p_fit.add_argument("--selectors", default="rt,pi,lcv", help="comma list of rt,pi,lcv")
    p_fit.add_argument("--gridsize", type=_power_of_two, default=1024)
    p_fit.add_argument("--rose-bins", type=int, default=18)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--output-dir", default=".")

    p_sample = sub.add_parser("sample", help="sample a catalogue model")
    p_sample.add_argument("model", help="model id, M1..M20")
    p_sample.add_argument("n", type=int, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--degrees", action="store_true", help="write degrees")
    p_sample.add_argument("--output", default=None, help="output file (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    p_sim.add_argument("--models", default=",".join(ExperimentConfig().models))
    p_sim.add_argument("--sizes", default="100,250")
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--selectors", default="rt,pi,lcv")
    p_sim.add_argument("--seed", type=int, default=ExperimentConfig().base_seed)
    p_sim.add_argument("--gridsize", type=_power_of_two, default=1024)
    p_sim.add_argument("--output-dir", default=".")
    p_sim.add_argument("--workers", type=int, default=1, help="parallel replicate workers")
    p_sim.add_argument(
        "--reference",
        action="store_true",
        help="compare against the published tables; exit 2 on any failing cell",
    )
    p_sim.add_argument(
        "--full",
        action="store_true",
        help="full-scale run: all 20 models, n in {100,250,500}, 1000 replicates",
    )

    sub.add_parser("models", help="print the model catalogue as JSON")
    return parser


def cmd_fit(args) -> int:
    sample = read_angle_file(args.input, degrees=args.degrees)
    if sample.size < 2:
        raise CliError(f"{args.input}: need at least 2 angles, got {sample.size}")
    if args.rose_bins < 1:
        raise CliError("--rose-bins must be >= 1")
    selectors = _parse_selectors(args.selectors)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    report: dict = {
        "input": args.input,
        "n": int(sample.size),
        "unit": "degrees" if args.degrees else "radians",
        "selectors": {},
        "files": {},
    }
    em = EmConfig(seed=derive_seed(args.seed, 11))
    for name in selectors:
        res = select(name, sample, em)
        grid = kde_grid(KdeFit(sample, res.nu), args.gridsize)
        dens_path = outdir / f"density_{name}.csv"
        with dens_path.open("w") as f:
            f.write("theta,density\n")
            for t, d in zip(grid.thetas, grid.values):
                f.write(f"{t:.12g},{d:.12g}\n")
        report["files"][name] = str(dens_path)
        entry = {"nu": res.nu, "fallback": res.fallback}
        if res.selected_m is not None:
            entry["selected_m"] = res.selected_m
        if res.aic_table:
            entry["aic_table"] = {str(k): v for k, v in sorted(res.aic_table.items())}
        if res.objective is not None:
            entry["objective"] = res.objective
        if res.fallback:
            entry["fallback_reason"] = res.diagnostics.get("fallback_reason")
        report["selectors"][name] = entry

    counts, edges = np.histogram(sample, bins=args.rose_bins, range=(0.0, TWO_PI))
    rose_path = outdir / "rose.csv"
    with rose_path.open("w") as f:
        f.write("bin_start,bin_end,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            f.write(f"{lo:.10g},{hi:.10g},{int(c)}\n")
    report["files"]["rose"] = str(rose_path)

    report_path = outdir / "fit_report.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for name in selectors:
        entry = report["selectors"][name]
        extra = " (fallback to rule of thumb)" if entry.get("fallback") else ""
        m = f", M={entry['selected_m']}" if "selected_m" in entry else ""
        print(f"{name}: nu={entry['nu']:.6g}{m}{extra}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.model not in catalogue.CATALOGUE:
        raise CliError(f"unknown model id {args.model!r}; run 'circkde models' for the list")
    if args.n < 0:
        raise CliError("n must be non-negative")
    model = catalogue.get_model(args.model)
    rng = make_rng(args.seed, catalogue.model_index(args.model))
    angles = model.sample(args.n, rng)
    header = f"model={args.model} n={args.n} seed={args.seed}"
    write_angle_file(args.output, angles, header, degrees=args.degrees)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.full:
        models = catalogue.MODEL_IDS
        sizes = (100, 250, 500)
        replicates = 1000 if args.replicates is None else args.replicates
    else:
        models = tuple(m.strip() for m in args.models.split(",") if m.strip())
        try:
            sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            raise CliError(f"--sizes must be a comma list of integers, got {args.sizes!r}") from None
        replicates = ExperimentConfig().replicates if args.replicates is None else args.replicates
    selectors = _parse_selectors(args.selectors, allowed=(RT, PI, LCV, ORACLE))
    try:
        cfg = ExperimentConfig(
            models=models,
            sample_sizes=sizes,
            replicates=replicates,
            selectors=selectors,
            base_seed=args.seed,
            gridsize=args.gridsize,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.workers < 1:
        raise CliError("--workers must be >= 1")

    report = run_experiment(cfg, workers=args.workers)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    json_path = outdir / "simulation_report.json"
    json_path.write_text(report.to_json() + "\n")
    table_path = outdir / "simulation_report.txt"
    table_path.write_text(report.to_table() + "\n")
    print(report.to_table())
    print(f"report: {json_path}")

    if args.reference:
        comparisons = compare_to_reference(report)
        failing = [c for c in comparisons if c.passed is False]
        for comp in comparisons:
            print(comp.describe())
        if failing:
            print(f"{len(failing)} cell(s) outside the reference window", file=sys.stderr)
            return EXIT_REGRESSION
    return EXIT_OK


def cmd_models(_args) -> int:
    print(catalogue.catalogue_json())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "fit": cmd_fit,
        "sample": cmd_sample,
        "simulate": cmd_simulate,
        "models": cmd_models,
    }[args.command]
    try:
        return handler(args)
    except CliError as exc:
        print(f"circkde: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
