"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload, at toy size, it checks that:
- every metric named in BENCHMARK.json is printed with its unit, and each
  per-layer metric is non-zero on at least one workload unless it counts
  failures;
- traced and untraced fingerprints agree, and tracing restores every
  attribute it replaced;
- the correctness checks fire on deliberately broken outputs;
- the benchmark exits non-zero, without a result, when the package
  sources are missing.
Exit code 0 when every check passes. Takes about 30 s.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run

SEED = 7
# Per-layer metrics that count failures or fallbacks and may be zero everywhere.
MAY_BE_ZERO = {"em.fit.nonconverged", "selectors.pi.fallbacks", "simulate.selector_errors"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def printed_result(wl, result, record) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_result(wl, result, record)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_declarations(workloads) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end names and units match run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer names and units match run.py")
    expect([w["name"] for w in bench["workloads"]] == list(workloads),
           "BENCHMARK.json workloads match workloads.py")


def check_runs(workloads) -> None:
    import tracing

    nonzero = set()
    for name, wl in workloads.items():
        tiny = wl.tiny()
        fingerprints = {}
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            workdir = run.OUT / f"selftest-{name}-trace{trace}"
            result, record, _ = run.measure(tiny, SEED, 0, trace, workdir, setup_repeats=1)
            printed = printed_result(tiny, result, record)
            metrics = printed["metrics"]
            expect(
                set(metrics) == set(declared)
                and all(m["unit"] == declared[k] and math.isfinite(m["value"]) for k, m in metrics.items()),
                f"{name} trace={trace}: every declared metric printed with its unit",
            )
            expect(printed["correct"] and printed["failed"] == 0 and printed["attempted"] >= 1,
                   f"{name} trace={trace}: correct, nothing failed ({record['problems']})")
            fingerprints[trace] = record["fingerprints"][0]
            if trace:
                nonzero |= {k for k, m in metrics.items() if m["value"]}
        # The traced run also compares each traced operation with its untraced twin.
        expect(fingerprints[0] is not None and fingerprints[0] == fingerprints[1],
               f"{name}: traced and untraced fingerprints agree")
        expect(tracing.originals_restored(), f"{name}: traced attributes restored")
    missing = set(run.PER_LAYER) - MAY_BE_ZERO - nonzero
    expect(not missing, f"every per-layer metric is non-zero on some workload (zero: {sorted(missing)})")


def check_study_verdicts(wl) -> None:
    tiny = wl.tiny()
    cfg = tiny.setup(SEED, run.OUT / "selftest-broken")
    report = tiny.run(cfg, 0)
    expect(not tiny.check(cfg, report).problems, f"{wl.name}: intact report passes")
    first = report.cells[0]
    short = dataclasses.replace(first, replicates=first.replicates - 1, errors=1)
    broken = {
        "a cell short of a replicate": dataclasses.replace(report, cells=(short,) + report.cells[1:]),
        "a missing cell": dataclasses.replace(report, cells=report.cells[1:]),
        "a NaN mean ISE": dataclasses.replace(
            report, cells=(dataclasses.replace(first, mean_ise=math.nan),) + report.cells[1:]
        ),
    }
    for what, bad in broken.items():
        verdict = tiny.check(cfg, bad)
        expect(verdict.failed > 0 and verdict.problems, f"{wl.name}: check fires on {what}")


def check_fit_verdicts(wl) -> None:
    from workloads import check_fit_output

    tiny = wl.tiny()
    inputs = tiny.setup(SEED, run.OUT / "selftest-broken-fit")
    verdict = tiny.check(inputs, tiny.run(inputs, 0))
    expect(not verdict.problems, f"{wl.name}: intact fit output passes")
    expect(tiny.check(inputs, 1).failed == 1, f"{wl.name}: check fires on a non-zero exit")

    def scale_density(d):
        path = d / "density_LCV.csv"
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        path.write_text("\n".join([lines[0]] + [f"{t},{float(v) * 1.001!r}" for t, v in rows]) + "\n")

    def edit_report(edit):
        def apply(d):
            report = json.loads((d / "fit_report.json").read_text())
            edit(report["selectors"])
            (d / "fit_report.json").write_text(json.dumps(report))
        return apply

    broken = {
        "a density that does not integrate to 1": scale_density,
        "a selector missing from fit_report.json": edit_report(lambda s: s.pop("PI")),
        "a NaN nu": edit_report(lambda s: s["RT"].update(nu=math.nan)),
        "a missing density file": lambda d: (d / "density_RT.csv").unlink(),
    }
    for what, breaker in broken.items():
        copy = inputs.output_dir.with_name("broken")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(inputs.output_dir, copy)
        breaker(copy)
        expect(bool(check_fit_output(copy, tiny.selectors)), f"{wl.name}: check fires on {what}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.THIS.parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package sources the run exits non-zero and prints no result")


def main() -> int:
    run.import_package()
    from workloads import WORKLOADS, FitWorkload, StudyWorkload

    check_declarations(WORKLOADS)
    check_runs(WORKLOADS)
    for wl in WORKLOADS.values():
        if isinstance(wl, StudyWorkload):
            check_study_verdicts(wl)
        elif isinstance(wl, FitWorkload):
            check_fit_verdicts(wl)
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
