"""circkde benchmark: one workload per run, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload study-smoke --seed 20260810 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in its own process

With ``--trace 0`` the run times whole operations and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The run record (environment, verdicts, spans) is written
under ``.perfbench_out/`` at the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THIS = Path(__file__).resolve()
ROOT = THIS.parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh-interpreter set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
# Operation times are reported in nominal seconds: measured seconds x
# REFERENCE_NOMINAL_S / the time of a fixed reference loop (ReferenceLoop)
# run just before and after the operation. The machine the benchmark was
# written on swings by up to 2x in speed over minutes; the loop tracks that.
REFERENCE_NOMINAL_S = 0.2
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bessel.inverse_ratio.calls": "count",
    "bessel.inverse_ratio.self_s": "s",
    "em.select.calls": "count",
    "em.select.self_s": "s",
    "em.fit.calls": "count",
    "em.fit.self_s": "s",
    "em.fit.iters": "count",
    "em.fit.nonconverged": "count",
    "em.fit.converged_ratio": "ratio",
    "models.curvature.calls": "count",
    "models.curvature.self_s": "s",
    "models.sample.self_s": "s",
    "selectors.rt.self_s": "s",
    "selectors.pi.self_s": "s",
    "selectors.pi.fallbacks": "count",
    "selectors.lcv.calls": "count",
    "selectors.lcv.self_s": "s",
    "selectors.lcv.evals": "count",
    "selectors.lcv.pairwise_bytes_computed": "bytes",
    "selectors.oracle_curve.self_s": "s",
    "kde.grid.calls": "count",
    "kde.grid.self_s": "s",
    "kde.grid.kernel_evals": "count",
    "kde.ise.calls": "count",
    "kde.ise.self_s": "s",
    "simulate.self_s": "s",
    "simulate.selector_errors": "count",
    "cli.read.self_s": "s",
    "cli.fit.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import circkde from this checkout's src/, never from an installed copy."""
    init = SRC / "circkde" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a circkde checkout")
    sys.path.insert(0, str(SRC))
    import circkde

    if Path(circkde.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {circkde.__file__}, expected {init}")


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "workers": 1,
    }


class ReferenceLoop:
    """A fixed mix of interpreter work, numpy work on a cache-sized array and
    numpy work on 32 MB arrays, for timing the machine.

    The buffers are allocated once, so the loop's time does not depend on
    the allocator's state. They add about 66 MB to the process, which is
    why peak_rss_mb is measured in a process of its own.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.linspace(0.0, 1.0, 1 << 17)
        self._large = np.linspace(0.0, 1.0, 1 << 22)
        self._small_out = np.empty_like(self._small)
        self._large_out = np.empty_like(self._large)

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for data, out, reps in ((self._small, self._small_out, 120), (self._large, self._large_out, 6)):
            for _ in range(reps):
                np.multiply(data, 3.0, out=out)
                np.exp(out, out=out)
                out.sum()
        x = 0
        for i in range(600_000):
            x += i * i % 7
        return time.perf_counter() - t0


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` rescaled to a machine on which the reference takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2.0)


def warm_up(wl, seed: int, workdir: Path) -> None:
    """One toy-size operation, so first-call costs stay out of the timings."""
    tiny = wl.tiny()
    tiny.run(tiny.setup(seed, workdir / "warm-up"), 0)


def one_op_peak_rss_mb(wl, seed: int) -> float:
    """Peak RSS of a fresh interpreter that sets up and runs one operation."""
    cmd = [sys.executable, str(THIS), "--one-op", "--workload", wl.name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


def time_setups(wl, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import circkde, set up and warm up."""
    cmd = [sys.executable, str(THIS), "--setup-only", "--workload", wl.name, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def run_op(wl, inputs, op: int, tracer=None):
    """Operation number ``op``: (wall seconds or None if it raised, verdict)."""
    from tracing import patched
    from workloads import Verdict

    try:
        t0 = time.perf_counter()
        if tracer is None:
            output = wl.run(inputs, op)
        else:
            with patched(tracer), tracer.span(wl.root_span):
                output = wl.run(inputs, op)
        wall = time.perf_counter() - t0
    except Exception as exc:  # an operation that raises is counted as failed
        traceback.print_exc()
        n = wl.attempted_per_op(inputs)
        return None, Verdict(attempted=n, failed=n, problems=[f"operation raised {exc!r}"])
    return wall, wl.check(inputs, output)


def per_layer_metrics(layers: list[dict], untraced: list[float], traced: list[float], errors: int):
    """Per-layer values: counts of the first traced operation, median self times."""
    first = layers[0]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        elif name == "em.fit.converged_ratio":
            calls = first.get("em.fit.calls", 0)
            out[name] = (calls - first.get("em.fit.nonconverged", 0)) / calls if calls else 0.0
        elif name == "simulate.selector_errors":
            out[name] = errors
        elif name == "trace.overhead_ratio":
            out[name] = statistics.median(traced) / statistics.median(untraced) - 1.0
        else:
            out[name] = first.get(name, 0)
    return out


def measure(wl, seed: int, seconds: float, trace: int, workdir: Path, setup_repeats: int = SETUP_REPEATS):
    """Run one workload for about ``seconds``; returns (result line, run record, spans).

    Operations (with ``trace``, pairs of an untraced and a traced
    operation on the same inputs) repeat until the run ends at the
    operation boundary nearest to ``seconds``, and at least once.
    """
    from tracing import Tracer, layer_totals, originals_restored

    setup_times = [] if trace else time_setups(wl, seed, setup_repeats)
    peak_rss = None if trace else one_op_peak_rss_mb(wl, seed)
    inputs = wl.setup(seed, workdir)
    warm_up(wl, seed, workdir)

    verdicts, traced_verdicts, op_s, traced_s, layers, spans, rounds = [], [], [], [], [], [], []
    reference = ReferenceLoop()
    refs = [reference.seconds()]
    problems: list[str] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 < seconds:
        round_start = time.perf_counter()
        op = len(rounds)
        # Alternate which of the pair runs first, so neither gets a systematic edge.
        tracers = [None, Tracer()][:: 1 if op % 2 == 0 else -1] if trace else [None]
        outcomes = {tracer is None: (tracer, *run_op(wl, inputs, op, tracer)) for tracer in tracers}
        _, wall, verdict = outcomes[True]
        verdicts.append(verdict)
        if wall is not None:
            op_s.append((op, wall))
        if trace:
            tracer, wall_t, verdict_t = outcomes[False]
            traced_verdicts.append(verdict_t)
            if not originals_restored():
                problems.append("a traced attribute was not restored")
            if verdict_t.fingerprint != verdict.fingerprint:
                problems.append(f"operation {op}: traced fingerprint differs from the untraced one")
            if wall_t is not None:
                traced_s.append(wall_t)
                layers.append(layer_totals(tracer.spans))
                spans.append(tracer.spans)
        refs.append(reference.seconds())
        rounds.append(time.perf_counter() - round_start)

    for v in verdicts + traced_verdicts:
        problems += v.problems
    attempted = sum(v.attempted for v in verdicts + traced_verdicts)
    failed = sum(v.failed for v in verdicts + traced_verdicts)
    if not op_s or (trace and not traced_s):
        raise SystemExit(f"perfbench: no {wl.name} operation completed: {problems}")
    if trace:
        errors = traced_verdicts[0].info.get("selector_errors", 0)
        values = per_layer_metrics(layers, [w for _, w in op_s], traced_s, errors)
        units = PER_LAYER
    else:
        nominal_op_s = [nominal(w, refs[k], refs[k + 1]) for k, w in op_s]
        values = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": wl.work_per_op(inputs) / statistics.median(nominal_op_s),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "env": environment(wl.name, seed, trace),
        "result": result,
        "op_s": [w for _, w in op_s],
        "traced_op_s": traced_s,
        "reference_s": refs,
        "work_per_op": wl.work_per_op(inputs),
        "setup_s": setup_times,
        "fingerprints": [v.fingerprint for v in verdicts],
        "problems": problems,
        "verdict_info": verdicts[0].info,
    }
    return result, record, spans


def summary_lines(wl, result: dict, record: dict) -> list[str]:
    m = result["metrics"]
    lines = [f"workload {wl.name}: {len(record['op_s'])} operations, env {json.dumps(record['env'])}"]
    for name, metric in m.items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "work_per_s" in m:
        wall_op = statistics.median(record["op_s"])
        if wl.alias == "fit.wall_s":
            lines.append(f"  fit.wall_s = {wall_op:.6g} s (wall clock)")
        else:
            lines.append(f"  {wl.alias} = {record['work_per_op'] / wall_op:.6g} 1/s (wall clock)")
        lines.append(
            f"  reference loop {statistics.median(record['reference_s']):.4g} s "
            f"against {REFERENCE_NOMINAL_S} s nominal"
        )
    lines.append(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    info = record["verdict_info"]
    if "reference_outside" in info:
        lines.append(f"  reference: {info['reference_outside']} of {len(info['reference'])} cells outside the window")
    verdict = "correct" if result["correct"] else "INCORRECT: " + "; ".join(record["problems"][:5])
    lines.append(f"  verdict: {verdict}; first fingerprint {record['fingerprints'][0]}")
    return lines


def print_result(wl, result: dict, record: dict) -> None:
    """The human-readable summary, then the result object as the last line."""
    print("\n".join(summary_lines(wl, result, record)))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    from workloads import WORKLOADS

    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(THIS), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            ok = False
            results[name] = {"exit_code": proc.returncode}
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="study-smoke, oracle-m2, fit-large or all")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the study's 20260810)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--one-op", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from workloads import STUDY_DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = STUDY_DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only or args.one_op:
        inputs = wl.setup(args.seed, workdir / "setup")
        warm_up(wl, args.seed, workdir / "setup")
        if args.one_op:
            wl.run(inputs, 0)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return 0

    result, record, spans = measure(wl, args.seed, args.seconds, args.trace, workdir)
    (workdir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (workdir / "spans.json").write_text(json.dumps(spans, separators=(",", ":")) + "\n")
    print_result(wl, result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
