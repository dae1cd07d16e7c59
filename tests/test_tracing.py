"""The benchmark tracer's contract: every attribute it wraps exists on its owner.

``perfbench/tracing.py`` swaps ``owner.__dict__[attr]`` for a timing
wrapper, so renaming or deleting a traced name (``KdeFit.n``, ``cli.lcv``)
breaks every traced benchmark run. This test reads the tracer's target
list without patching anything.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_attribute_is_on_its_owner(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span, _ in tracing.targets()
        if attr not in owner.__dict__
    ]
    assert not missing, f"traced attributes missing: {missing}"


def test_traced_fit_reads_its_work_counts(tracing, tmp_path, capsys):
    # The counts functions read result fields (KdeFit.n, the LCV optimizer
    # trace, the EM iteration count) that only a traced call exercises.
    from circkde import cli

    angles = tmp_path / "angles.txt"
    assert cli.main(["sample", "M7", "60", "--seed", "1", "--output", str(angles)]) == 0
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        code = cli.main(["fit", str(angles), "--output-dir", str(tmp_path / "fit")])
    capsys.readouterr()
    assert code == 0
    assert tracing.originals_restored()
    totals = tracing.layer_totals(tracer.spans)
    assert totals["kde.grid.kernel_evals"] == 3 * 1024 * 60
    assert totals["selectors.lcv.evals"] > 0
    assert totals["em.fit.iters"] > 0
