"""In-memory span tracing of the calls between circkde layers.

A traced run swaps the module attributes through which one layer calls
another (for example ``circkde.simulate.plug_in`` or
``circkde.em.inverse_mean_resultant_ratio``) for timing wrappers, and puts
every original back when the ``patched`` block exits. The package source
is not edited. Spans stay in memory until the run writes them out.

A span is ``[name, start, end, parent index, counts]``; ``counts`` holds
work counts taken from the wrapped call's return value. A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counts=None):
        """``fn`` timed as span ``name``; ``counts(args, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx][4] = counts(args, result)
            return result

        return traced


def _em_fit_counts(_args, fit) -> dict:
    return {"iters": fit.n_iter, "nonconverged": int(not fit.converged)}


def _pi_counts(_args, res) -> dict:
    return {"fallbacks": int(res.fallback)}


def _lcv_counts(args, res) -> dict:
    n = np.asarray(args[0]).size
    return {
        "evals": res.diagnostics["optimizer"]["n_evals"],
        # the n x n float64 cosine matrix LCV builds per call
        "pairwise_bytes_computed": n * n * 8,
    }


def _grid_counts(args, grid) -> dict:
    return {"kernel_evals": grid.gridsize * args[0].n}


def targets() -> list[tuple]:
    """(owner, attribute, span name, counts) for every layer boundary traced."""
    from circkde import cli, em, models, selectors, simulate

    return [
        (em, "inverse_mean_resultant_ratio", "bessel.inverse_ratio", None),
        (selectors, "select_reference_mixture", "em.select", None),
        (em, "em_fit", "em.fit", _em_fit_counts),
        (em, "curvature_integral", "models.curvature", None),
        (models.ModelSpec, "sample", "models.sample", None),
        (simulate, "rule_of_thumb", "selectors.rt", None),
        (cli, "rule_of_thumb", "selectors.rt", None),
        (simulate, "plug_in", "selectors.pi", _pi_counts),
        (cli, "plug_in", "selectors.pi", _pi_counts),
        (simulate, "lcv", "selectors.lcv", _lcv_counts),
        (cli, "lcv", "selectors.lcv", _lcv_counts),
        (simulate, "oracle_mise_curve", "selectors.oracle_curve", None),
        (simulate, "kde_grid", "kde.grid", _grid_counts),
        (selectors, "kde_grid", "kde.grid", _grid_counts),
        (cli, "kde_grid", "kde.grid", _grid_counts),
        (simulate, "ise", "kde.ise", None),
        (selectors, "ise", "kde.ise", None),
        (cli, "read_angle_file", "cli.read", None),
        (cli, "cmd_fit", "cli.fit", None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Route every traced boundary through ``tracer`` for the block's duration."""
    saved = []
    try:
        for owner, attr, name, counts in targets():
            # KeyError here means a layer renamed the attribute this wraps.
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counts))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals_restored() -> bool:
    """True when no traced attribute is still a wrapper."""
    return all(
        not hasattr(owner.__dict__[attr], "__wrapped__")
        for owner, attr, _, _ in targets()
    )


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per span name: ``.calls``, ``.self_s`` and the summed work counts."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, counts) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += (end - start) - child_s[i]
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
    return {k: v if k.endswith("_s") else int(v) for k, v in totals.items()}
