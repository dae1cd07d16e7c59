"""Seeded, stream-keyed random number generators.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``. Streams are keyed by integer tuples so that
replicates, restarts and selectors each get an independent, reproducible
generator derived from one base seed.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream identified by ``keys``.

    Identical key tuples yield identical draw sequences; distinct tuples
    yield statistically independent streams. A non-integer key raises TypeError.
    """
    if not keys:
        raise ValueError("at least one key is required")
    seq = np.random.SeedSequence([operator.index(k) & _MASK64 for k in keys])
    return np.random.default_rng(seq)


def derive_seed(*keys: int) -> int:
    """Deterministic 64-bit integer seed derived from ``keys``.

    Used to hand a single-integer seed (e.g. to ``EmConfig``) that is
    independent of other streams keyed off the same base seed.
    """
    seq = np.random.SeedSequence([operator.index(k) & _MASK64 for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])
