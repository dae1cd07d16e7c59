"""The twenty benchmark models M1-M20, defined as one data table.

Each entry is a tuple of (weight, family name, parameter dict) rows so the
catalogue can be diffed against its source and serialized verbatim for the
CLI ``models`` command.
"""

from __future__ import annotations

import json
import math

from .models import (
    Cardioid,
    CircularUniform,
    ModelSpec,
    VonMises,
    WrappedCauchy,
    WrappedNormal,
    WrappedSkewNormal,
)

PI = math.pi

CATALOGUE: dict[str, tuple[tuple[float, str, dict], ...]] = {
    # -- simple models ----------------------------------------------------
    "M1": ((1.0, "uniform", {}),),
    "M2": ((1.0, "vonmises", {"mu": PI, "kappa": 1.0}),),
    "M3": ((1.0, "wrapped_normal", {"mu": 0.0, "rho": 0.9}),),
    "M4": ((1.0, "cardioid", {"mu": 0.0, "rho": 0.5}),),
    "M5": ((1.0, "wrapped_cauchy", {"mu": 0.0, "rho": 0.8}),),
    "M6": ((1.0, "wrapped_skew_normal", {"xi": 0.0, "eta": 1.0, "lam": 20.0}),),
    # -- two-component models ---------------------------------------------
    "M7": (
        (0.5, "vonmises", {"mu": 0.0, "kappa": 4.0}),
        (0.5, "vonmises", {"mu": PI, "kappa": 4.0}),
    ),
    "M8": (
        (0.5, "vonmises", {"mu": 2.0, "kappa": 5.0}),
        (0.5, "vonmises", {"mu": 4.0, "kappa": 5.0}),
    ),
    "M9": (
        (0.25, "vonmises", {"mu": 0.0, "kappa": 2.0}),
        (0.75, "vonmises", {"mu": PI / math.sqrt(3.0), "kappa": 2.0}),
    ),
    "M10": (
        (0.8, "vonmises", {"mu": PI, "kappa": 5.0}),
        (0.2, "wrapped_cauchy", {"mu": 4.0 * PI / 3.0, "rho": 0.9}),
    ),
    # -- three or more components ------------------------------------------
    "M11": (
        (1.0 / 3.0, "vonmises", {"mu": PI / 3.0, "kappa": 6.0}),
        (1.0 / 3.0, "vonmises", {"mu": PI, "kappa": 6.0}),
        (1.0 / 3.0, "vonmises", {"mu": 5.0 * PI / 3.0, "kappa": 6.0}),
    ),
    "M12": (
        (0.4, "vonmises", {"mu": PI / 2.0, "kappa": 4.0}),
        (0.2, "vonmises", {"mu": PI, "kappa": 5.0}),
        (0.4, "vonmises", {"mu": 3.0 * PI / 2.0, "kappa": 4.0}),
    ),
    "M13": (
        (0.4, "vonmises", {"mu": 0.5, "kappa": 6.0}),
        (0.4, "vonmises", {"mu": 3.0, "kappa": 6.0}),
        (0.2, "vonmises", {"mu": 5.0, "kappa": 24.0}),
    ),
    "M14": (
        (0.25, "vonmises", {"mu": 0.0, "kappa": 12.0}),
        (0.25, "vonmises", {"mu": PI / 2.0, "kappa": 12.0}),
        (0.25, "vonmises", {"mu": PI, "kappa": 12.0}),
        (0.25, "vonmises", {"mu": 3.0 * PI / 2.0, "kappa": 12.0}),
    ),
    "M15": (
        (0.3, "wrapped_cauchy", {"mu": PI - 1.0, "rho": 0.6}),
        (0.25, "wrapped_normal", {"mu": PI + 0.5, "rho": 0.9}),
        (0.25, "vonmises", {"mu": PI + 2.0, "kappa": 3.0}),
        (0.2, "wrapped_skew_normal", {"xi": 6.0, "eta": 1.0, "lam": 3.0}),
    ),
    "M16": (
        (0.2, "vonmises", {"mu": PI / 5.0, "kappa": 18.0}),
        (0.2, "vonmises", {"mu": 3.0 * PI / 5.0, "kappa": 18.0}),
        (0.2, "vonmises", {"mu": PI, "kappa": 18.0}),
        (0.2, "vonmises", {"mu": 7.0 * PI / 5.0, "kappa": 18.0}),
        (0.2, "vonmises", {"mu": 9.0 * PI / 5.0, "kappa": 18.0}),
    ),
    # -- other complex models ----------------------------------------------
    "M17": (
        (2.0 / 3.0, "cardioid", {"mu": PI, "rho": 0.5}),
        (1.0 / 3.0, "wrapped_cauchy", {"mu": PI, "rho": 0.9}),
    ),
    "M18": (
        (0.5, "vonmises", {"mu": PI, "kappa": 1.0}),
        (1.0 / 6.0, "vonmises", {"mu": PI - 0.8, "kappa": 30.0}),
        (1.0 / 6.0, "vonmises", {"mu": PI, "kappa": 30.0}),
        (1.0 / 6.0, "vonmises", {"mu": PI + 0.8, "kappa": 30.0}),
    ),
    "M19": (
        (4.0 / 9.0, "vonmises", {"mu": 2.0, "kappa": 3.0}),
        (5.0 / 36.0, "vonmises", {"mu": 4.0, "kappa": 3.0}),
        (5.0 / 36.0, "vonmises", {"mu": 3.5, "kappa": 50.0}),
        (5.0 / 36.0, "vonmises", {"mu": 4.0, "kappa": 50.0}),
        (5.0 / 36.0, "vonmises", {"mu": 4.5, "kappa": 50.0}),
    ),
    "M20": (
        (1.0 / 3.0, "wrapped_skew_normal", {"xi": 0.0, "eta": 0.7, "lam": 20.0}),
        (1.0 / 3.0, "wrapped_skew_normal", {"xi": PI, "eta": 0.7, "lam": 20.0}),
        (1.0 / 6.0, "wrapped_cauchy", {"mu": 3.0 * PI / 4.0, "rho": 0.9}),
        (1.0 / 6.0, "wrapped_cauchy", {"mu": 7.0 * PI / 4.0, "rho": 0.9}),
    ),
}

MODEL_IDS: tuple[str, ...] = tuple(CATALOGUE)

_FAMILIES = {
    "uniform": CircularUniform,
    "vonmises": VonMises,
    "cardioid": Cardioid,
    "wrapped_normal": WrappedNormal,
    "wrapped_cauchy": WrappedCauchy,
    "wrapped_skew_normal": WrappedSkewNormal,
}


def get_model(model_id: str) -> ModelSpec:
    """Build the ModelSpec for a catalogue id (M1..M20)."""
    try:
        rows = CATALOGUE[model_id]
    except KeyError:
        raise KeyError(f"unknown model id {model_id!r}; expected one of M1..M20") from None
    weights = tuple(w for w, _, _ in rows)
    parts = tuple(_FAMILIES[family](**params) for _, family, params in rows)
    return ModelSpec(id=model_id, weights=weights, parts=parts)


def model_index(model_id: str) -> int:
    """Stable integer key for a model id, used to derive RNG streams."""
    if model_id not in CATALOGUE:
        raise KeyError(f"unknown model id {model_id!r}")
    return int(model_id[1:])


def catalogue_json() -> str:
    """Deterministic JSON rendering of the catalogue, in declaration order."""
    listing = [
        {
            "id": mid,
            "components": [
                {"weight": w, "family": family, "params": dict(params)}
                for w, family, params in rows
            ],
        }
        for mid, rows in CATALOGUE.items()
    ]
    return json.dumps(listing, indent=2)
