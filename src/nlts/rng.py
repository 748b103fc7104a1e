"""Seeded substream derivation.

Every random draw in the package comes from a Generator built here, so a run is
fully determined by (seed, index path) and samples can be generated in any order
or in parallel without changing results. Forecast sample i draws its noise from
substream(seed, i); GP kernel ki of a suite draws all its series as one block
from substream(seed, ki).
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "numpy.random.PCG64"


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key).

    Uses SeedSequence spawn keys, so substream(s, 0) and substream(s, 1) are
    statistically independent streams, not offsets into one stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def rng_identity() -> dict:
    """Provenance block recorded in run manifests."""
    return {
        "generator": GENERATOR_NAME,
        "substream": "SeedSequence(entropy=seed, spawn_key=key)",
        "numpy": np.__version__,
    }
