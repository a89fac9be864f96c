"""Deterministic random-stream derivation.

Every stochastic routine takes an explicit :class:`numpy.random.Generator`.
Independent substreams are derived from a 64-bit user seed plus an integer
key path, so trials (or chunks of trials) can be distributed across workers
while remaining bit-reproducible for any worker count.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy loads its random package lazily; load it at import

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``.

    Two calls with the same arguments yield identically-seeded generators;
    distinct key paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & _SEED_MASK, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def child_seed(seed: int, *key: int) -> int:
    """Derived 64-bit seed for the child stream identified by ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=int(seed) & _SEED_MASK, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
