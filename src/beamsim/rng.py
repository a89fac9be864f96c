"""Deterministic random-stream derivation.

Every stochastic routine takes an explicit :class:`numpy.random.Generator`.
Independent substreams are derived from a 64-bit user seed plus an integer
key path, so trials (or chunks of trials) can be distributed across workers
while remaining bit-reproducible for any worker count.

``numpy.random`` (and the OpenSSL-backed ``secrets`` it imports) loads on
the first :func:`substream` or :func:`child_seed` call, not with this
module: a command that neither draws nor derives a seed never loads it.
"""

from __future__ import annotations

# numpy >= 2 imports its random package on first attribute access (module
# __getattr__), numpy 1.x with numpy itself: either way np.random.X works.
import numpy as np

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
