"""Deterministic substream derivation.

Every stochastic routine in the library draws from generators keyed by
(seed, *path), where the path is a tuple of small integers (replicate
index, chunk index, rank, ...). Substreams derived this way are
independent of execution order, so serial and any parallel schedule
produce bit-identical results.
"""

import numpy as np


def substream(seed: int, *path: int) -> "np.random.Generator":
    """Generator for the substream at `path` under `seed`."""
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.default_rng(sequence)
