"""Deterministic random-number-generator plumbing.

Every stochastic component of the library (execution backends, QPD sampler,
workload generators, benchmark harness) accepts a ``seed`` argument that is
converted into a :class:`numpy.random.Generator` by :func:`as_generator`.
Passing an existing generator threads the same stream through nested
components, which keeps full experiments reproducible end-to-end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "spawn_generators", "spawn_seed_sequences", "SeedLike"]

#: Types accepted wherever a seed is expected.
SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    * ``None`` → a fresh OS-entropy generator,
    * an ``int`` or :class:`numpy.random.SeedSequence` → a seeded PCG64 generator,
    * an existing :class:`numpy.random.Generator` → returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Return ``count`` independent child :class:`~numpy.random.SeedSequence` objects.

    This is the picklable form of :func:`spawn_generators`: execution backends
    ship these to worker processes (or consume them in-process) so that every
    circuit in a batch is sampled from the same per-circuit stream no matter
    which backend, chunking or evaluation order is used.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator to preserve determinism.
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return list(root.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Return ``count`` statistically independent child generators.

    Independent streams are required when workload items are evaluated in an
    order-independent way (e.g. parameter sweeps) so that reordering the sweep
    does not change per-item results.
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, count)]
