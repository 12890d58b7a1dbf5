"""Deterministic random streams.

All randomness in the lab flows through the Philox-4x64-10 counter-based
generator (numpy's ``np.random.Philox``), keyed by ``(seed, stream)``.
Philox is a published, bit-reproducible algorithm, so a (seed, stream) pair
identifies the same sample sequence on every platform and in every
implementation of this tool's report format.

numpy loads on the first generator, so reading ``MAX_SEED`` costs nothing.
Stream 0 is the default; batch drivers give trial ``t`` its own generator
via ``trial_generator(seed, t)`` so trials are independent and order-free.
"""

from __future__ import annotations

MAX_SEED = 2**64 - 1


def _key(seed: int, stream: int) -> list[int]:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= stream <= MAX_SEED:
        raise ValueError(f"stream must be a 64-bit unsigned integer, got {stream}")
    return [seed, stream]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, stream), dtype=np.uint64)))


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded batch.

    Uses stream = trial + 1 so the batch driver itself can keep stream 0.
    """
    return make_generator(seed, trial + 1)
