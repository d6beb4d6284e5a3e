"""Deterministic seed-derived substreams and fixed-order chunked execution.

A master seed plus an integer key tuple pins down one generator, so every
consumer of randomness (one per coincidence pair, the locality scan, the
state sampler) owns an independent stream.  Large jobs are cut into
fixed-size chunks, one substream per chunk; results are merged in chunk
order, which makes every estimate a pure function of (seed, n) no matter
how many workers executed the chunks.
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

import numpy as np

from .errors import InvariantError

CHUNK_SIZE = 1 << 15

# First spawn-key component: streams 0..3 belong to the coincidence pairs in
# canonical order, the rest to the other seeded consumers.
LOCALITY_STREAM = 4
BORN_STREAM = 5

T = TypeVar("T")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def check_seed(seed: int) -> None:
    """The seed rule of every seeded consumer: an integer in [0, 2**64),
    which ``SeedSequence`` and the tie coin's hash both take."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise InvariantError(f"seed must be an integer in [0, 2**64), got {seed!r}", "seed")


def chunk_sizes(n: int) -> list[int]:
    """Split ``n`` draws into ``CHUNK_SIZE`` chunks (last one ragged)."""
    if n < 0:
        raise InvariantError(f"cannot chunk a negative count: {n}", "n")
    full, rest = divmod(n, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def run_chunks(chunk_fn: Callable[[int, int], T], n: int, workers: int = 1) -> list[T]:
    """Evaluate ``chunk_fn(chunk_index, size)`` for every chunk of ``n``.

    Results come back in chunk order regardless of ``workers``, so any
    order-respecting reduction over them is reproducible.  The pool gets
    no more threads than there are chunks or CPUs.
    """
    sizes = chunk_sizes(n)
    workers = min(workers, len(sizes), os.cpu_count() or 1)
    if workers <= 1:
        return [chunk_fn(i, size) for i, size in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, range(len(sizes)), sizes))
