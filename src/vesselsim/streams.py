"""Deterministic seed-derived substreams and fixed-order chunked execution.

A master seed plus an integer key tuple pins down one generator, so every
consumer of randomness (one per coincidence pair, the locality scan, the
state sampler) owns an independent stream.  Large jobs are cut into
fixed-size chunks, one substream per chunk; results are merged in chunk
order, which makes every estimate a pure function of (seed, n) no matter
how many workers executed the chunks.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

import numpy as np

CHUNK_SIZE = 1 << 15

# First spawn-key component: streams 0..3 belong to the coincidence pairs in
# canonical order, the rest to the other seeded consumers.
LOCALITY_STREAM = 4
BORN_STREAM = 5

T = TypeVar("T")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def chunk_sizes(n: int, chunk_size: int = CHUNK_SIZE) -> list[int]:
    """Split ``n`` draws into fixed-size chunks (last one ragged)."""
    if n < 0:
        raise ValueError(f"cannot chunk a negative count: {n}")
    full, rest = divmod(n, chunk_size)
    sizes = [chunk_size] * full
    if rest:
        sizes.append(rest)
    return sizes


def run_chunks(
    chunk_fn: Callable[[int, int], T],
    n: int,
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> list[T]:
    """Evaluate ``chunk_fn(chunk_index, size)`` for every chunk of ``n``.

    Results come back in chunk order regardless of ``workers``, so any
    order-respecting reduction over them is reproducible.  The pool gets
    no more threads than there are chunks or CPUs.
    """
    sizes = chunk_sizes(n, chunk_size)
    workers = min(workers, len(sizes), os.cpu_count() or 1)
    if workers <= 1:
        return [chunk_fn(i, size) for i, size in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, range(len(sizes)), sizes))
