"""Deterministic seed-derived substreams and fixed-order chunked execution.

A master seed plus an integer key tuple pins down one generator, so every
consumer of randomness (one per coincidence pair, the locality scan, the
state sampler) owns an independent stream.  Large jobs are cut into
fixed-size chunks, one substream per chunk; results are merged in chunk
order, which makes every estimate a pure function of (seed, n) no matter
how many workers executed the chunks.  The chunk schedule and the results
are produced lazily, so memory depends on ``CHUNK_SIZE``, not on n.
"""

from __future__ import annotations

import itertools
import numbers
import os
from collections import deque
from collections.abc import Callable, Iterator
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


def check_seed(seed: int, field: str = "seed") -> None:
    """The seed rule of every seeded consumer: an integer in [0, 2**64),
    which ``SeedSequence`` and the tie coin's hash both take.  ``field``
    names the parameter that carried it."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise InvariantError(f"{field} must be an integer in [0, 2**64), got {seed!r}", field)


def check_count(n: int) -> None:
    """The rule for a number of draws or runs: a non-negative integer."""
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise InvariantError(f"a sample count must be a non-negative integer, got {n!r}", "n")


def chunk_sizes(n: int) -> Iterator[int]:
    """Split ``n`` draws into ``CHUNK_SIZE`` chunks (last one ragged), lazily."""
    check_count(n)
    full, rest = divmod(n, CHUNK_SIZE)
    return itertools.chain(itertools.repeat(CHUNK_SIZE, full), [rest] if rest else [])


def run_chunks(chunk_fn: Callable[[int, int], T], n: int, workers: int = 1) -> Iterator[T]:
    """Yield ``chunk_fn(chunk_index, size)`` for every chunk of ``n``, in chunk order.

    Results come in chunk order regardless of ``workers``, so any
    order-respecting reduction over them is reproducible.  The pool gets
    no more threads than there are chunks or CPUs, and holds at most two
    chunks per thread in flight: it submits the next chunk as the caller
    consumes a result.
    """
    sizes = chunk_sizes(n)
    workers = min(workers, -(-n // CHUNK_SIZE), os.cpu_count() or 1)
    if workers <= 1:
        return (chunk_fn(index, size) for index, size in enumerate(sizes))
    return _pooled(chunk_fn, sizes, workers)


def _pooled(chunk_fn: Callable[[int, int], T], sizes: Iterator[int], workers: int) -> Iterator[T]:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight: deque = deque()
        try:
            for index, size in enumerate(sizes):
                in_flight.append(pool.submit(chunk_fn, index, size))
                if len(in_flight) == 2 * workers:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            # A caller that stops early leaves no queued chunk to run.
            for future in in_flight:
                future.cancel()
