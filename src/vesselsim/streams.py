"""Deterministic seed-derived substreams and fixed-order chunked execution.

A master seed plus an integer key tuple pins down one generator.  Every
random column of every consumer draws its whole run, in order, from its own
``substream(seed, consumer, column)``.  ``run_chunks`` is the one loop that
cuts a job into fixed-size chunks: it hands each chunk function only the
chunk's size and runs the chunks one after another on the calling thread,
in chunk order, lazily, while each column's generator runs on across them.
So every result is a pure function of (seed, n), the same for every
``CHUNK_SIZE``, and memory depends on ``CHUNK_SIZE``, not on n.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Callable, Iterator
from typing import TypeVar

import numpy as np

from .errors import InvariantError

CHUNK_SIZE = 1 << 15

# Spawn keys are (consumer, column).  Consumers 0..3 are the coincidence pairs
# in canonical order; column 0 holds left diameters, singlet coins or Born
# uniforms, column 1 right diameters or singlet agreement uniforms.
LOCALITY_STREAM = 4
BORN_STREAM = 5

T = TypeVar("T")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def check_seed(seed: int, field: str = "seed") -> None:
    """The seed rule of every seeded consumer: an integer (not a bool) in
    [0, 2**64), which ``SeedSequence`` and the tie coin's hash both take.
    ``field`` names the parameter that carried it."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise InvariantError(f"{field} must be an integer in [0, 2**64), got {seed!r}", field)


def check_count(n: int) -> None:
    """The rule for a number of draws or runs: a non-negative integer, not a bool."""
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 0):
        raise InvariantError(f"a sample count must be a non-negative integer, got {n!r}", "n")


def chunk_sizes(n: int) -> Iterator[int]:
    """Split ``n`` draws into ``CHUNK_SIZE`` chunks (last one ragged), lazily."""
    check_count(n)
    full, rest = divmod(n, CHUNK_SIZE)
    return itertools.chain(itertools.repeat(CHUNK_SIZE, full), [rest] if rest else [])


def run_chunks(chunk_fn: Callable[[int], T], n: int) -> Iterator[T]:
    """Yield ``chunk_fn(size)`` for every chunk of ``n``, in chunk order.

    Each chunk runs only when the caller asks for its result, so one chunk
    is in flight at a time and any order-respecting reduction over the
    results is reproducible.  A chunk knows only its size: where it falls
    in the run is the position of its column generators.
    """
    return map(chunk_fn, chunk_sizes(n))
