"""Chunked execution: chunk order and the size of the worker pool."""

import pytest

from vesselsim import streams
from vesselsim.streams import CHUNK_SIZE, chunk_sizes, run_chunks


class SerialPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers``, runs serially."""

    def __init__(self, created, max_workers):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


class TestRunChunks:
    @pytest.mark.parametrize(
        "cpus, workers, n_chunks, pool_size",
        [
            (4, 100_000, 3, 3),
            (4, 100_000, 10, 4),
            (4, 2, 10, 2),
            (1, 8, 10, None),
            (None, 100_000, 10, None),
            (4, 100_000, 1, None),
        ],
    )
    def test_pool_is_clamped_to_chunks_and_cpus(
        self, monkeypatch, cpus, workers, n_chunks, pool_size
    ):
        created = []
        monkeypatch.setattr(
            streams, "ThreadPoolExecutor", lambda max_workers: SerialPool(created, max_workers)
        )
        monkeypatch.setattr(streams.os, "cpu_count", lambda: cpus)
        n = CHUNK_SIZE * (n_chunks - 1) + 5
        results = run_chunks(lambda index, size: (index, size), n, workers=workers)
        assert results == list(enumerate(chunk_sizes(n)))
        assert created == ([] if pool_size is None else [pool_size])
