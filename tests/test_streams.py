"""Chunked execution: chunk order, laziness, and the stream positions that
let chunked draws reproduce one-shot draws."""

import json
import math
import os
import sys
import threading
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from vesselsim import HiddenVariableSampler, born_histogram, born_samples, make_state, streams
from vesselsim.cli import _worker_count, main
from vesselsim.streams import (
    BORN_STREAM,
    CHUNK_SIZE,
    LOCALITY_STREAM,
    chunk_sizes,
    run_chunks,
    substream,
)


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
    def test_no_thread_starts_and_chunks_run_in_order(
        self, monkeypatch, cpus, workers, n_chunks, pool_size
    ):
        # Rows of the retired pool's clamp: pool_size threads is what it
        # started for --workers N.  Now no CPU count or accepted --workers
        # value starts a thread: every chunk, the ragged last one included,
        # runs on the calling thread, in chunk order.
        assert _worker_count(str(workers)) == workers
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        caller = threading.get_ident()
        n = CHUNK_SIZE * (n_chunks - 1) + 5
        results = list(run_chunks(lambda size: (size, threading.get_ident()), n))
        assert results == [(size, caller) for size in chunk_sizes(n)]
        assert started == [], f"the retired pool started {pool_size} threads here"

    def test_results_are_lazy_with_a_bounded_window(self):
        calls = []

        def chunk_fn(size):
            calls.append(size)
            return len(calls) - 1

        results = run_chunks(chunk_fn, 1000 * CHUNK_SIZE)
        assert calls == []
        for taken in range(1, 4):
            # Results come in chunk order, the k-th taken from the k-th call.
            assert next(results) == taken - 1
            # One chunk runs per result taken, none ahead of the caller.
            assert calls == [CHUNK_SIZE] * taken


def sampling_run(tmp_path, subcommand, fmt, runs):
    """The bytes ``subcommand`` writes in ``fmt`` on a scenario of ``runs`` runs."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 3,
                "runs_per_pair": runs,
                "singlet_angles": [0, 90, 45, 135],
                "amplitudes": [[1.0 / math.sqrt(11), 0.0]] * 11,
            }
        )
    )
    out = tmp_path / f"out.{fmt}"
    assert main([subcommand, "--scenario", str(scenario), "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


# A run of two full chunks and a ragged third one.
THREE_CHUNKS = 2 * CHUNK_SIZE + 3
# The chunks each consumer schedules in one such run, by subcommand and format.
SCHEDULED = [
    # Four pairs of three chunks each.  Vessel pairs that draw go through
    # draw_chunks: under the default "error" policy JSON draws only for AB.
    ("vessel-chsh", "json", {"draw_chunks": 3, "model": 9}),
    ("vessel-chsh", "csv", {"draw_chunks": 12}),
    ("quantum-chsh", "json", {"model": 12}),
    ("quantum-chsh", "csv", {"model": 12}),
    ("locality-check", "json", {"draw_chunks": 3}),
    ("locality-check", "csv", {"draw_chunks": 3}),
    ("sample-state", "json", {"born_histogram": 3}),
    # CSV cuts the run into chunks and Born-samples each one as one chunk.
    ("sample-state", "csv", {"sample_state": 3, "born_samples": 3}),
]


class TestOneChunkLoop:
    """Every chunk schedule a CLI run uses comes from ``run_chunks``, so a
    per-chunk hook there sees every chunk of every consumer."""

    @pytest.mark.parametrize(
        "subcommand, fmt, scheduled",
        SCHEDULED,
        ids=[f"{subcommand}-{fmt}" for subcommand, fmt, _ in SCHEDULED],
    )
    def test_every_schedule_comes_from_run_chunks(
        self, tmp_path, monkeypatch, subcommand, scheduled, fmt
    ):
        schedule = streams.chunk_sizes
        callers, chunks = set(), {}

        def recorded_schedule(n):
            caller = sys._getframe(1)
            callers.add(caller.f_code)
            consumer = caller.f_back.f_code.co_name
            sizes = list(schedule(n))
            chunks[consumer] = chunks.get(consumer, 0) + len(sizes)
            return iter(sizes)

        monkeypatch.setattr(streams, "chunk_sizes", recorded_schedule)
        sampling_run(tmp_path, subcommand, fmt, THREE_CHUNKS)
        assert callers == {streams.run_chunks.__code__}
        assert chunks == scheduled


SAMPLING = [
    (subcommand, fmt)
    for subcommand in ("vessel-chsh", "quantum-chsh", "locality-check", "sample-state")
    for fmt in ("json", "csv")
]
SAMPLING_IDS = [f"{subcommand}-{fmt}" for subcommand, fmt in SAMPLING]
PAIR_COLUMNS = [(pair, column) for pair in range(4) for column in (0, 1)]
# The (consumer, column) substream keys each sampling run makes, whatever
# its length.
SUBSTREAM_KEYS = {
    # Under the default "error" policy JSON draws the diameters of AB only.
    ("vessel-chsh", "json"): [(0, 0), (0, 1)],
    ("vessel-chsh", "csv"): PAIR_COLUMNS,
    # Without columns the singlet makes only its agreement uniforms.
    ("quantum-chsh", "json"): [(pair, 1) for pair in range(4)],
    ("quantum-chsh", "csv"): PAIR_COLUMNS,
    ("locality-check", "json"): [(LOCALITY_STREAM, 0), (LOCALITY_STREAM, 1)],
    ("locality-check", "csv"): [(LOCALITY_STREAM, 0), (LOCALITY_STREAM, 1)],
    ("sample-state", "json"): [(BORN_STREAM, 0)],
    ("sample-state", "csv"): [(BORN_STREAM, 0)],
}


class TestOneStreamLayout:
    """Each random column draws its whole run from its own substream, so the
    chunk size is a memory knob that no report can see."""

    @pytest.mark.parametrize("runs", [45, 1001])
    @pytest.mark.parametrize("subcommand, fmt", SAMPLING, ids=SAMPLING_IDS)
    def test_bytes_do_not_depend_on_the_chunk_size(
        self, tmp_path, monkeypatch, subcommand, fmt, runs
    ):
        expected = sampling_run(tmp_path, subcommand, fmt, runs)
        # An odd number of runs in chunks of 7: every other chunk of coins
        # ends on half a 64-bit output, which the next chunk's first coin reads.
        monkeypatch.setattr(streams, "CHUNK_SIZE", 7)
        assert len(list(chunk_sizes(runs))) > 5
        assert sampling_run(tmp_path, subcommand, fmt, runs) == expected

    @pytest.mark.parametrize("runs", [5, 3 * CHUNK_SIZE + 5])
    @pytest.mark.parametrize("subcommand, fmt", SAMPLING, ids=SAMPLING_IDS)
    def test_substreams_per_run_do_not_grow_with_its_length(
        self, tmp_path, monkeypatch, subcommand, fmt, runs
    ):
        keys = []

        def counted(seed, *key):
            keys.append(key)
            return substream(seed, *key)

        # Every module that imported the name calls it through its own copy.
        for name, module in list(sys.modules.items()):
            if name.startswith("vesselsim") and getattr(module, "substream", None) is substream:
                monkeypatch.setattr(module, "substream", counted)
        sampling_run(tmp_path, subcommand, fmt, runs)
        assert sorted(keys) == sorted(SUBSTREAM_KEYS[subcommand, fmt])


# Sizes around the chunk boundaries.
CHUNK_EDGES = [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 5]


class TestStreamPositions:
    """Chunked draws reproduce one-shot draws because each column's
    generator runs on across the chunks.  These tests pin the PCG64 facts
    behind that: one 64-bit output per ``random`` or ``uniform`` double,
    half of one per ``integers(0, 2)`` coin, and a coin's leftover half
    read by the next call."""

    @pytest.mark.parametrize("draws", [1, 7, CHUNK_SIZE + 1])
    def test_one_output_per_double(self, draws):
        for draw in (lambda rng: rng.random(draws), lambda rng: rng.uniform(0.5, 3.0, draws)):
            drawn, advanced = substream(3, 4, 0), substream(3, 4, 0)
            draw(drawn)
            advanced.bit_generator.advance(draws)
            assert drawn.bit_generator.state == advanced.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 31, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1])
    def test_coins_take_half_an_output_each(self, seed, size):
        drawn, advanced = substream(seed, 0, 0), substream(seed, 0, 0)
        coins = drawn.integers(0, 2, size=size)
        advanced.bit_generator.advance(-(-size // 2))
        # An odd count leaves half an output in the 32-bit buffer, which
        # doubles never read; the 128-bit PCG state must agree.
        assert drawn.bit_generator.state["state"] == advanced.bit_generator.state["state"]
        assert np.array_equal(drawn.random(size), advanced.random(size))
        # The singlet's coin column draws chunk after chunk on one generator:
        # the next chunk's first coin reads a half left in that buffer.
        chunked = substream(seed, 0, 0)
        halves = [chunked.integers(0, 2, size=part) for part in (size // 2, size - size // 2)]
        assert np.array_equal(np.concatenate(halves), coins)

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_chunked_diameters_equal_the_one_shot_draws(self, n):
        sampler = HiddenVariableSampler(low=0.5, high=3.0, seed=11)
        chunks = list(sampler.draw_chunks(n, key=(LOCALITY_STREAM,)))
        assert [len(lambda_a) for lambda_a, _ in chunks] == list(chunk_sizes(n))
        lambda_a, lambda_b = sampler.draw_arrays(n, key=(LOCALITY_STREAM,))
        assert np.array_equal(np.concatenate([a for a, _ in chunks]), lambda_a)
        assert np.array_equal(np.concatenate([b for _, b in chunks]), lambda_b)

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_chunked_born_draws_equal_the_one_shot_uniforms(self, n):
        state = make_state([math.sqrt((k + 1) / 66) for k in range(11)])
        uniforms = substream(5, BORN_STREAM, 0).random(n)
        rng = substream(5, BORN_STREAM, 0)
        chunked = np.concatenate([rng.random(size) for size in chunk_sizes(n)])
        assert np.array_equal(chunked, uniforms)
        cdf = (state.probabilities() / state.probabilities().sum()).cumsum()
        cdf /= cdf[-1]
        expected = cdf.searchsorted(uniforms, side="right")
        draws = born_samples(state, n, substream(5, BORN_STREAM, 0))
        assert np.array_equal(draws, expected)
        histogram = born_histogram(state, n, substream(5, BORN_STREAM, 0))
        assert histogram.tolist() == np.bincount(expected, minlength=11).tolist()


def test_chunk_schedule_takes_constant_memory():
    tracemalloc.start()
    try:
        assert list(islice(chunk_sizes(2**40), 3)) == [CHUNK_SIZE] * 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000
